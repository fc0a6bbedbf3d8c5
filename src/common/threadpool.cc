#include "common/threadpool.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/audit.hh"
#include "common/logging.hh"

namespace hsu
{

namespace
{

// parallelMap is a header template; its one registration lives here.
[[maybe_unused]] HSU_AUDIT_NONDET_SOURCE(
    kStatMergeAudit, audit::NondetKind::FloatAccumulation,
    "threadpool.hh:parallelMap",
    "futures are joined in index order, so floating-point stat merges "
    "see a fixed accumulation order regardless of worker scheduling");

} // namespace

unsigned
defaultJobs()
{
    // The process-wide default that ArgParser::envOpt write-back sets;
    // audit[env-read]: reading it here keeps library code CLI-free
    if (const char *env = std::getenv("HSU_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
        // Malformed values fall through to the hardware default rather
        // than silently serialising a bench fleet.
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_threads, unsigned queue_factor)
{
    const unsigned n = num_threads > 0 ? num_threads : defaultJobs();
    queueBound_ = static_cast<std::size_t>(n) *
                  std::max(1u, queue_factor);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        workers_.emplace_back(
            [this](std::stop_token stop) { workerLoop(stop); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lock(mutex_);
        accepting_ = false;
    }
    for (auto &w : workers_)
        w.request_stop();
    taskReady_.notify_all();
    // jthread joins on destruction; workerLoop drains the queue before
    // honouring the stop request, so queued futures still complete.
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    std::unique_lock lock(mutex_);
    hsu_assert(accepting_, "submit() on a stopped ThreadPool");
    spaceFree_.wait(lock,
                    [this] { return queue_.size() < queueBound_; });
    queue_.push_back(std::move(task));
    lock.unlock();
    taskReady_.notify_one();
}

void
ThreadPool::workerLoop(std::stop_token stop)
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            if (!taskReady_.wait(lock, stop,
                                 [this] { return !queue_.empty(); })) {
                // Stop requested and the queue is empty: done.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        spaceFree_.notify_one();
        task(); // exceptions land in the packaged_task's future
    }
}

} // namespace hsu
