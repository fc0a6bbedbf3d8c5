#include "common/threadpool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

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

/** runningThreads(): pool workers inside a task plus the threads
 *  HelperTeams count. A plain counter: nothing is published through
 *  it, so relaxed order suffices. */
std::atomic<unsigned> g_running{0};

/** Whether this thread is a pool worker running a task. */
thread_local bool t_inPoolTask = false;

/** Phase word that tells a helper to exit. */
constexpr std::uint64_t kStop = std::numeric_limits<std::uint64_t>::max();

/** How long a waiting thread spins before it blocks: long enough to
 *  bridge the owner's serial step between two short phases, short
 *  enough that a helper left without work soon stops using a core. */
constexpr std::chrono::microseconds kSpin{50};

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Wait until @p ready() holds: spin for up to kSpin, then block on
 * @p cv. The poster makes ready() true while holding @p m and notifies
 * after, so a waiter that checks ready() under @p m and then waits
 * cannot miss the notification.
 */
template <typename Ready>
void
spinThenBlock(Ready ready, std::mutex &m, std::condition_variable &cv)
{
    const auto until = std::chrono::steady_clock::now() + kSpin;
    for (unsigned i = 1; !ready(); ++i) {
        cpuRelax();
        if (i % 64 == 0 && std::chrono::steady_clock::now() > until) {
            std::unique_lock lock(m);
            cv.wait(lock, ready);
            return;
        }
    }
}

/** Store @p value into @p word under @p m, then wake @p cv's waiter. */
void
post(std::atomic<std::uint64_t> &word, std::uint64_t value, std::mutex &m,
     std::condition_variable &cv)
{
    {
        std::lock_guard lock(m);
        word.store(value, std::memory_order_release);
    }
    cv.notify_one();
}

/** The CPU the calling thread runs on, or -1 where that is unknown. */
int
currentCpu()
{
#if defined(__linux__)
    return sched_getcpu();
#else
    return -1;
#endif
}

/**
 * Move the calling thread, helper @p t of its team, from the CPU its
 * owner was on when it started it (@p owner_cpu) to the t-th allowed
 * CPU after that one, then allow it every CPU again. A new thread
 * starts on its creator's CPU, and a kernel may never move one of two
 * busy threads that share a CPU: on a 4-vCPU VM, builds whose helpers
 * stayed there ran about 3x slower than serial, in 5 of 12 builds.
 */
void
leaveOwnerCpu([[maybe_unused]] int owner_cpu, [[maybe_unused]] unsigned t)
{
#if defined(__linux__)
    cpu_set_t allowed;
    if (owner_cpu < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    std::vector<int> others;
    for (int c = owner_cpu + 1; c < owner_cpu + CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c % CPU_SETSIZE, &allowed))
            others.push_back(c % CPU_SETSIZE);
    }
    if (others.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(others[(t - 1) % others.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0)
        sched_setaffinity(0, sizeof allowed, &allowed);
#endif
}

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

unsigned
runningThreads()
{
    return g_running.load(std::memory_order_relaxed);
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
        g_running.fetch_add(1, std::memory_order_relaxed);
        t_inPoolTask = true;
        task(); // exceptions land in the packaged_task's future
        t_inPoolTask = false;
        g_running.fetch_sub(1, std::memory_order_relaxed);
    }
}

HelperTeam::HelperTeam()
    : jobs_(defaultJobs()),
      limit_(std::min(jobs_,
                      std::max(1u, std::thread::hardware_concurrency())) -
             1),
      countsOwner_(!t_inPoolTask)
{
    helpers_.reserve(limit_);
    if (countsOwner_)
        g_running.fetch_add(1, std::memory_order_relaxed);
}

HelperTeam::~HelperTeam()
{
    for (auto &h : helpers_)
        post(h->phase, kStop, h->mutex, h->wake);
    for (auto &h : helpers_)
        h->thread.join();
    g_running.fetch_sub(held_ + (countsOwner_ ? 1 : 0),
                        std::memory_order_relaxed);
}

unsigned
HelperTeam::claim(unsigned want)
{
    want = std::min(want, limit_);
    unsigned running = g_running.load(std::memory_order_relaxed);
    for (;;) {
        // Everything running but this team's helpers, the owner
        // included.
        const unsigned others = running - held_;
        const unsigned free = jobs_ > others ? jobs_ - others : 0;
        const unsigned next = std::min(want, free);
        if (next == held_)
            return held_;
        if (g_running.compare_exchange_weak(running, others + next,
                                            std::memory_order_relaxed)) {
            held_ = next;
            return held_;
        }
    }
}

void
HelperTeam::runPhase(void *fn, void (*call)(void *, unsigned))
{
    if (held_ == 0) {
        call(fn, 0);
        return;
    }
    while (helpers_.size() < held_) {
        // Kept only once its thread runs (helpers_ has room for every
        // helper the team may hold, so the push cannot throw).
        auto helper = std::make_unique<Helper>();
        const auto t = static_cast<unsigned>(helpers_.size() + 1);
        helper->thread = std::thread(
            [this, &h = *helper, t, owner_cpu = currentCpu()] {
                leaveOwnerCpu(owner_cpu, t);
                helperLoop(h, t);
            });
        helpers_.push_back(std::move(helper));
    }
    // Every helper has left the previous phase (pending_ reached 0), so
    // none reads these now; each post's release store publishes them,
    // and the owner's writes before run(), to the helper it wakes.
    fn_ = fn;
    call_ = call;
    pending_.store(held_, std::memory_order_relaxed);
    ++phase_;
    for (unsigned i = 0; i < held_; ++i) {
        Helper &h = *helpers_[i];
        post(h.phase, phase_, h.mutex, h.wake);
    }
    std::exception_ptr failed;
    try {
        call(fn, 0);
    } catch (...) {
        // Rethrown below: the helpers may still be using the caller's
        // frame until they are done.
        failed = std::current_exception();
    }
    // The acquire load that reads 0 synchronizes with every helper's
    // release decrement, so their writes are visible from here on.
    spinThenBlock(
        [this] { return pending_.load(std::memory_order_acquire) == 0; },
        doneMutex_, done_);
    if (failed)
        std::rethrow_exception(failed);
}

void
HelperTeam::helperLoop(Helper &h, unsigned t)
{
    std::uint64_t seen = 0;
    for (;;) {
        spinThenBlock(
            [&] { return h.phase.load(std::memory_order_acquire) != seen; },
            h.mutex, h.wake);
        seen = h.phase.load(std::memory_order_acquire);
        if (seen == kStop)
            return;
        call_(fn_, t);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // The last helper out wakes the owner. Taking the mutex
            // orders the decrement before the owner's check under it,
            // or this notify after the owner has started to wait.
            { std::lock_guard lock(doneMutex_); }
            done_.notify_one();
        }
    }
}

} // namespace hsu
