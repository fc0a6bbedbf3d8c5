/**
 * @file
 * Fixed-size worker pool for fanning independent simulations across
 * cores, and parallelMap(), the one fan-out every simulation fleet
 * goes through.
 *
 * Design notes:
 *  - std::jthread workers woken through a condition_variable_any keyed
 *    on the pool's stop_token, so shutdown needs no sentinel tasks.
 *  - The task queue is bounded (a small multiple of the worker count);
 *    submit() blocks when the queue is full, which keeps memory flat
 *    when a caller enqueues thousands of jobs.
 *  - submit() returns a std::future of the callable's result; an
 *    exception thrown by the task is captured and rethrown at .get().
 *  - The destructor stops accepting work, finishes every task already
 *    queued, then joins — pending futures never dangle.
 */

#ifndef HSU_COMMON_THREADPOOL_HH
#define HSU_COMMON_THREADPOOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hsu
{

/**
 * Number of simulation jobs to run concurrently: the HSU_JOBS
 * environment variable when set to a positive integer, otherwise
 * std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultJobs();

/** Bounded-queue fixed-size thread pool. */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 -> defaultJobs()
     * @param queue_factor queue bound = queue_factor * worker count
     */
    explicit ThreadPool(unsigned num_threads = 0,
                        unsigned queue_factor = 4);

    /** Drains queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p fn; blocks while the queue is at its bound. The
     * returned future carries the result or the thrown exception.
     */
    template <typename Fn>
    std::future<std::invoke_result_t<Fn>>
    submit(Fn fn)
    {
        using Result = std::invoke_result_t<Fn>;
        // packaged_task is move-only and std::function requires
        // copyable callables, so share it.
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::move(fn));
        std::future<Result> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void enqueue(std::function<void()> task);
    void workerLoop(std::stop_token stop);

    std::mutex mutex_;
    std::condition_variable_any taskReady_;  //!< queue gained a task
    std::condition_variable spaceFree_;      //!< queue lost a task
    std::deque<std::function<void()>> queue_;
    std::size_t queueBound_;
    bool accepting_ = true;
    std::vector<std::jthread> workers_;
};

/**
 * Call @p fn(i) for every i < @p n on one pool of @p num_threads
 * workers (0 -> defaultJobs()) and return the results in index order,
 * whichever worker ran which call. Calls run concurrently, so @p fn
 * must be safe to call from several threads at once. If calls throw,
 * the exception of the lowest such index is rethrown once the pool has
 * drained: every other call has finished by then.
 */
template <typename Fn>
std::vector<std::invoke_result_t<Fn &, std::size_t>>
parallelMap(std::size_t n, Fn fn, unsigned num_threads = 0)
{
    using Result = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<std::future<Result>> futures;
    futures.reserve(n);
    {
        ThreadPool pool(num_threads);
        for (std::size_t i = 0; i < n; ++i)
            futures.push_back(pool.submit([&fn, i] { return fn(i); }));
    }
    // Joining in index order fixes the order results (and anything a
    // caller accumulates from them) are seen in.
    std::vector<Result> results;
    results.reserve(n);
    for (auto &f : futures)
        results.push_back(f.get());
    return results;
}

} // namespace hsu

#endif // HSU_COMMON_THREADPOOL_HH
