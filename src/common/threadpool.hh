/**
 * @file
 * Fixed-size worker pool for fanning independent simulations across
 * cores, parallelMap(), the one fan-out every simulation fleet goes
 * through, and HelperTeam, which lends a long task (the HNSW build)
 * the workers the rest of the process leaves idle.
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

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
 * std::thread::hardware_concurrency() (at least 1). It is also the
 * process's thread budget: a HelperTeam claims helpers only while
 * runningThreads() is below it.
 */
unsigned defaultJobs();

/**
 * Threads running work now, process-wide: pool workers inside a task,
 * plus every thread a HelperTeam counts (its owner, unless the owner is
 * such a worker, and the helpers it holds). Idle pool workers and
 * threads blocked on a pool's futures are not counted.
 */
unsigned runningThreads();

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

/**
 * The owning thread plus helper threads claimed from the thread budget,
 * running phases of work together.
 *
 * claim() holds at most maxHelpers() helpers, and never more than
 * defaultJobs() minus the running threads other than this team's own
 * helpers; what the team may no longer hold it gives back. An owner
 * that re-claims before each phase therefore takes pool workers as they
 * go idle and returns them as soon as workers become busy again, and
 * teams that start together on a busy pool hold none. A team holding no
 * helper runs every phase on its owner alone and starts no thread.
 *
 * Helper threads start when a phase first needs them, each moving off
 * its owner's CPU to a different one, and are joined by the
 * destructor. Each helper has its own wake-up word: run() posts the
 * phase to the helpers it holds, and a helper it does not hold is never
 * woken. A waiting thread (a helper between phases, or the owner
 * waiting for the helpers to finish) spins for a few tens of
 * microseconds, then blocks on a condition variable; the poster stores
 * the word under that variable's mutex, so no wake-up is lost.
 *
 * Only the owner may call claim() and run().
 */
class HelperTeam
{
  public:
    /** Counts the owner as running unless it is a pool worker inside a
     *  task (which is counted already); claims no helper. */
    HelperTeam();

    /** Stops and joins every helper and returns the claim. */
    ~HelperTeam();

    HelperTeam(const HelperTeam &) = delete;
    HelperTeam &operator=(const HelperTeam &) = delete;

    /**
     * Hold min(@p want, maxHelpers(), free) helpers, where free is
     * defaultJobs() (read when the team was made) minus the running
     * threads that are not this team's helpers. Starts no thread.
     * @return the number held
     */
    unsigned claim(unsigned want);

    /** Helpers held: run() runs its phase on held() + 1 threads. */
    unsigned held() const { return held_; }

    /** min(defaultJobs(), hardware_concurrency()) - 1, both read when
     *  the team was made: the most helpers it may hold. */
    unsigned maxHelpers() const { return limit_; }

    /**
     * Call @p fn(t) for every t <= held(): t = 0 on the owner, t > 0 on
     * helper t - 1; return once every call has returned. Everything
     * the owner wrote before run() is visible to every call, and
     * everything a call wrote is visible to the owner after it. An
     * exception from the owner's call is rethrown once every helper's
     * call has returned; one from a helper's call terminates the
     * process.
     */
    template <typename Fn>
    void
    run(Fn &&fn)
    {
        runPhase(&fn, [](void *f, unsigned t) {
            (*static_cast<std::remove_reference_t<Fn> *>(f))(t);
        });
    }

  private:
    /** One helper thread and its wake-up word. */
    struct Helper
    {
        std::mutex mutex;
        std::condition_variable wake;
        /** The last phase posted to this helper (kStop: exit). */
        std::atomic<std::uint64_t> phase{0};
        std::thread thread;
    };

    void runPhase(void *fn, void (*call)(void *, unsigned));
    void helperLoop(Helper &h, unsigned t);

    unsigned jobs_;
    unsigned limit_;
    bool countsOwner_;
    unsigned held_ = 0;
    std::vector<std::unique_ptr<Helper>> helpers_; //!< started so far
    std::uint64_t phase_ = 0; //!< phases posted so far
    // The posted phase's work; written by the owner only while no
    // helper is inside a phase.
    void *fn_ = nullptr;
    void (*call_)(void *, unsigned) = nullptr;
    /** Helpers still inside the posted phase. */
    std::atomic<unsigned> pending_{0};
    std::mutex doneMutex_;
    std::condition_variable done_;
};

} // namespace hsu

#endif // HSU_COMMON_THREADPOOL_HH
