/**
 * @file
 * ThreadPool unit tests: submission-order results, exception
 * propagation, shutdown draining, and HSU_JOBS parsing; parallelMap's
 * index order and its rethrow after the pool drains; HelperTeam's
 * thread budget and its phase hand-off (run under TSan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.hh"
#include "common/threadpool.hh"

namespace hsu
{
namespace
{

TEST(ThreadPool, ResultsComeBackInSubmissionOrder)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, MoreJobsThanQueueBound)
{
    // 2 workers x queue_factor 1 = queue bound 2; submit() must block
    // and resume rather than drop or deadlock.
    ThreadPool pool(2, 1);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            ++ran;
        }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i) {
            futures.push_back(pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++ran;
            }));
        }
        // Destroy the pool with most tasks still queued.
    }
    EXPECT_EQ(ran.load(), 32);
    for (auto &f : futures)
        EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, DefaultJobsHonorsEnvVar)
{
    ASSERT_EQ(setenv("HSU_JOBS", "7", 1), 0);
    EXPECT_EQ(defaultJobs(), 7u);
    EXPECT_EQ(ThreadPool(0).numThreads(), 7u);

    // Malformed or non-positive values fall back to the hardware
    // default instead of serialising (or crashing) the fleet.
    ASSERT_EQ(setenv("HSU_JOBS", "banana", 1), 0);
    EXPECT_GE(defaultJobs(), 1u);
    ASSERT_EQ(setenv("HSU_JOBS", "0", 1), 0);
    EXPECT_GE(defaultJobs(), 1u);

    ASSERT_EQ(unsetenv("HSU_JOBS"), 0);
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ThreadPool, ExplicitThreadCountWins)
{
    ASSERT_EQ(setenv("HSU_JOBS", "7", 1), 0);
    EXPECT_EQ(ThreadPool(3).numThreads(), 3u);
    ASSERT_EQ(unsetenv("HSU_JOBS"), 0);
}

TEST(ParallelMap, ResultsComeBackInIndexOrder)
{
    // 64 calls exceed the queue bound (4 per worker) at both worker
    // counts, and uneven call lengths let later indexes finish first.
    for (const unsigned workers : {1u, 4u}) {
        const std::vector<std::size_t> out = parallelMap(
            64,
            [](std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds((i % 4) * 50));
                return i * i;
            },
            workers);
        ASSERT_EQ(out.size(), 64u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i) << workers << " workers";
    }
}

TEST(ParallelMap, EmptyRangeReturnsEmptyVector)
{
    EXPECT_TRUE(
        parallelMap(0, [](std::size_t i) { return i; }, 2).empty());
}

TEST(ParallelMap, RethrowsOnceEveryOtherCallFinished)
{
    std::atomic<int> finished{0};
    const auto fn = [&finished](std::size_t i) {
        if (i == 3 || i == 20)
            throw std::runtime_error("call " + std::to_string(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++finished;
        return i;
    };
    int finished_at_catch = -1;
    try {
        (void)parallelMap(32, fn, 4);
    } catch (const std::runtime_error &e) {
        finished_at_catch = finished.load();
        // The lowest throwing index wins, whichever threw first.
        EXPECT_STREQ(e.what(), "call 3");
    }
    EXPECT_EQ(finished_at_catch, 30);
}

/** Hardware threads as HelperTeam counts them. */
unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

TEST(HelperTeam, OneJobTakesNoHelper)
{
    const test::ScopedEnv jobs("HSU_JOBS", "1");
    HelperTeam team;
    EXPECT_EQ(team.maxHelpers(), 0u);
    EXPECT_EQ(team.claim(8), 0u);
    std::vector<unsigned> ran;
    team.run([&ran](unsigned t) { ran.push_back(t); });
    EXPECT_EQ(ran, std::vector<unsigned>{0});
}

TEST(HelperTeam, JobsAboveTheCoreCountAreCappedByHardware)
{
    // Claims only: no helper thread is started.
    const test::ScopedEnv jobs("HSU_JOBS", "100000");
    ASSERT_EQ(runningThreads(), 0u);
    HelperTeam team;
    EXPECT_EQ(team.maxHelpers(), hardwareThreads() - 1);
    EXPECT_EQ(team.claim(100000), hardwareThreads() - 1);
    EXPECT_EQ(runningThreads(), hardwareThreads());
}

TEST(HelperTeam, BusyPoolLendsNoHelperUntilItsWorkersGoIdle)
{
    const test::ScopedEnv jobs("HSU_JOBS", "4");
    const unsigned limit = std::min(4u, hardwareThreads()) - 1;
    std::latch all_running(4), claimed(1);
    std::atomic<unsigned> while_busy{99}, once_idle{99};
    {
        ThreadPool pool(4);
        pool.submit([&] {
            all_running.arrive_and_wait();
            HelperTeam team;
            while_busy = team.claim(3);
            claimed.count_down();
            // The other three tasks return: their workers go idle.
            while (runningThreads() != 1 + team.held())
                std::this_thread::yield();
            once_idle = team.claim(3);
        });
        for (int i = 0; i < 3; ++i) {
            pool.submit([&] {
                all_running.arrive_and_wait();
                claimed.wait();
            });
        }
    }
    EXPECT_EQ(while_busy.load(), 0u);
    EXPECT_EQ(once_idle.load(), limit);
    EXPECT_EQ(runningThreads(), 0u);
}

TEST(HelperTeam, ConcurrentTeamsStayWithinTheFreeBudget)
{
    // Three owners under a budget of four: their helpers may total at
    // most one, however the claims and phases interleave.
    const test::ScopedEnv jobs("HSU_JOBS", "4");
    constexpr unsigned kOwners = 3;
    std::barrier ready(kOwners);
    std::atomic<unsigned> peak{0}, helped{0};
    std::vector<std::thread> owners;
    for (unsigned o = 0; o < kOwners; ++o) {
        owners.emplace_back([&, o] {
            HelperTeam team;
            ready.arrive_and_wait();
            for (unsigned i = 0; i < 300; ++i) {
                const unsigned held = team.claim((i + o) % 4);
                unsigned seen = runningThreads();
                unsigned p = peak.load();
                while (seen > p && !peak.compare_exchange_weak(p, seen)) {
                }
                std::vector<unsigned> calls(held + 1, 0);
                team.run([&calls](unsigned t) { ++calls[t]; });
                for (const unsigned c : calls)
                    EXPECT_EQ(c, 1u);
                helped += held;
            }
            ready.arrive_and_wait();
        });
    }
    for (std::thread &t : owners)
        t.join();
    EXPECT_LE(peak.load(), 4u);
    if (hardwareThreads() > 1) {
        EXPECT_GT(helped.load(), 0u) << "no owner ever held a helper";
    }
    EXPECT_EQ(runningThreads(), 0u);
}

// The owner's writes before a phase reach every helper, and the
// helpers' writes reach the owner after it, across phases whose helper
// count changes (run under TSan: the data is plain, not atomic).
TEST(HelperTeam, PhasesPublishWritesBothWays)
{
    const test::ScopedEnv jobs("HSU_JOBS", "4");
    HelperTeam team;
    std::vector<std::uint64_t> in(4, 0), out(4, 0);
    for (std::uint64_t phase = 1; phase <= 2000; ++phase) {
        const unsigned held = team.claim(static_cast<unsigned>(phase % 4));
        for (unsigned t = 0; t <= held; ++t)
            in[t] = phase * 10 + t;
        team.run([&](unsigned t) { out[t] = in[t] + 1; });
        for (unsigned t = 0; t <= held; ++t)
            ASSERT_EQ(out[t], phase * 10 + t + 1) << "thread " << t;
    }
}

} // namespace
} // namespace hsu
