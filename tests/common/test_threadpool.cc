/**
 * @file
 * ThreadPool unit tests: submission-order results, exception
 * propagation, shutdown draining, and HSU_JOBS parsing; parallelMap's
 * index order and its rethrow after the pool drains.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

} // namespace
} // namespace hsu
