/**
 * @file
 * Dynamic-batcher invariants: FIFO order, size cap, age trigger,
 * deadline handling.
 */

#include <gtest/gtest.h>

#include "serve/batcher.hh"

namespace hsu::serve
{
namespace
{

Request
makeReq(std::uint64_t id, Cycle arrival,
        Cycle deadline = kNeverCycle)
{
    Request r;
    r.id = id;
    r.arrivalCycle = arrival;
    r.queryId = static_cast<std::uint32_t>(id % 64);
    r.deadlineCycle = deadline;
    return r;
}

TEST(Batcher, SizeTriggerAndCap)
{
    BatchPolicy policy;
    policy.maxBatch = 4;
    policy.maxWaitCycles = 1'000'000;
    DynamicBatcher b(policy);

    for (std::uint64_t i = 0; i < 10; ++i) {
        b.push(makeReq(i, 100 + i));
        // Ready exactly when a full batch is pending.
        EXPECT_EQ(b.batchReady(100 + i), i + 1 >= policy.maxBatch);
    }
    std::vector<Request> expired;
    const auto batch = b.popBatch(200, expired);
    EXPECT_EQ(batch.size(), policy.maxBatch);
    EXPECT_TRUE(expired.empty());
    EXPECT_EQ(b.pending(), 6u);
}

TEST(Batcher, NeverWaitSaturatesInsteadOfWrapping)
{
    // A wait of kNeverCycle means the age trigger never fires; the sum
    // with the arrival cycle must not wrap to a cycle in the past.
    BatchPolicy policy;
    policy.maxBatch = 4;
    policy.maxWaitCycles = kNeverCycle;
    DynamicBatcher b(policy);
    b.push(makeReq(0, 100));
    EXPECT_FALSE(b.batchReady(100));
    EXPECT_FALSE(b.batchReady(kNeverCycle - 1));
    EXPECT_EQ(b.nextForceCycle(), kNeverCycle);

    // One cycle short of saturating still fires on time.
    policy.maxWaitCycles = kNeverCycle - 101;
    DynamicBatcher near(policy);
    near.push(makeReq(0, 100));
    EXPECT_EQ(near.nextForceCycle(), kNeverCycle - 1);
    EXPECT_TRUE(near.batchReady(kNeverCycle - 1));
}

TEST(Batcher, FifoNeverReorders)
{
    BatchPolicy policy;
    policy.maxBatch = 8;
    DynamicBatcher b(policy);
    for (std::uint64_t i = 0; i < 20; ++i)
        b.push(makeReq(i, i * 10));

    std::uint64_t expect = 0;
    std::vector<Request> expired;
    while (b.pending() > 0) {
        for (const Request &r : b.popBatch(10'000, expired))
            EXPECT_EQ(r.id, expect++);
    }
    EXPECT_EQ(expect, 20u);
    EXPECT_TRUE(expired.empty());
}

TEST(Batcher, AgeTriggerForcesPartialBatch)
{
    BatchPolicy policy;
    policy.maxBatch = 32;
    policy.maxWaitCycles = 500;
    DynamicBatcher b(policy);
    b.push(makeReq(0, 1000));
    b.push(makeReq(1, 1100));

    EXPECT_FALSE(b.batchReady(1400));      // oldest waited 400 < 500
    EXPECT_EQ(b.nextForceCycle(), 1500u);  // 1000 + maxWait
    EXPECT_TRUE(b.batchReady(1500));
    std::vector<Request> expired;
    const auto batch = b.popBatch(1500, expired);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(b.pending(), 0u);
    EXPECT_EQ(b.nextForceCycle(), kNeverCycle);
}

TEST(Batcher, ExpiredRequestsDropAtPopNotSilently)
{
    BatchPolicy policy;
    policy.maxBatch = 4;
    DynamicBatcher b(policy);
    // Requests 0 and 2 expire before pop time; 1 and 3 survive.
    b.push(makeReq(0, 100, 150));
    b.push(makeReq(1, 110, 10'000));
    b.push(makeReq(2, 120, 180));
    b.push(makeReq(3, 130, 10'000));

    std::vector<Request> expired;
    const auto batch = b.popBatch(200, expired);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 1u);
    EXPECT_EQ(batch[1].id, 3u);
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(expired[0].id, 0u);
    EXPECT_EQ(expired[1].id, 2u);
    // Every pushed request was accounted for, none vanished.
    EXPECT_EQ(batch.size() + expired.size(), 4u);
}

TEST(Batcher, DeadlineExactlyAtNowStillServes)
{
    BatchPolicy policy;
    policy.maxBatch = 2;
    DynamicBatcher b(policy);
    b.push(makeReq(0, 100, 200)); // deadline == now: not yet past
    b.push(makeReq(1, 110, 199)); // strictly before now: expired
    std::vector<Request> expired;
    const auto batch = b.popBatch(200, expired);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, 0u);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 1u);
}

TEST(Batcher, AllExpiredYieldsEmptyBatch)
{
    BatchPolicy policy;
    policy.maxBatch = 8;
    policy.maxWaitCycles = 100;
    DynamicBatcher b(policy);
    for (std::uint64_t i = 0; i < 3; ++i)
        b.push(makeReq(i, 10, 50));
    EXPECT_TRUE(b.batchReady(1000));
    std::vector<Request> expired;
    const auto batch = b.popBatch(1000, expired);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(expired.size(), 3u);
    EXPECT_EQ(b.pending(), 0u);
}

} // namespace
} // namespace hsu::serve
