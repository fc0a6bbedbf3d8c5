/**
 * @file
 * Cache model tests: hit/miss classification, LRU replacement, MSHR
 * merging and structural rejection, write-through behaviour.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "mem/cache.hh"

namespace hsu
{
namespace
{

struct CacheFixture : public ::testing::Test
{
    StatGroup stats;
    CacheParams params{.name = "c", .sizeBytes = 1024, .assoc = 2,
                       .lineBytes = 128, .hitLatency = 4,
                       .mshrEntries = 2, .mshrMergesPerEntry = 2,
                       .missQueueCapacity = 4};

    std::vector<std::pair<std::uint64_t, bool>> lowered;

    std::unique_ptr<Cache> make()
    {
        auto c = std::make_unique<Cache>(params, stats);
        c->setSendLower([this](std::uint64_t line, bool write,
                               std::uint64_t) {
            lowered.emplace_back(line, write);
            return true;
        });
        return c;
    }
};

TEST_F(CacheFixture, ColdMissThenHit)
{
    auto c = make();
    int done = 0;
    EXPECT_EQ(c->access(0x1000, false, [&] { ++done; }, 0),
              CacheOutcome::Miss);
    c->tick(0); // forwards the miss
    ASSERT_EQ(lowered.size(), 1u);
    EXPECT_EQ(lowered[0].first, 0x1000u / 128);

    c->fill(0x1000 / 128, 10);
    c->tick(10);
    EXPECT_EQ(done, 1);

    // Now a hit, completing after hitLatency.
    EXPECT_EQ(c->access(0x1000, false, [&] { ++done; }, 11),
              CacheOutcome::Hit);
    c->tick(11);
    EXPECT_EQ(done, 1); // not yet (latency 4)
    c->tick(15);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(stats.get("c.hits"), 1.0);
    EXPECT_EQ(stats.get("c.misses"), 1.0);
}

TEST_F(CacheFixture, MshrMergesSecondAccess)
{
    auto c = make();
    int done = 0;
    EXPECT_EQ(c->access(0x2000, false, [&] { ++done; }, 0),
              CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x2040, false, [&] { ++done; }, 1),
              CacheOutcome::HitReserved); // same 128B line
    c->tick(1);
    EXPECT_EQ(lowered.size(), 1u); // one miss forwarded, not two
    c->fill(0x2000 / 128, 20);
    c->tick(20);
    EXPECT_EQ(done, 2); // both waiters released
    EXPECT_EQ(stats.get("c.hit_reserved"), 1.0);
}

TEST_F(CacheFixture, MshrMergeLimitRejects)
{
    auto c = make();
    EXPECT_EQ(c->access(0x3000, false, nullptr, 0), CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x3004, false, nullptr, 0),
              CacheOutcome::HitReserved);
    // mshrMergesPerEntry = 2: third access to the line rejects.
    EXPECT_EQ(c->access(0x3008, false, nullptr, 0),
              CacheOutcome::RejectMshrFull);
    EXPECT_EQ(stats.get("c.rejects"), 1.0);
}

TEST_F(CacheFixture, MshrEntryLimitRejects)
{
    auto c = make();
    EXPECT_EQ(c->access(0x10000, false, nullptr, 0), CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x20000, false, nullptr, 0), CacheOutcome::Miss);
    // mshrEntries = 2: a third distinct line rejects.
    EXPECT_EQ(c->access(0x30000, false, nullptr, 0),
              CacheOutcome::RejectMshrFull);
}

TEST_F(CacheFixture, LruEviction)
{
    // 1KB, 2-way, 128B lines -> 4 sets. Lines mapping to set 0:
    // line numbers 0, 4, 8 (line % 4 == 0).
    auto c = make();
    auto touch = [&](std::uint64_t line, std::uint64_t now) {
        if (c->access(line * 128, false, nullptr, now) ==
            CacheOutcome::Miss) {
            c->tick(now);
            c->fill(line, now);
        }
    };
    touch(0, 0);
    touch(4, 1);
    // Re-touch line 0 so line 4 is LRU.
    EXPECT_EQ(c->access(0, false, nullptr, 2), CacheOutcome::Hit);
    // Insert line 8: evicts line 4.
    touch(8, 3);
    EXPECT_EQ(c->access(0, false, nullptr, 4), CacheOutcome::Hit);
    EXPECT_EQ(c->access(8 * 128, false, nullptr, 5), CacheOutcome::Hit);
    EXPECT_EQ(c->access(4 * 128, false, nullptr, 6), CacheOutcome::Miss);
}

TEST_F(CacheFixture, WriteThroughNoAllocate)
{
    auto c = make();
    int done = 0;
    EXPECT_EQ(c->access(0x4000, true, [&] { ++done; }, 0),
              CacheOutcome::Hit);
    c->tick(0);
    ASSERT_EQ(lowered.size(), 1u);
    EXPECT_TRUE(lowered[0].second); // write packet forwarded
    c->tick(4);
    EXPECT_EQ(done, 1);
    // Write did not allocate: read still misses.
    EXPECT_EQ(c->access(0x4000, false, nullptr, 5), CacheOutcome::Miss);
    EXPECT_EQ(stats.get("c.writes"), 1.0);
}

TEST_F(CacheFixture, BackpressureHoldsMissQueue)
{
    auto c = make();
    bool accept = false;
    c->setSendLower([&](std::uint64_t, bool, std::uint64_t) {
        return accept;
    });
    EXPECT_EQ(c->access(0x5000, false, nullptr, 0), CacheOutcome::Miss);
    c->tick(0);
    EXPECT_FALSE(c->idle()); // miss stuck in queue
    accept = true;
    c->tick(1);
    c->fill(0x5000 / 128, 2);
    c->tick(2);
    EXPECT_TRUE(c->idle());
}

TEST_F(CacheFixture, RetriedAccessNotDoubleCounted)
{
    auto c = make();
    EXPECT_EQ(c->access(0x10000, false, nullptr, 0), CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x20000, false, nullptr, 0), CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x30000, false, nullptr, 0),
              CacheOutcome::RejectMshrFull);
    EXPECT_EQ(stats.get("c.accesses"), 2.0); // reject not counted
}

// --- MemCompletion: the in-place completion callable -----------------

TEST(MemCompletion, EmptyAndNullptrAreFalse)
{
    EXPECT_FALSE(MemCompletion{});
    EXPECT_FALSE(MemCompletion{nullptr});
}

TEST(MemCompletion, HoldsAReferenceCapture)
{
    int done = 0;
    const MemCompletion c = [&] { ++done; };
    ASSERT_TRUE(c);
    c();
    const MemCompletion copy = c; // copies share the captured reference
    copy();
    EXPECT_EQ(done, 2);
}

TEST(MemCompletion, HoldsAFullSizeCapture)
{
    // The largest capture the simulator makes: two pointers and a mask.
    struct Sink
    {
        std::uint64_t sum = 0;
        unsigned calls = 0;
    } sink;
    std::uint64_t extra = 5;
    std::uint64_t *px = &extra;
    const std::uint32_t mask = 0x80000001u;
    const auto fn = [s = &sink, px, mask]() {
        s->sum += *px + mask;
        ++s->calls;
    };
    static_assert(sizeof(fn) == MemCompletion::kCaptureBytes);
    MemCompletion c = fn;
    MemCompletion moved = std::move(c);
    moved();
    EXPECT_EQ(sink.calls, 1u);
    EXPECT_EQ(sink.sum, 5u + 0x80000001u);
    // Reassigning replaces the callable; nullptr empties it.
    moved = [s = &sink] { s->calls += 10; };
    moved();
    EXPECT_EQ(sink.calls, 11u);
    moved = nullptr;
    EXPECT_FALSE(moved);
}

TEST_F(CacheFixture, CompletionFiresThroughReadyQueue)
{
    auto c = make();
    int done = 0;
    EXPECT_EQ(c->access(0x7000, true, [&] { ++done; }, 0),
              CacheOutcome::Hit);
    for (std::uint64_t t = 0; t <= params.hitLatency; ++t)
        c->tick(t);
    EXPECT_EQ(done, 1);
}

} // namespace
} // namespace hsu
