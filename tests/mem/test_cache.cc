/**
 * @file
 * Cache model tests: hit/miss classification, LRU replacement, MSHR
 * merging and structural rejection, write-through behaviour, the free
 * generation that parked requests wait on, completion order and the
 * MSHR index.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
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

// --- The free generation: what un-parks a refused request -----------

TEST_F(CacheFixture, FreeGenerationMovesOnFillAndPopOnly)
{
    auto c = make();
    bool accept = false;
    c->setSendLower([&](std::uint64_t, bool, std::uint64_t) {
        return accept;
    });
    int done = 0;
    const std::uint64_t g0 = c->freeGeneration();
    // Accesses of every outcome, and ticks that pop nothing, leave it.
    EXPECT_EQ(c->access(0x1000, false, [&] { ++done; }, 0),
              CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x1004, false, [&] { ++done; }, 0),
              CacheOutcome::HitReserved);
    EXPECT_EQ(c->access(0x1008, false, nullptr, 0),
              CacheOutcome::RejectMshrFull); // two merges per entry
    EXPECT_EQ(c->access(0x2000, false, nullptr, 0), CacheOutcome::Miss);
    EXPECT_EQ(c->access(0x3000, false, nullptr, 0),
              CacheOutcome::RejectMshrFull); // two entries
    EXPECT_EQ(c->access(0x4000, true, [&] { ++done; }, 0),
              CacheOutcome::Hit);
    EXPECT_EQ(c->access(0x5000, true, nullptr, 0), CacheOutcome::Hit);
    EXPECT_EQ(c->access(0x6000, true, nullptr, 0),
              CacheOutcome::RejectQueueFull); // four queued
    c->tick(1);
    c->tick(4); // fires the write's completion, pops nothing
    EXPECT_EQ(done, 1);
    EXPECT_EQ(c->freeGeneration(), g0);

    // Each pop moves it by one.
    accept = true;
    c->tick(5);
    EXPECT_EQ(c->freeGeneration(), g0 + 4);
    c->tick(6); // empty queue: no pop
    EXPECT_EQ(c->freeGeneration(), g0 + 4);

    // Each fill moves it by one; the completions it fires do not.
    c->fill(0x1000 / 128, 7);
    EXPECT_EQ(c->freeGeneration(), g0 + 5);
    c->tick(7);
    EXPECT_EQ(done, 3);
    EXPECT_EQ(c->freeGeneration(), g0 + 5);
    EXPECT_EQ(c->access(0x1000, false, nullptr, 8), CacheOutcome::Hit);
    c->fill(0x2000 / 128, 9);
    EXPECT_EQ(c->freeGeneration(), g0 + 6);
    EXPECT_TRUE(c->idle());
}

// Whatever else happens, a request the cache refused at generation g is
// refused again, the same way, while the generation is still g. Random
// traffic over a tiny cache with a flaky downstream reaches all four
// refusal kinds; every refused request is re-probed after each later
// step until the generation moves.
TEST_F(CacheFixture, RefusalHoldsWhileGenerationHolds)
{
    params.mshrEntries = 3;
    params.mshrMergesPerEntry = 2;
    params.missQueueCapacity = 3;
    auto c = make();
    Rng rng(7);
    std::vector<std::uint64_t> sent; // read lines sent down, unfilled
    c->setSendLower([&](std::uint64_t line, bool write, std::uint64_t) {
        if (rng.nextBounded(3) != 0)
            return false;
        if (!write)
            sent.push_back(line);
        return true;
    });

    struct Parked
    {
        std::uint64_t addr;
        bool write;
        CacheOutcome outcome;
        std::uint64_t gen;
    };
    std::vector<Parked> parked;
    std::set<std::uint64_t> pending; // lines holding an MSHR entry
    std::map<std::string, unsigned> kinds;
    std::uint64_t now = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto op = rng.nextBounded(10);
        if (op < 6) {
            // Twelve lines, three per two-way set: hits, evictions,
            // merges, misses and writes.
            const std::uint64_t line = rng.nextBounded(12);
            const bool write = rng.nextBounded(4) == 0;
            const CacheOutcome out =
                c->access(line * 128, write, nullptr, now);
            if (out == CacheOutcome::Miss)
                pending.insert(line);
            if (out == CacheOutcome::RejectMshrFull ||
                out == CacheOutcome::RejectQueueFull) {
                parked.push_back(
                    {line * 128, write, out, c->freeGeneration()});
                ++kinds[write ? "write queue-full"
                        : out == CacheOutcome::RejectQueueFull
                            ? "read queue-full"
                        : pending.count(line) != 0 ? "merge-full"
                                                   : "mshr-full"];
            }
        } else if (op < 8) {
            c->tick(now++);
        } else if (!sent.empty()) {
            const auto i = rng.nextBounded(sent.size());
            c->fill(sent[i], now);
            pending.erase(sent[i]);
            sent.erase(sent.begin() + static_cast<std::ptrdiff_t>(i));
        }
        std::erase_if(parked, [&](const Parked &p) {
            return p.gen != c->freeGeneration();
        });
        for (const Parked &p : parked) {
            ASSERT_EQ(c->access(p.addr, p.write, nullptr, now), p.outcome)
                << "step " << step << " addr " << p.addr;
        }
    }
    for (const char *kind : {"merge-full", "mshr-full", "read queue-full",
                             "write queue-full"}) {
        EXPECT_GT(kinds[kind], 20u) << kind;
    }
}

TEST_F(CacheFixture, ObserverFiresOnPopWithoutCompletion)
{
    auto c = make();
    int observed = 0;
    c->setCompletionObserver([&] { ++observed; });
    // A read miss with nobody waiting: its pop fires no completion.
    EXPECT_EQ(c->access(0x1000, false, nullptr, 0), CacheOutcome::Miss);
    c->tick(0);
    EXPECT_EQ(lowered.size(), 1u);
    EXPECT_EQ(observed, 1);
    c->tick(1); // nothing happened
    EXPECT_EQ(observed, 1);
    // A fill whose only waiter is empty fires nothing either.
    c->fill(0x1000 / 128, 2);
    c->tick(2);
    EXPECT_EQ(observed, 2);
    c->tick(3);
    EXPECT_EQ(observed, 2);
}

// Hits complete hitLatency after the access, fills at the fill cycle:
// two streams. When their heads fall due in the same cycle, the one
// queued first (smaller seq) fires first, as one (ready, seq) heap
// would order them.
TEST_F(CacheFixture, SameCycleHitAndFillFireInReadySeqOrder)
{
    std::vector<std::string> order;
    const auto run = [&](unsigned hit_latency) {
        params.hitLatency = hit_latency;
        order.clear();
        auto c = make();
        // Make line 0x8000 resident.
        EXPECT_EQ(c->access(0x8000, false, nullptr, 0), CacheOutcome::Miss);
        c->fill(0x8000 / 128, 0);
        EXPECT_EQ(c->access(0x1000, false, [&] { order.push_back("fill"); },
                            1),
                  CacheOutcome::Miss);
        const std::uint64_t due = 10;
        if (hit_latency > 0) {
            // The hit is queued at due - latency, before the fill.
            EXPECT_EQ(c->access(0x8000, false,
                                [&] { order.push_back("hit"); },
                                due - hit_latency),
                      CacheOutcome::Hit);
            c->fill(0x1000 / 128, due);
        } else {
            c->fill(0x1000 / 128, due);
            EXPECT_EQ(c->access(0x8000, false,
                                [&] { order.push_back("hit"); }, due),
                      CacheOutcome::Hit);
        }
        c->tick(due - 1);
        EXPECT_TRUE(order.empty());
        c->tick(due);
    };
    run(4);
    EXPECT_EQ(order, (std::vector<std::string>{"hit", "fill"}));
    run(0);
    EXPECT_EQ(order, (std::vector<std::string>{"fill", "hit"}));
}

TEST_F(CacheFixture, StreamsInterleaveByReadyCycle)
{
    params.mshrEntries = 4;
    auto c = make();
    std::vector<int> order;
    EXPECT_EQ(c->access(0x8000, false, nullptr, 0), CacheOutcome::Miss);
    c->fill(0x8000 / 128, 0);
    for (const int line : {1, 2})
        c->access(0x10000 * line, false, [&order, line] {
            order.push_back(line);
        }, 1);
    c->access(0x10000, false, [&order] { order.push_back(11); }, 1);
    // Hit queued at 3 (due 7), fills at 5 and 9.
    c->access(0x8000, false, [&order] { order.push_back(0); }, 3);
    c->fill(0x10000 / 128, 5);
    c->fill(0x20000 / 128, 9);
    for (std::uint64_t t = 5; t <= 9; ++t)
        c->tick(t);
    // Line 1's two waiters keep their merge order.
    EXPECT_EQ(order, (std::vector<int>{1, 11, 0, 2}));
}

// --- The MSHR index ----------------------------------------------------

TEST(MshrIndex, MatchesMapUnderForcedCollisions)
{
    const unsigned entries = 8;
    MshrIndex index(entries);
    ASSERT_EQ(index.buckets(), 16u);
    // Lines homed on the last bucket, the first one (probes wrap) and
    // one in the middle, so every probe run collides and most erases
    // shift entries back, some across the wrap.
    std::vector<std::uint64_t> pool;
    std::map<std::size_t, unsigned> per_home;
    for (std::uint64_t line = 0; pool.size() < 30; ++line) {
        const std::size_t home = index.homeBucket(line);
        if ((home == 15 || home == 0 || home == 7) && per_home[home]++ < 10)
            pool.push_back(line);
    }

    std::map<std::uint64_t, std::uint32_t> oracle;
    Rng rng(3);
    std::uint32_t next_slot = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t line = pool[rng.nextBounded(pool.size())];
        const bool mapped = oracle.count(line) != 0;
        if (!mapped && oracle.size() < entries && rng.nextBounded(2) == 0) {
            index.insert(line, next_slot);
            oracle[line] = next_slot++;
        } else {
            const std::uint32_t slot = index.erase(line);
            EXPECT_EQ(slot, mapped ? oracle[line] : MshrIndex::kNoSlot);
            oracle.erase(line);
        }
        for (const std::uint64_t l : pool) {
            const auto it = oracle.find(l);
            ASSERT_EQ(index.find(l),
                      it == oracle.end() ? MshrIndex::kNoSlot : it->second)
                << "step " << step << " line " << l;
        }
    }
}

TEST(MshrIndex, TableIsAPowerOfTwoAtLeastTwiceTheEntries)
{
    for (const unsigned entries : {1u, 2u, 3u, 32u, 100u, 128u}) {
        const MshrIndex index(entries);
        EXPECT_GE(index.buckets(), 2u * entries);
        EXPECT_EQ(index.buckets() & (index.buckets() - 1), 0u);
        EXPECT_LT(index.homeBucket(~0ull), index.buckets());
    }
}

TEST_F(CacheFixture, MshrFileReusesSlotsAcrossFills)
{
    // Far more misses over a run than MSHR slots: each fill returns its
    // slot, and every waiter fires exactly once.
    auto c = make();
    int done = 0;
    std::uint64_t now = 0;
    for (std::uint64_t line = 1; line <= 50; ++line, ++now) {
        ASSERT_EQ(c->access(line * 128 * 4, false, [&] { ++done; }, now),
                  CacheOutcome::Miss);
        ASSERT_EQ(c->access(line * 128 * 4 + 8, false, [&] { ++done; },
                            now),
                  CacheOutcome::HitReserved);
        EXPECT_EQ(c->mshrInUse(), 1u);
        c->tick(now);
        c->fill(line * 4, now);
        EXPECT_EQ(c->mshrInUse(), 0u);
        c->tick(now);
    }
    EXPECT_EQ(done, 100);
    EXPECT_TRUE(c->idle());
}

} // namespace
} // namespace hsu
