/**
 * @file
 * LSU tests: intra-warp coalescing, group completion semantics, and
 * parked heads counting exactly what probing every cycle would.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hh"
#include "common/stats.hh"
#include "sim/lsu.hh"

namespace hsu
{
namespace
{

/** Coalesce @p op into a fresh buffer. */
std::vector<std::uint64_t>
coalesced(const WarpTrace &wt, const TraceOp &op, unsigned line_bytes)
{
    std::vector<std::uint64_t> lines;
    coalesceLines(wt, op, line_bytes, lines);
    return lines;
}

TEST(Coalesce, PatternLoadOneLine)
{
    WarpTrace wt;
    TraceBuilder tb(wt);
    tb.loadPattern(0x1000, 4, 4); // 32 lanes x 4B = 128B
    const auto lines = coalesced(wt, wt.ops[0], 128);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u / 128);
}

TEST(Coalesce, StridedLoadManyLines)
{
    WarpTrace wt;
    TraceBuilder tb(wt);
    tb.loadPattern(0x1000, 128, 4); // one line per lane
    EXPECT_EQ(coalesced(wt, wt.ops[0], 128).size(), 32u);
}

TEST(Coalesce, InactiveLanesSkipped)
{
    WarpTrace wt;
    TraceBuilder tb(wt);
    tb.loadPattern(0x1000, 128, 4, 0x0000000f); // 4 lanes
    EXPECT_EQ(coalesced(wt, wt.ops[0], 128).size(), 4u);
}

TEST(Coalesce, StraddlingAccessTouchesBothLines)
{
    WarpTrace wt;
    TraceBuilder tb(wt);
    // One lane, 8 bytes starting 4 bytes before a line boundary.
    std::uint64_t addrs[kWarpSize] = {};
    addrs[0] = 128 - 4;
    tb.loadGather(addrs, 8, 0x1);
    const auto lines = coalesced(wt, wt.ops[0], 128);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], 1u);
}

TEST(Coalesce, DuplicateAddressesDeduplicated)
{
    WarpTrace wt;
    TraceBuilder tb(wt);
    std::uint64_t addrs[kWarpSize];
    for (unsigned l = 0; l < kWarpSize; ++l)
        addrs[l] = 0x2000; // all lanes same address
    tb.loadGather(addrs, 4, kFullMask);
    EXPECT_EQ(coalesced(wt, wt.ops[0], 128).size(), 1u);
}

/** The per-call coalescer the SM used before warps kept a buffer. */
std::vector<std::uint64_t>
referenceLines(const WarpTrace &trace, const TraceOp &op,
               unsigned line_bytes)
{
    std::vector<std::uint64_t> lines;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(op.activeMask & (1u << lane)))
            continue;
        const std::uint64_t addr = trace.laneAddr(op, lane);
        for (std::uint64_t l = addr / line_bytes;
             l <= (addr + op.bytesPerLane - 1) / line_bytes; ++l) {
            lines.push_back(l);
        }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return lines;
}

TEST(Coalesce, ReusedBufferMatchesPerCallResult)
{
    // One buffer serves every op in turn, as a warp's does: it must
    // hold exactly each op's lines, whatever the previous op left.
    WarpTrace wt;
    TraceBuilder tb(wt);
    Rng rng(41);
    for (int i = 0; i < 400; ++i) {
        const auto mask = static_cast<std::uint32_t>(
            i % 4 == 0 ? kFullMask : rng.nextBounded(1ull << 32));
        const auto bytes =
            static_cast<unsigned>(1 + rng.nextBounded(i % 3 == 0 ? 300 : 16));
        if (i % 2 == 0) {
            // Pattern: dense, strided, negative and zero strides.
            const std::int32_t strides[] = {4, 8, 128, 132, -4, 0, 260};
            tb.loadPattern(0x100000 + rng.nextBounded(1 << 16),
                           strides[rng.nextBounded(7)], bytes, mask);
        } else {
            // Gather: clustered addresses so lanes share, straddle and
            // duplicate lines.
            std::uint64_t addrs[kWarpSize];
            for (auto &a : addrs)
                a = 0x200000 + rng.nextBounded(i % 3 == 0 ? 64 : 2048);
            tb.loadGather(addrs, bytes, mask);
        }
    }
    std::vector<std::uint64_t> buffer;
    for (const unsigned line_bytes : {32u, 128u}) {
        for (const TraceOp &op : wt.ops) {
            coalesceLines(wt, op, line_bytes, buffer);
            ASSERT_EQ(buffer, referenceLines(wt, op, line_bytes));
        }
    }
}

TEST(Coalesce, PartialMaskStraddleAndDuplicates)
{
    WarpTrace wt;
    TraceBuilder tb(wt);
    std::uint64_t addrs[kWarpSize] = {};
    addrs[0] = 128 - 4;  // straddles lines 0 and 1
    addrs[1] = 128 - 4;  // duplicate of lane 0
    addrs[2] = 1000;     // line 7
    addrs[3] = 129;      // line 1 again
    addrs[4] = 5000;     // masked off
    tb.loadGather(addrs, 8, 0x0000000f);
    std::vector<std::uint64_t> buffer = {99, 98, 97}; // stale contents
    coalesceLines(wt, wt.ops[0], 128, buffer);
    EXPECT_EQ(buffer, (std::vector<std::uint64_t>{0, 1, 7}));
}

struct LsuFixture : public ::testing::Test
{
    StatGroup stats;
    CacheParams cp{.name = "l1", .sizeBytes = 8192, .assoc = 4,
                   .lineBytes = 128, .hitLatency = 3, .mshrEntries = 8,
                   .mshrMergesPerEntry = 4, .missQueueCapacity = 8};
    Cache l1{cp, stats};
    Lsu lsu{8, l1, stats, "lsu"};
    std::uint64_t now = 0;

    LsuFixture()
    {
        l1.setSendLower([this](std::uint64_t line, bool write,
                               std::uint64_t t) {
            if (!write)
                fills.emplace_back(t + 15, line);
            return true;
        });
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> fills;

    void
    tickAll(bool grant = true)
    {
        for (auto it = fills.begin(); it != fills.end();) {
            if (it->first <= now) {
                l1.fill(it->second, now);
                it = fills.erase(it);
            } else {
                ++it;
            }
        }
        l1.tick(now);
        lsu.tick(grant, now);
        ++now;
    }
};

TEST_F(LsuFixture, GroupCompletesWhenAllLinesReturn)
{
    int done = 0;
    ASSERT_TRUE(lsu.issue({10, 11, 12}, false, [&] { ++done; }));
    for (int i = 0; i < 100 && done == 0; ++i)
        tickAll();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(stats.get("lsu.line_reqs"), 3.0);
    EXPECT_EQ(stats.get("lsu.mem_instrs"), 1.0);
}

TEST_F(LsuFixture, GroupSlotFiresOnceThenIsReused)
{
    int done = 0;
    ASSERT_TRUE(lsu.issue({20, 21}, false, [&] { ++done; }));
    EXPECT_EQ(lsu.groupSlots(), 1u);
    // Tick until the first line has come back but not the second.
    std::uint64_t first_back = 0;
    for (int i = 0; i < 100 && done == 0; ++i) {
        tickAll();
        if (first_back == 0 && stats.get("l1.misses") == 2.0 &&
            fills.size() == 1) {
            first_back = now;
            EXPECT_EQ(done, 0) << "fired before its last line returned";
        }
    }
    EXPECT_NE(first_back, 0u) << "lines never returned one at a time";
    EXPECT_EQ(done, 1);
    for (int i = 0; i < 50; ++i)
        tickAll();
    EXPECT_EQ(done, 1) << "fired more than once";

    // The freed slot serves the next instruction: no new slot.
    int again = 0;
    ASSERT_TRUE(lsu.issue({30}, false, [&] { ++again; }));
    EXPECT_EQ(lsu.groupSlots(), 1u);
    for (int i = 0; i < 100 && again == 0; ++i)
        tickAll();
    EXPECT_EQ(again, 1);
    EXPECT_EQ(done, 1);
}

TEST_F(LsuFixture, HasRoomTracksQueueOccupancy)
{
    EXPECT_TRUE(lsu.hasRoom(8));
    EXPECT_FALSE(lsu.hasRoom(9));
    ASSERT_TRUE(lsu.issue({1, 2, 3}, false, nullptr));
    EXPECT_TRUE(lsu.hasRoom(5));
    EXPECT_FALSE(lsu.hasRoom(6));
    EXPECT_TRUE(lsu.tick(true, now)); // the L1 takes the head request
    EXPECT_TRUE(lsu.hasRoom(6));
    EXPECT_FALSE(lsu.tick(false, now)); // no port, no pop
}

TEST_F(LsuFixture, QueueCapacityRefusesOversizedIssue)
{
    std::vector<std::uint64_t> many;
    for (std::uint64_t i = 0; i < 9; ++i)
        many.push_back(100 + i);
    EXPECT_FALSE(lsu.issue(many, false, nullptr)); // queue cap 8
    std::vector<std::uint64_t> fits(many.begin(), many.begin() + 8);
    EXPECT_TRUE(lsu.issue(fits, false, nullptr));
    EXPECT_FALSE(lsu.issue({500}, false, nullptr)); // now full
}

TEST_F(LsuFixture, NoPortNoDrain)
{
    ASSERT_TRUE(lsu.issue({42}, false, nullptr));
    for (int i = 0; i < 20; ++i)
        tickAll(false);
    EXPECT_TRUE(lsu.wantsAccess());
    for (int i = 0; i < 100 && lsu.wantsAccess(); ++i)
        tickAll(true);
    EXPECT_FALSE(lsu.wantsAccess());
}

TEST_F(LsuFixture, WritesFireAndForget)
{
    int done = 0;
    ASSERT_TRUE(lsu.issue({7}, true, [&] { ++done; }));
    for (int i = 0; i < 50 && done == 0; ++i)
        tickAll();
    EXPECT_EQ(done, 1);
}

// A parked head skips the L1 until a fill or a pop could change its
// answer, but counts every granted cycle as the refusal the L1 would
// have given. Drive one LSU and a reference requester that asks the L1
// on every granted cycle (the unparked behaviour) through the same
// script: a downstream that refuses for a window, fills a fixed delay
// after each send, and a port granted only on some cycles. Tiny MSHR,
// merge and miss-queue limits reach every refusal kind.
TEST(LsuParking, CountsMatchProbingEveryCycle)
{
    const CacheParams cp{.name = "l1", .sizeBytes = 8192, .assoc = 4,
                         .lineBytes = 128, .hitLatency = 3,
                         .mshrEntries = 2, .mshrMergesPerEntry = 1,
                         .missQueueCapacity = 1};
    // Lines with repeats (merges) and a store in the middle.
    const std::vector<std::uint64_t> loads = {1, 2, 2, 3, 1, 4, 5, 5, 6,
                                              7, 7, 8, 2, 9, 10, 11};

    struct Side
    {
        StatGroup stats;
        Cache l1;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> fills;
        explicit Side(const CacheParams &p) : l1(p, stats) {}

        void
        wire(std::uint64_t &now)
        {
            l1.setSendLower([this, &now](std::uint64_t line, bool write,
                                         std::uint64_t) {
                // Refusal window: nothing leaves the L1 in [20, 60).
                if (now >= 20 && now < 60)
                    return false;
                if (!write)
                    fills.emplace_back(now + 25, line);
                return true;
            });
        }

        void
        memTick(std::uint64_t now)
        {
            for (auto it = fills.begin(); it != fills.end();) {
                if (it->first <= now) {
                    l1.fill(it->second, now);
                    it = fills.erase(it);
                } else {
                    ++it;
                }
            }
            l1.tick(now);
        }
    };
    const auto granted = [](std::uint64_t now) {
        return now % 3 != 0; // the RT unit's share of the port
    };

    std::uint64_t now = 0;
    Side parked(cp);
    parked.wire(now);
    Lsu lsu(64, parked.l1, parked.stats, "lsu");
    std::vector<std::uint64_t> group;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        group.assign(1, loads[i]);
        ASSERT_TRUE(lsu.issue(group, i == 6, nullptr));
    }
    unsigned parked_cycles = 0;
    for (now = 0; now < 400; ++now) {
        parked.memTick(now);
        if (lsu.wantsAccess() && lsu.parked() && granted(now))
            ++parked_cycles;
        lsu.tick(granted(now), now);
    }
    EXPECT_TRUE(lsu.drained());
    EXPECT_GT(parked_cycles, 50u) << "the script never parked the head";

    Side probing(cp);
    probing.wire(now);
    std::deque<std::pair<std::uint64_t, bool>> queue;
    for (std::size_t i = 0; i < loads.size(); ++i)
        queue.emplace_back(loads[i], i == 6);
    double port_cycles = 0;
    double retries = 0;
    for (now = 0; now < 400; ++now) {
        probing.memTick(now);
        if (!granted(now) || queue.empty())
            continue;
        ++port_cycles;
        const CacheOutcome out = probing.l1.access(
            queue.front().first * cp.lineBytes, queue.front().second,
            nullptr, now);
        if (out == CacheOutcome::RejectMshrFull ||
            out == CacheOutcome::RejectQueueFull) {
            ++retries;
        } else {
            queue.pop_front();
        }
    }
    EXPECT_TRUE(queue.empty());

    EXPECT_EQ(parked.stats.get("lsu.retries"), retries);
    EXPECT_EQ(parked.stats.get("lsu.port_cycles"), port_cycles);
    EXPECT_EQ(parked.stats.get("l1.rejects"), probing.stats.get("l1.rejects"));
    EXPECT_EQ(parked.stats.get("l1.rejects"), retries);
    EXPECT_EQ(parked.stats.get("l1.accesses"),
              probing.stats.get("l1.accesses"));
    EXPECT_GT(retries, 50.0);
}

TEST(LsuParking, ParkedHeadIsNoEventUntilTheGenerationMoves)
{
    StatGroup stats;
    const CacheParams cp{.name = "l1", .sizeBytes = 8192, .assoc = 4,
                         .lineBytes = 128, .hitLatency = 3,
                         .mshrEntries = 1, .mshrMergesPerEntry = 1,
                         .missQueueCapacity = 4};
    Cache l1(cp, stats);
    l1.setSendLower([](std::uint64_t, bool, std::uint64_t) { return true; });
    Lsu lsu(8, l1, stats, "lsu");
    ASSERT_TRUE(lsu.issue({1, 2}, false, nullptr));
    EXPECT_EQ(lsu.nextEventCycle(0), 1u);
    EXPECT_TRUE(lsu.tick(true, 0)); // line 1 takes the only MSHR
    EXPECT_FALSE(lsu.tick(true, 1)); // line 2 refused: parked
    EXPECT_TRUE(lsu.parked());
    EXPECT_EQ(lsu.nextEventCycle(1), kNeverCycle);
    EXPECT_FALSE(lsu.tick(true, 2));
    EXPECT_EQ(stats.get("l1.rejects"), 2.0);
    lsu.accountParkedGrants(5); // five skipped grants
    EXPECT_EQ(stats.get("l1.rejects"), 7.0);
    EXPECT_EQ(stats.get("lsu.retries"), 7.0);
    EXPECT_EQ(stats.get("lsu.port_cycles"), 8.0);
    l1.tick(3); // pops line 1's miss: the generation moves
    EXPECT_FALSE(lsu.parked());
    EXPECT_EQ(lsu.nextEventCycle(3), 4u);
    EXPECT_FALSE(lsu.tick(true, 4)); // asks, and is refused again
    EXPECT_TRUE(lsu.parked());
    l1.fill(1, 5);
    EXPECT_FALSE(lsu.parked());
    EXPECT_TRUE(lsu.tick(true, 5));
    EXPECT_TRUE(lsu.drained());
    EXPECT_EQ(lsu.nextEventCycle(5), kNeverCycle);
}

} // namespace
} // namespace hsu
