/**
 * @file
 * FR-FCFS DRAM model tests: row-hit prioritization, bank mapping,
 * locality accounting, completion order, and drain behaviour.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "mem/dram.hh"

namespace hsu
{
namespace
{

DramParams
smallParams()
{
    DramParams p;
    p.banks = 4;
    p.linesPerRow = 4;
    p.rowHitLatency = 5;
    p.rowMissLatency = 20;
    p.bankCycleTime = 2;
    return p;
}

void
runUntilIdle(Dram &dram, std::uint64_t &now, std::uint64_t limit = 10000)
{
    while (!dram.idle()) {
        dram.tick(now);
        ASSERT_LT(++now, limit);
    }
}

TEST(Dram, SingleAccessCompletes)
{
    StatGroup stats;
    Dram dram(smallParams(), stats);
    int done = 0;
    dram.enqueue(0, false, [&] { ++done; }, 0);
    std::uint64_t now = 0;
    runUntilIdle(dram, now);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(stats.get("dram.accesses"), 1.0);
    EXPECT_EQ(stats.get("dram.activations"), 1.0); // cold row
    EXPECT_EQ(stats.get("dram.row_hits"), 0.0);
}

TEST(Dram, RowHitsAfterActivation)
{
    StatGroup stats;
    Dram dram(smallParams(), stats);
    // Lines 0, 4, 8 on bank 0 share row 0 (linesPerRow=4, 4 banks:
    // bank = line % 4, row = (line / 4) / 4).
    int done = 0;
    for (std::uint64_t line : {0ull, 4ull, 8ull})
        dram.enqueue(line, false, [&] { ++done; }, 0);
    std::uint64_t now = 0;
    runUntilIdle(dram, now);
    EXPECT_EQ(done, 3);
    EXPECT_EQ(stats.get("dram.activations"), 1.0);
    EXPECT_EQ(stats.get("dram.row_hits"), 2.0);
    EXPECT_NEAR(dram.rowLocality(), 3.0, 1e-9);
}

TEST(Dram, FrFcfsPrioritizesOpenRow)
{
    StatGroup stats;
    Dram dram(smallParams(), stats);
    std::vector<int> order;
    // Same bank (line % 4 == 0): rows 0, 1, 0.
    dram.enqueue(0, false, [&] { order.push_back(0); }, 0);
    dram.enqueue(16, false, [&] { order.push_back(1); }, 0);
    dram.enqueue(4, false, [&] { order.push_back(2); }, 0);
    std::uint64_t now = 0;
    runUntilIdle(dram, now);
    // Request 2 (row 0) jumps the older row-1 request.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 1);
}

TEST(Dram, BanksServiceInParallel)
{
    StatGroup stats;
    DramParams p = smallParams();
    Dram dram(p, stats);
    int done = 0;
    // Four requests on four different banks.
    for (std::uint64_t line = 0; line < 4; ++line)
        dram.enqueue(line, false, [&] { ++done; }, 0);
    std::uint64_t now = 0;
    // All four finish within one row-miss latency + slack because the
    // banks overlap.
    while (!dram.idle() && now < p.rowMissLatency + 5) {
        dram.tick(now);
        ++now;
    }
    EXPECT_EQ(done, 4);
}

TEST(Dram, WritesAffectRowBuffer)
{
    StatGroup stats;
    Dram dram(smallParams(), stats);
    dram.enqueue(0, true, MemCompletion{}, 0);
    dram.enqueue(4, false, MemCompletion{}, 0); // row hit after write
    std::uint64_t now = 0;
    runUntilIdle(dram, now);
    EXPECT_EQ(stats.get("dram.row_hits"), 1.0);
}

TEST(Dram, LocalityZeroWithoutTraffic)
{
    StatGroup stats;
    Dram dram(smallParams(), stats);
    EXPECT_EQ(dram.rowLocality(), 0.0);
    EXPECT_TRUE(dram.idle());
}

TEST(Dram, NonPowerOfTwoBanksPanics)
{
    StatGroup stats;
    DramParams p = smallParams();
    p.banks = 3;
    EXPECT_DEATH(Dram(p, stats), "power of two");
}

// Completions fire in (ready, seq) order although row hits and row
// misses wait in separate FIFO streams: a row hit started after a row
// miss, but due before it, fires first; equal ready cycles fire in the
// order the services started.
TEST(Dram, CompletionsFireInReadySeqOrder)
{
    StatGroup stats;
    Dram dram(smallParams(), stats); // row hit 5, row miss 20
    std::vector<std::pair<int, std::uint64_t>> fired; // (id, cycle)
    std::uint64_t now = 0;
    const auto enqueue = [&](std::uint64_t line, int id) {
        dram.enqueue(line, false, [&fired, &now, id] {
            fired.emplace_back(id, now);
        }, now);
    };
    // bank = line % 4, row = line / 16: lines 0 and 4 share bank 0's
    // row 0.
    for (now = 0; now < 60; ++now) {
        if (now == 0) {
            enqueue(0, 0); // bank 0, miss: due 20
            enqueue(1, 1); // bank 1, miss: due 20, started after bank 0
        }
        if (now == 5)
            enqueue(2, 2); // bank 2, miss: due 25
        if (now == 19)
            enqueue(3, 3); // bank 3, miss: due 39
        if (now == 20)
            enqueue(4, 4); // bank 0, row hit: due 25, after id 2's
        dram.tick(now);
    }
    const std::vector<std::pair<int, std::uint64_t>> expected = {
        {0, 20}, {1, 20}, {2, 25}, {4, 25}, {3, 39}};
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(stats.get("dram.row_hits"), 1.0);
    EXPECT_TRUE(dram.idle());
}

TEST(Dram, NextEventCoversQueuedBanksAndCompletions)
{
    StatGroup stats;
    Dram dram(smallParams(), stats);
    EXPECT_EQ(dram.nextEventCycle(0), kNeverCycle);
    dram.enqueue(0, false, MemCompletion{}, 0);
    dram.enqueue(4, true, MemCompletion{}, 0); // same bank, queued behind
    EXPECT_EQ(dram.nextEventCycle(0), 1u); // a free bank with work
    dram.tick(1); // line 0 starts: bank 0 busy until 21
    EXPECT_FALSE(dram.idle());
    EXPECT_EQ(dram.nextEventCycle(1), 21u);
    dram.tick(21); // line 0 done; line 4 (row hit) starts, due 26
    EXPECT_EQ(dram.nextEventCycle(21), 26u);
    dram.tick(26);
    EXPECT_TRUE(dram.idle());
    EXPECT_EQ(dram.nextEventCycle(26), kNeverCycle);
}

TEST(Dram, ManyBanksVisitedInAscendingOrder)
{
    // More banks than one 64-bit word of the queued-bank mask holds.
    StatGroup stats;
    DramParams p = smallParams();
    p.banks = 128;
    Dram dram(p, stats);
    std::vector<int> fired;
    for (const int bank : {127, 3, 64, 0, 65, 63})
        dram.enqueue(static_cast<std::uint64_t>(bank), false,
                     [&fired, bank] { fired.push_back(bank); }, 0);
    std::uint64_t now = 0;
    runUntilIdle(dram, now);
    // All start at cycle 0 and are due together: bank order.
    EXPECT_EQ(fired, (std::vector<int>{0, 3, 63, 64, 65, 127}));
}

} // namespace
} // namespace hsu
