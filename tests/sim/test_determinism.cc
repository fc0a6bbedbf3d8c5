/**
 * @file
 * Simulator determinism and conservation properties: identical runs
 * produce identical cycle counts and counters; memory-system counters
 * balance; scheduler policies behave as configured.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "search/runner.hh"
#include "sim/gpu.hh"

namespace hsu
{
namespace
{

KernelTrace
mixedTrace(unsigned warps, std::uint64_t seed)
{
    Rng rng(seed);
    KernelTrace kt;
    for (unsigned w = 0; w < warps; ++w) {
        kt.warps.emplace_back();
        TraceBuilder tb(kt.warps.back());
        for (int i = 0; i < 30; ++i) {
            const auto roll = rng.nextBounded(4);
            if (roll == 0) {
                tb.alu(1 + static_cast<unsigned>(rng.nextBounded(8)));
            } else if (roll == 1) {
                tb.shared(1 + static_cast<unsigned>(rng.nextBounded(4)));
            } else if (roll == 2) {
                const auto tok = tb.loadPattern(
                    0x100000 + rng.nextBounded(1 << 20) * 64, 4, 4);
                tb.alu(2, kFullMask, TraceBuilder::tokenMask(tok));
            } else {
                std::uint64_t addrs[kWarpSize];
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    addrs[l] =
                        0x800000 + rng.nextBounded(1 << 18) * 128;
                }
                const auto tok =
                    tb.hsuOp(HsuOpcode::PointEuclid, HsuMode::Euclid,
                             addrs, 64,
                             1 + static_cast<unsigned>(
                                 rng.nextBounded(4)),
                             0xffffu);
                tb.alu(1, kFullMask, TraceBuilder::tokenMask(tok));
            }
        }
    }
    return kt;
}

TEST(Determinism, IdenticalRunsIdenticalCounters)
{
    const KernelTrace trace = mixedTrace(40, 17);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();

    StatGroup s1, s2;
    const RunResult r1 = simulateKernel(cfg, trace, s1);
    const RunResult r2 = simulateKernel(cfg, trace, s2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    const auto d1 = s1.dump();
    const auto d2 = s2.dump();
    ASSERT_EQ(d1.size(), d2.size());
    for (std::size_t i = 0; i < d1.size(); ++i) {
        EXPECT_EQ(d1[i].first, d2[i].first);
        EXPECT_EQ(d1[i].second, d2[i].second) << d1[i].first;
    }
}

TEST(Determinism, MemoryCountersBalance)
{
    const KernelTrace trace = mixedTrace(30, 23);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();
    StatGroup stats;
    simulateKernel(cfg, trace, stats);

    // Every L1 access is a hit, a reserved hit, or a miss.
    for (unsigned i = 0; i < cfg.numSms; ++i) {
        const std::string p = "l1d." + std::to_string(i);
        EXPECT_DOUBLE_EQ(stats.get(p + ".accesses"),
                         stats.get(p + ".hits") +
                             stats.get(p + ".hit_reserved") +
                             stats.get(p + ".misses") +
                             stats.get(p + ".writes"));
    }
    // Same at the L2.
    EXPECT_DOUBLE_EQ(stats.get("l2.accesses"),
                     stats.get("l2.hits") +
                         stats.get("l2.hit_reserved") +
                         stats.get("l2.misses") +
                         stats.get("l2.writes"));
    // DRAM row accounting: every access is a hit or an activation.
    EXPECT_DOUBLE_EQ(stats.get("dram.accesses"),
                     stats.get("dram.row_hits") +
                         stats.get("dram.activations"));
    // Attribution covers every sub-core cycle.
    EXPECT_DOUBLE_EQ(stats.get("sm.slot_cycles"),
                     stats.get("sm.busy_cycles") +
                         stats.get("sm.stall_cycles") +
                         stats.get("sm.idle_cycles"));
}

TEST(Determinism, SmCountScalesThroughput)
{
    const KernelTrace trace = mixedTrace(64, 29);
    GpuConfig one;
    one.numSms = 1;
    one.finalize();
    GpuConfig four;
    four.numSms = 4;
    four.finalize();
    StatGroup s1, s4;
    const RunResult r1 = simulateKernel(one, trace, s1);
    const RunResult r4 = simulateKernel(four, trace, s4);
    EXPECT_LT(r4.cycles, r1.cycles);
    // Same total work either way.
    EXPECT_EQ(s1.get("sm.warps_retired"), 64.0);
    EXPECT_EQ(s4.get("sm.warps_retired"), 64.0);
    EXPECT_DOUBLE_EQ(s1.get("sm.instrs_issued"),
                     s4.get("sm.instrs_issued"));
}

TEST(Determinism, SchedulerPoliciesBothComplete)
{
    const KernelTrace trace = mixedTrace(32, 31);
    for (const auto policy :
         {SchedulerPolicy::Gto, SchedulerPolicy::RoundRobin}) {
        GpuConfig cfg;
        cfg.numSms = 1;
        cfg.scheduler = policy;
        cfg.finalize();
        StatGroup stats;
        const RunResult r = simulateKernel(cfg, trace, stats);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_EQ(stats.get("sm.warps_retired"), 32.0);
    }
}

TEST(Determinism, WarpBufferMonotoneAtSmallSizes)
{
    // More warp-buffer entries never hurt this latency-bound trace.
    const KernelTrace trace = mixedTrace(48, 37);
    std::uint64_t prev = ~0ull;
    for (const unsigned wb : {1u, 2u, 4u, 8u}) {
        GpuConfig cfg;
        cfg.numSms = 1;
        cfg.warpBufferSize = wb;
        cfg.finalize();
        StatGroup stats;
        const RunResult r = simulateKernel(cfg, trace, stats);
        EXPECT_LE(r.cycles, prev) << "wb=" << wb;
        prev = r.cycles;
    }
}

KernelTrace
loadStallTrace(unsigned warps, std::uint64_t seed)
{
    // Every warp alternates load -> dependent ALU, so all warps stall
    // on DRAM together and leave multi-candidate eventless gaps; the
    // mixed offloadable flags make stall attribution order-sensitive.
    Rng rng(seed);
    KernelTrace kt;
    for (unsigned w = 0; w < warps; ++w) {
        kt.warps.emplace_back();
        TraceBuilder tb(kt.warps.back());
        for (unsigned i = 0; i < 12; ++i) {
            const auto tok = tb.loadPattern(
                0x100000 + rng.nextBounded(1 << 20) * 64, 4, 4);
            tb.alu(1 + (w % 3), kFullMask,
                   TraceBuilder::tokenMask(tok), (w + i) % 2 == 0);
        }
    }
    return kt;
}

/** Compare full stat dumps; @p loop_diagnostics_may_differ exempts
 *  the two skip counters, which only count what the loop jumped. */
void
expectSameDump(const StatGroup &a, const StatGroup &b,
               bool loop_diagnostics_may_differ = false)
{
    const auto da = a.dump();
    const auto db = b.dump();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        ASSERT_EQ(da[i].first, db[i].first);
        if (loop_diagnostics_may_differ &&
            (da[i].first == "sim.ff_cycles" ||
             da[i].first == "sim.horizon_cycles")) {
            continue;
        }
        EXPECT_EQ(da[i].second, db[i].second) << da[i].first;
    }
}

TEST(Determinism, FastForwardMatchesPerCycleLoop)
{
    // Bit-identical counters with idle-cycle skipping on and off; only
    // the skip diagnostics may differ. The stepped side also checks
    // every prediction the skipping side rests on: each gap's end, and
    // each SM's next event while it is neither due nor woken.
    // Inputs: sparse occupancy (one warp per SM), so dependent loads
    // leave DRAM-latency gaps the whole GPU jumps; 2 warps per
    // sub-core stalled on loads, for gaps with a multi-candidate
    // order; and four busy SMs that sleep and wake one by one. Both
    // scheduler policies: RoundRobin rotates its stall-attribution
    // head every cycle, the hardest case for the skipped-gap stat
    // compensation.
    const struct
    {
        const char *name;
        KernelTrace trace;
        unsigned sms;
        bool loadStall;
    } cases[] = {
        {"mixedTrace(2, 41) on 2 SMs", mixedTrace(2, 41), 2, false},
        {"loadStallTrace(8, 41) on 1 SM", loadStallTrace(8, 41), 1, true},
        {"mixedTrace(24, 47) on 4 SMs", mixedTrace(24, 47), 4, false},
        {"loadStallTrace(16, 47) on 4 SMs", loadStallTrace(16, 47), 4,
         true},
    };
    for (const auto &c : cases)
    for (const auto policy :
         {SchedulerPolicy::Gto, SchedulerPolicy::RoundRobin}) {
        SCOPED_TRACE(std::string(c.name) +
                     (policy == SchedulerPolicy::Gto ? ", GTO"
                                                     : ", round-robin"));
        GpuConfig cfg;
        cfg.numSms = c.sms;
        cfg.scheduler = policy;
        cfg.finalize();
        // Both sides set the override: HSU_NO_SKIP, latched once per
        // process, would otherwise step the skipping side too.
        GpuConfig skip_cfg = cfg;
        skip_cfg.noSkip = 0;
        GpuConfig stepped_cfg = cfg;
        stepped_cfg.noSkip = 1;

        StatGroup skip_stats, stepped_stats;
        const RunResult skip =
            simulateKernel(skip_cfg, c.trace, skip_stats);
        const RunResult stepped =
            simulateKernel(stepped_cfg, c.trace, stepped_stats);

        EXPECT_EQ(skip.cycles, stepped.cycles);
        EXPECT_GT(skip_stats.get("sim.ff_cycles"), 0.0);
        if (c.loadStall) {
            EXPECT_GT(skip_stats.get("sim.horizon_cycles"), 0.0);
        }
        EXPECT_EQ(stepped_stats.get("sim.ff_cycles"), 0.0);
        EXPECT_EQ(stepped_stats.get("sim.horizon_cycles"), 0.0);
        expectSameDump(skip_stats, stepped_stats, true);
    }
}

TEST(Determinism, ParallelRunnerMatchesSerial)
{
    // The fan-out executor must be a pure scheduling change: same
    // cycles and same full counter dumps as calling the runner
    // serially, regardless of worker count or job order.
    GpuConfig gpu;
    gpu.numSms = 2;
    gpu.finalize();
    RunnerOptions tiny;
    tiny.ggnnQueries = 32;
    tiny.pointQueries = 64;
    tiny.keyQueries = 64;

    // Each workload three times: a full baseline + HSU pair, then its
    // HSU side alone (only hsu/hsuStats filled), then its baseline side
    // alone (only base/baseStats), in one interleaved fleet.
    const std::pair<Algo, DatasetId> work[] = {
        {Algo::Btree, DatasetId::BTree10k},
        {Algo::Bvhnn, DatasetId::Random10k},
        {Algo::Flann, DatasetId::Bunny},
        {Algo::Ggnn, DatasetId::Sift10k},
    };
    const std::vector<WorkloadResult> par = parallelMap(
        3 * std::size(work),
        [&](std::size_t i) {
            const auto &[algo, id] = work[i / 3];
            if (i % 3 == 0)
                return runWorkload(algo, id, gpu, tiny);
            WorkloadResult r;
            if (i % 3 == 1)
                r.hsu = runHsuOnly(algo, id, gpu, tiny, r.hsuStats);
            else
                r.base = runBaseOnly(algo, id, gpu, tiny, r.baseStats);
            return r;
        },
        4);
    ASSERT_EQ(par.size(), 3 * std::size(work));
    for (std::size_t i = 0; i < par.size(); ++i) {
        const auto &[algo, id] = work[i / 3];
        if (i % 3 == 0) {
            const WorkloadResult serial = runWorkload(algo, id, gpu, tiny);
            EXPECT_EQ(serial.base.cycles, par[i].base.cycles);
            EXPECT_EQ(serial.hsu.cycles, par[i].hsu.cycles);
            expectSameDump(serial.baseStats, par[i].baseStats);
            expectSameDump(serial.hsuStats, par[i].hsuStats);
        } else if (i % 3 == 1) {
            StatGroup stats;
            const RunResult serial =
                runHsuOnly(algo, id, gpu, tiny, stats);
            EXPECT_EQ(serial.cycles, par[i].hsu.cycles);
            expectSameDump(stats, par[i].hsuStats);
        } else {
            StatGroup stats;
            const RunResult serial =
                runBaseOnly(algo, id, gpu, tiny, stats);
            EXPECT_EQ(serial.cycles, par[i].base.cycles);
            EXPECT_EQ(serial.offloadableFraction,
                      par[i].base.offloadableFraction);
            expectSameDump(stats, par[i].baseStats);
        }
    }
}

} // namespace
} // namespace hsu
