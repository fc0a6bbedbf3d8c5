/**
 * @file
 * Timing-core unit tests: issue bandwidth, load latency/MLP, token
 * dependencies, HSU instruction flow, and end-to-end drain.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/gpu.hh"

namespace hsu
{
namespace
{

GpuConfig
tinyConfig()
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.finalize();
    return cfg;
}

TEST(GpuTiming, EmptyKernelFinishes)
{
    StatGroup stats;
    KernelTrace trace;
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    EXPECT_LT(r.cycles, 200u);
}

TEST(GpuTiming, AluOnlyWarpTakesAboutCountCycles)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    tb.alu(1000);
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    EXPECT_GE(r.cycles, 1000u);
    EXPECT_LT(r.cycles, 1200u);
    EXPECT_DOUBLE_EQ(stats.get("sm.instrs_issued"), 1000.0);
}

TEST(GpuTiming, CompletionDetectedOnExactCycle)
{
    // A lone ALU block of count c occupies its sub-core for cycles
    // [0, c) and the warp retires on cycle c: exactly c+1 simulated
    // cycles, with no completion-check period rounding the count up.
    for (const unsigned c : {1u, 5u, 63u, 64u, 200u}) {
        StatGroup stats;
        KernelTrace trace;
        trace.warps.emplace_back();
        TraceBuilder tb(trace.warps[0]);
        tb.alu(c);
        const RunResult r = simulateKernel(tinyConfig(), trace, stats);
        EXPECT_EQ(r.cycles, c + 1) << "c=" << c;
    }
}

TEST(GpuTiming, TwoWarpsShareOneSubCore)
{
    // Both warps land on sub-core slots of the same SM; four sub-cores
    // mean two warps issue in parallel -> ~1000 cycles, not 2000.
    StatGroup stats;
    KernelTrace trace;
    for (int i = 0; i < 2; ++i) {
        trace.warps.emplace_back();
        TraceBuilder tb(trace.warps.back());
        tb.alu(1000);
    }
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    EXPECT_LT(r.cycles, 1300u);
}

TEST(GpuTiming, LoadLatencyStallsDependent)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    const auto tok = tb.loadPattern(0x10000, 4, 4);
    tb.alu(1, kFullMask, TraceBuilder::tokenMask(tok));
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    // Cold miss: L1 + interconnect + L2 + DRAM round trip.
    EXPECT_GT(r.cycles, 100u);
    EXPECT_EQ(stats.get("l1d.0.misses"), 1.0);
}

TEST(GpuTiming, IndependentLoadsOverlap)
{
    // 8 loads to distinct lines with distinct tokens, then one
    // dependent op: the misses should overlap (MLP), finishing far
    // sooner than 8 serialized round trips.
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    std::uint32_t toks = 0;
    for (int i = 0; i < 8; ++i) {
        toks |= TraceBuilder::tokenMask(
            tb.loadPattern(0x10000 + i * 4096, 4, 4));
    }
    tb.alu(1, kFullMask, toks);
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    EXPECT_EQ(stats.get("l1d.0.misses"), 8.0);
    EXPECT_LT(r.cycles, 8 * 150u);
}

TEST(GpuTiming, CoalescedLoadTouchesOneLine)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    tb.loadPattern(0x20000, 4, 4); // 32 lanes x 4B = one 128B line
    simulateKernel(tinyConfig(), trace, stats);
    EXPECT_EQ(stats.get("l1d.0.accesses"), 1.0);
}

TEST(GpuTiming, GatherLoadTouchesManyLines)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    std::uint64_t addrs[kWarpSize];
    for (unsigned l = 0; l < kWarpSize; ++l)
        addrs[l] = 0x20000 + l * 4096ull;
    tb.loadGather(addrs, 4, kFullMask);
    simulateKernel(tinyConfig(), trace, stats);
    EXPECT_EQ(stats.get("l1d.0.accesses"), 32.0);
}

TEST(GpuTiming, HsuInstructionCompletes)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    std::uint64_t addrs[kWarpSize];
    for (unsigned l = 0; l < kWarpSize; ++l)
        addrs[l] = 0x30000 + l * 128ull;
    const auto tok = tb.hsuOp(HsuOpcode::RayIntersect, HsuMode::RayBox,
                              addrs, 64, 1, kFullMask);
    tb.alu(1, kFullMask, TraceBuilder::tokenMask(tok));
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    EXPECT_EQ(stats.get("rtu.completed"), 1.0);
    EXPECT_EQ(stats.get("rtu.completed_box"), 1.0);
    EXPECT_GT(r.cycles, 50u);
}

TEST(GpuTiming, MultiBeatEuclidCompletesAllBeats)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    std::uint64_t addrs[kWarpSize];
    for (unsigned l = 0; l < kWarpSize; ++l)
        addrs[l] = 0x40000 + l * 512ull;
    // dim 128 -> 8 beats of 64B.
    const auto tok = tb.hsuOp(HsuOpcode::PointEuclid, HsuMode::Euclid,
                              addrs, 64, 8, kFullMask);
    tb.alu(1, kFullMask, TraceBuilder::tokenMask(tok));
    simulateKernel(tinyConfig(), trace, stats);
    // Each beat is one completed HSU instruction (roofline metric);
    // the 8-beat sequence occupies a single warp-buffer dispatch.
    EXPECT_EQ(stats.get("rtu.completed"), 8.0);
    EXPECT_EQ(stats.get("rtu.completed_euclid"), 8.0);
    EXPECT_EQ(stats.get("rtu.dispatched"), 1.0);
}

TEST(GpuTiming, BaselineConfigPanicsOnHsuOps)
{
    GpuConfig cfg = tinyConfig();
    cfg.rtUnitEnabled = false;
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    std::uint64_t addrs[kWarpSize] = {};
    tb.hsuOp(HsuOpcode::PointEuclid, HsuMode::Euclid, addrs, 64, 1, 1u);
    EXPECT_DEATH(simulateKernel(cfg, trace, stats), "RT unit disabled");
}

TEST(GpuTiming, OffloadableFractionTracksTaggedOps)
{
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    tb.alu(500, kFullMask, 0, true);  // offloadable
    tb.alu(500, kFullMask, 0, false); // not
    const RunResult r = simulateKernel(tinyConfig(), trace, stats);
    EXPECT_NEAR(r.offloadableFraction, 0.5, 0.05);
}

TEST(GpuTiming, ManyWarpsAcrossSmsFinish)
{
    GpuConfig cfg = tinyConfig();
    cfg.numSms = 4;
    cfg.finalize();
    StatGroup stats;
    KernelTrace trace;
    for (int w = 0; w < 300; ++w) { // more warps than slots -> waves
        trace.warps.emplace_back();
        TraceBuilder tb(trace.warps.back());
        const auto tok = tb.loadPattern(0x10000 + w * 512, 4, 4);
        tb.alu(20, kFullMask, TraceBuilder::tokenMask(tok));
    }
    const RunResult r = simulateKernel(cfg, trace, stats);
    EXPECT_EQ(stats.get("sm.warps_retired"), 300.0);
    EXPECT_GT(r.cycles, 100u);
}

// --- GpuConfig::validate: one death test per rule --------------------

/** Build a GPU on @p cfg; its constructor validates the config. */
void
buildGpu(const GpuConfig &cfg)
{
    StatGroup stats;
    const Gpu gpu(cfg, stats);
}

TEST(GpuConfigValidate, DefaultsAreValid)
{
    GpuConfig cfg;
    cfg.finalize();
    cfg.validate();
    SUCCEED();
}

TEST(GpuConfigValidate, ZeroSms)
{
    GpuConfig cfg;
    cfg.numSms = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.numSms = 0");
}

TEST(GpuConfigValidate, ZeroSubCores)
{
    GpuConfig cfg = tinyConfig();
    cfg.subCoresPerSm = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.subCoresPerSm = 0");
}

TEST(GpuConfigValidate, TooManyWarpSlotsPerSubCore)
{
    // 512 slots over 4 sub-cores would overflow the 64-entry candidate
    // scratch of each sub-core.
    GpuConfig cfg = tinyConfig();
    cfg.maxWarpsPerSm = 512;
    EXPECT_DEATH(buildGpu(cfg),
                 "GpuConfig.maxWarpsPerSm = 512 gives a sub-core 128");
    cfg.maxWarpsPerSm = 256; // exactly 64 per sub-core is fine
    buildGpu(cfg);
}

TEST(GpuConfigValidate, ZeroLsuQueue)
{
    GpuConfig cfg = tinyConfig();
    cfg.lsuQueueSize = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.lsuQueueSize = 0");
}

TEST(GpuConfigValidate, ZeroWarpBuffer)
{
    GpuConfig cfg = tinyConfig();
    cfg.warpBufferSize = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.warpBufferSize = 0");
    cfg.rtUnitEnabled = false; // the baseline GPU has no warp buffer
    buildGpu(cfg);
}

TEST(GpuConfigValidate, ZeroL1Mshrs)
{
    GpuConfig cfg = tinyConfig();
    cfg.mem.l1.mshrEntries = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.mem.l1.mshrEntries = 0");
}

TEST(GpuConfigValidate, ZeroL1MissQueue)
{
    GpuConfig cfg = tinyConfig();
    cfg.mem.l1.missQueueCapacity = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.mem.l1.missQueueCapacity = 0");
}

TEST(GpuConfigValidate, ZeroL2Mshrs)
{
    GpuConfig cfg = tinyConfig();
    cfg.mem.l2.mshrEntries = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.mem.l2.mshrEntries = 0");
}

TEST(GpuConfigValidate, ZeroL2MissQueue)
{
    GpuConfig cfg = tinyConfig();
    cfg.mem.l2.missQueueCapacity = 0;
    EXPECT_DEATH(buildGpu(cfg), "GpuConfig.mem.l2.missQueueCapacity = 0");
}

TEST(GpuConfigValidate, MemoryOpWiderThanLsuQueue)
{
    // One line per lane: 32 line requests can never fit a 16-entry
    // queue. The op is rejected by name when it is first coalesced.
    GpuConfig cfg = tinyConfig();
    cfg.lsuQueueSize = 16;
    StatGroup stats;
    KernelTrace trace;
    trace.warps.emplace_back();
    TraceBuilder tb(trace.warps[0]);
    tb.loadPattern(0x10000, 128, 4);
    EXPECT_DEATH(simulateKernel(cfg, trace, stats),
                 "memory op at pc 0 coalesces to 32 line requests, more "
                 "than the LSU queue holds \\(lsuQueueSize = 16\\)");
    cfg.lsuQueueSize = 32;
    simulateKernel(cfg, trace, stats);
    EXPECT_EQ(stats.get("lsu.line_reqs"), 32.0);
}

} // namespace
} // namespace hsu
