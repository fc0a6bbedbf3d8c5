/**
 * @file
 * Golden simulated outputs: the cycle count and a digest of every
 * stat of the golden workloads (tests/search/golden_workloads.hh),
 * lowered for the baseline and for HSU, under configurations that
 * between them reach every issue and stall path of the timing model.
 *
 * test_determinism and test_sim_parallel compare two runs of the same
 * simulator, so a bug both runs share passes them. These pins compare
 * against the simulator as it was when they were captured: a host-side
 * change to the cycle loop (issue order, stall accounting, event
 * skipping) must leave every value here unchanged. Only
 * "sim.ff_cycles" and "sim.horizon_cycles" are left out of the digest;
 * they are loop diagnostics that equivalent loops may differ in. If a
 * timing-model change is INTENTIONAL, re-pin from the failure messages
 * (each prints its replacement table row) and say so in the commit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "../search/golden_workloads.hh"
#include "common/stats.hh"
#include "sim/gpu.hh"

namespace hsu
{
namespace
{

struct GoldenCase
{
    std::string name;
    KernelTrace base;
    KernelTrace hsu;
    /** The baseline variant runs on the stock RT unit (RTIndeX). */
    bool baseOnRt = false;
};

/** The golden workloads' traces, built once per process. */
const std::vector<GoldenCase> &
goldenCases()
{
    static const std::vector<GoldenCase> cases = [] {
        std::vector<GoldenCase> out;
        const auto add = [&out](std::string name, auto &&run,
                                bool base_on_rt = false) {
            out.push_back({std::move(name), run(KernelVariant::Baseline),
                           run(KernelVariant::Hsu), base_on_rt});
        };
        {
            const auto w = golden::ggnnEuclid();
            const HnswGraph g = HnswGraph::build(w.points, Metric::Euclidean);
            const GgnnKernel k(g, GgnnConfig{});
            add("ggnn_euclid",
                [&](KernelVariant v) { return k.run(w.queries, v).trace; });
        }
        {
            const auto w = golden::ggnnAngular();
            const HnswGraph g = HnswGraph::build(w.points, Metric::Angular);
            const GgnnKernel k(g, GgnnConfig{});
            add("ggnn_angular",
                [&](KernelVariant v) { return k.run(w.queries, v).trace; });
        }
        const auto pc = golden::pointCloud();
        {
            const KdTree tree = KdTree::build(pc.points, 16);
            const FlannKernel k(tree);
            add("flann",
                [&](KernelVariant v) { return k.run(pc.queries, v).trace; });
        }
        {
            const Lbvh bvh = Lbvh::buildFromPoints(pc.points, pc.radius);
            const BvhnnKernel k(pc.points, bvh, BvhnnConfig{pc.radius});
            add("bvhnn",
                [&](KernelVariant v) { return k.run(pc.queries, v).trace; });
        }
        {
            auto w = golden::btreeKeys();
            const BTree tree = BTree::build(std::move(w.pairs), 256);
            const BtreeKernel k(tree);
            add("btree",
                [&](KernelVariant v) { return k.run(w.probes, v).trace; });
        }
        {
            const auto w = golden::rtindexKeys();
            const RtindexKernel k(w.keys);
            add(
                "rtindex",
                [&](KernelVariant v) { return k.run(w.probes, v).trace; },
                true);
        }
        return out;
    }();
    return cases;
}

/** FNV-1a over every (name, value bits) pair but the loop diagnostics. */
std::uint64_t
statDigest(const StatGroup &stats)
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    const auto byte = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ull; // FNV prime
    };
    for (const auto &[name, value] : stats.dump()) {
        if (name == "sim.ff_cycles" || name == "sim.horizon_cycles")
            continue;
        for (const char c : name)
            byte(static_cast<unsigned char>(c));
        byte(0);
        const auto bits = std::bit_cast<std::uint64_t>(value);
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(bits >> (8 * i)));
    }
    return h;
}

struct Pin
{
    const char *trace; //!< "<case>/base" or "<case>/hsu"
    std::uint64_t cycles;
    std::uint64_t digest;
};

/**
 * Simulate every golden trace under @p cfg (HSU traces, and RTIndeX's
 * baseline, with the RT unit on; other baseline traces with it off)
 * and compare against @p pins, in goldenCases() order. @p rt_only
 * skips the traces that run without an RT unit, for knobs only the RT
 * unit reads.
 */
void
expectPinned(GpuConfig cfg, bool rt_only, const std::vector<Pin> &pins)
{
    std::size_t next = 0;
    for (const GoldenCase &c : goldenCases()) {
        for (const bool hsu_side : {false, true}) {
            const bool rt = hsu_side || c.baseOnRt;
            if (rt_only && !rt)
                continue;
            const std::string label =
                c.name + (hsu_side ? "/hsu" : "/base");
            ASSERT_LT(next, pins.size()) << "no pin for " << label;
            const Pin &pin = pins[next++];
            ASSERT_EQ(label, pin.trace);

            cfg.rtUnitEnabled = rt;
            StatGroup stats;
            const RunResult r =
                simulateKernel(cfg, hsu_side ? c.hsu : c.base, stats);
            const std::uint64_t digest = statDigest(stats);
            char row[96];
            std::snprintf(row, sizeof row,
                          "{\"%s\", %llu, 0x%016llxull},", label.c_str(),
                          static_cast<unsigned long long>(r.cycles),
                          static_cast<unsigned long long>(digest));
            EXPECT_EQ(r.cycles, pin.cycles) << "re-pin row: " << row;
            EXPECT_EQ(digest, pin.digest) << "re-pin row: " << row;
        }
    }
    EXPECT_EQ(next, pins.size()) << "unused pins";
}

GpuConfig
defaults()
{
    GpuConfig cfg;
    cfg.finalize();
    return cfg;
}

// Captured before the SM issue loop was restructured (live-warp lists,
// coalesce-once line buffers, stall replay); the same rows hold for
// the serial loop, the event-horizon loop and the single-stepped loop.
const std::vector<Pin> kDefaultPins = {
    {"ggnn_euclid/base", 34531, 0x1c6519db6039cfb9ull},
    {"ggnn_euclid/hsu", 12318, 0xc937c1dbcf35000full},
    {"ggnn_angular/base", 27408, 0x2eac14448f3de964ull},
    {"ggnn_angular/hsu", 10113, 0x219172b575630e97ull},
    {"flann/base", 16444, 0x69ee99e6b219fbb1ull},
    {"flann/hsu", 4234, 0x74756e96c2b41d26ull},
    {"bvhnn/base", 3254, 0x640f60db0e3bbdfbull},
    {"bvhnn/hsu", 3224, 0x26c597d19c84c6b0ull},
    {"btree/base", 2321, 0x786eafbca7bd0fdcull},
    {"btree/hsu", 2246, 0x75ed311568cbfef4ull},
    {"rtindex/base", 4461, 0xf6d5058320145033ull},
    {"rtindex/hsu", 2853, 0x47f63871d12d9ff6ull},
};

// The default machine, through whichever loop the environment selects
// (HSU_SIM_JOBS / HSU_NO_SKIP).
TEST(GoldenStats, Default)
{
    expectPinned(defaults(), false, kDefaultPins);
}

// The horizon loop: per-SM cached next events, skipped SMs caught up by
// fastForwardStats, SM ticks on TickTeam workers.
TEST(GoldenStats, SimJobs4)
{
    GpuConfig cfg = defaults();
    cfg.simJobs = 4;
    expectPinned(cfg, false, kDefaultPins);
}

// The single-stepped loop, which also checks every predicted gap.
TEST(GoldenStats, NoSkip)
{
    GpuConfig cfg = defaults();
    cfg.noSkip = 1;
    expectPinned(cfg, false, kDefaultPins);
}

// Round-robin rotates the candidate order every cycle, so a stalled
// sub-core's first candidate (its offloadable attribution) changes.
TEST(GoldenStats, RoundRobin)
{
    GpuConfig cfg = defaults();
    cfg.scheduler = SchedulerPolicy::RoundRobin;
    expectPinned(cfg, false,
                 {
                     {"ggnn_euclid/base", 34531, 0x1c6519db6039cfb9ull},
                     {"ggnn_euclid/hsu", 12318, 0xc937c1dbcf35000full},
                     {"ggnn_angular/base", 27408, 0x2eac14448f3de964ull},
                     {"ggnn_angular/hsu", 10113, 0x219172b575630e97ull},
                     {"flann/base", 16444, 0x69ee99e6b219fbb1ull},
                     {"flann/hsu", 4234, 0x74756e96c2b41d26ull},
                     {"bvhnn/base", 3254, 0x640f60db0e3bbdfbull},
                     {"bvhnn/hsu", 3224, 0x26c597d19c84c6b0ull},
                     {"btree/base", 2327, 0xdaa679b467c9355dull},
                     {"btree/hsu", 2286, 0xf0dd7fde42aca308ull},
                     {"rtindex/base", 4461, 0xf6d5058320145033ull},
                     {"rtindex/hsu", 2853, 0x47f63871d12d9ff6ull},
                 });
}

// One warp-buffer entry: dispatches are rejected for want of an entry
// on most cycles, and every entry's Ready->Issuing start and end gate
// the next dispatch.
const std::vector<Pin> kWarpBuffer1Pins = {
    {"ggnn_euclid/hsu", 20320, 0x3ffe8ee9fcf9564aull},
    {"ggnn_angular/hsu", 10471, 0x23a48587759a424full},
    {"flann/hsu", 12067, 0xf5935ed710877313ull},
    {"bvhnn/hsu", 3224, 0x26c597d19c84c6b0ull},
    {"btree/hsu", 2293, 0xa16bf61a02572f52ull},
    {"rtindex/base", 5903, 0x12499ac784572129ull},
    {"rtindex/hsu", 3509, 0xbe301a748054605bull},
};

TEST(GoldenStats, WarpBuffer1)
{
    GpuConfig cfg = defaults();
    cfg.warpBufferSize = 1;
    expectPinned(cfg, true, kWarpBuffer1Pins);
}

TEST(GoldenStats, WarpBuffer1SimJobs4)
{
    GpuConfig cfg = defaults();
    cfg.warpBufferSize = 1;
    cfg.simJobs = 4;
    expectPinned(cfg, true, kWarpBuffer1Pins);
}

// Unmerged node fetches: one L1 access per entry and line.
TEST(GoldenStats, NoFetchMerging)
{
    GpuConfig cfg = defaults();
    cfg.rtFetchMerging = false;
    expectPinned(cfg, true,
                 {
                     {"ggnn_euclid/hsu", 12327, 0x37d8f38d2a182f72ull},
                     {"ggnn_angular/hsu", 10115, 0xccfffc2d791f56f8ull},
                     {"flann/hsu", 4259, 0x15a9a2ff141d8d27ull},
                     {"bvhnn/hsu", 3224, 0x26c597d19c84c6b0ull},
                     {"btree/hsu", 2263, 0x1b9724ebc400e634ull},
                     {"rtindex/base", 4501, 0x766fc698a35cca0bull},
                     {"rtindex/hsu", 2874, 0x5d9f4eb59db1adfcull},
                 });
}

// Every warp on one SM: up to 16 live warps per sub-core and the LSU
// queue full for long stretches.
TEST(GoldenStats, OneSm)
{
    GpuConfig cfg = defaults();
    cfg.numSms = 1;
    cfg.finalize();
    expectPinned(cfg, false,
                 {
                     {"ggnn_euclid/base", 44265, 0x0add1bee52135251ull},
                     {"ggnn_euclid/hsu", 13994, 0xbb20e8164b4d4e24ull},
                     {"ggnn_angular/base", 28432, 0x8edf81686bc05a1eull},
                     {"ggnn_angular/hsu", 9769, 0x246589f74ab31996ull},
                     {"flann/base", 16149, 0x9bcd7bcd9b86698eull},
                     {"flann/hsu", 4961, 0x906fcea1f616dd5aull},
                     {"bvhnn/base", 3046, 0xde12c7879f7221f4ull},
                     {"bvhnn/hsu", 3016, 0x2a8dedf0e5dc2f3bull},
                     {"btree/base", 4240, 0x63b932a02be2b0e4ull},
                     {"btree/hsu", 4125, 0x818ba4b77ac87c54ull},
                     {"rtindex/base", 4744, 0xd8d27cf12a68d024ull},
                     {"rtindex/hsu", 2830, 0x6846a88c5d03ea09ull},
                 });
}


// The refusal paths: an L1 request the cache refuses is retried until
// a fill or a miss-queue pop could let it in. Each variant below makes
// one refusal kind common, and runs under the loop the environment
// selects and under the horizon loop, whose SMs only wake for their
// own events and their L1's completions. Captured before refused L1
// requests were parked (DESIGN.md "Simulation execution").

// A two-entry L1 miss queue: reads and writes are refused for a full
// queue, and a pop (not a fill) is what admits the refused head.
const std::vector<Pin> kL1MissQueue2Pins = {
    {"ggnn_euclid/base", 34531, 0xbc2e17e7b64180a9ull},
    {"ggnn_euclid/hsu", 12338, 0x5e2bfdef8bb6d7e4ull},
    {"ggnn_angular/base", 27408, 0x97600918988084d5ull},
    {"ggnn_angular/hsu", 10113, 0x38ff5c754c1ea665ull},
    {"flann/base", 16444, 0x47ad8716ea26125full},
    {"flann/hsu", 4234, 0x859fdde46bad2ad1ull},
    {"bvhnn/base", 3254, 0x048ff722fc99beeaull},
    {"bvhnn/hsu", 3224, 0x682fbc821f876f05ull},
    {"btree/base", 2347, 0xb15b9f8ed8d35663ull},
    {"btree/hsu", 2255, 0xf800398819dad30dull},
    {"rtindex/base", 4461, 0x4b004f30d599f0ceull},
    {"rtindex/hsu", 2853, 0xdd2be61041a61c45ull},
};

GpuConfig
l1MissQueue2()
{
    GpuConfig cfg = defaults();
    cfg.mem.l1.missQueueCapacity = 2;
    return cfg;
}

TEST(GoldenStats, L1MissQueue2)
{
    expectPinned(l1MissQueue2(), false, kL1MissQueue2Pins);
}

TEST(GoldenStats, L1MissQueue2SimJobs4)
{
    GpuConfig cfg = l1MissQueue2();
    cfg.simJobs = 4;
    expectPinned(cfg, false, kL1MissQueue2Pins);
}

// One waiter per L1 MSHR entry: a second read of a pending line is
// refused until that line's fill.
const std::vector<Pin> kL1Merges1Pins = {
    {"ggnn_euclid/base", 34716, 0xb878e23cc7661292ull},
    {"ggnn_euclid/hsu", 12246, 0xb75bb8f9c445b539ull},
    {"ggnn_angular/base", 27442, 0x0971b250b9ccab7aull},
    {"ggnn_angular/hsu", 10126, 0x60ceb0234acae0e1ull},
    {"flann/base", 17269, 0xabd49926615ba79cull},
    {"flann/hsu", 4234, 0x74756e96c2b41d26ull},
    {"bvhnn/base", 3894, 0x074d6e4cc3d14f66ull},
    {"bvhnn/hsu", 3224, 0x26c597d19c84c6b0ull},
    {"btree/base", 3877, 0xe10d627354ced7d0ull},
    {"btree/hsu", 4508, 0xa18a4883e0a1a3d2ull},
    {"rtindex/base", 4461, 0xf6d5058320145033ull},
    {"rtindex/hsu", 2853, 0x47f63871d12d9ff6ull},
};

GpuConfig
l1Merges1()
{
    GpuConfig cfg = defaults();
    cfg.mem.l1.mshrMergesPerEntry = 1;
    return cfg;
}

TEST(GoldenStats, L1Merges1)
{
    expectPinned(l1Merges1(), false, kL1Merges1Pins);
}

TEST(GoldenStats, L1Merges1SimJobs4)
{
    GpuConfig cfg = l1Merges1();
    cfg.simJobs = 4;
    expectPinned(cfg, false, kL1Merges1Pins);
}

// Four L2 MSHRs: the L2 refuses most misses, L1 misses stay pending
// longer, and the L1s' MSHR files fill up behind them.
const std::vector<Pin> kL2Mshr4Pins = {
    {"ggnn_euclid/base", 35719, 0x1f64bb33af4855c3ull},
    {"ggnn_euclid/hsu", 21552, 0xd553c35e7d9e62ddull},
    {"ggnn_angular/base", 27552, 0x589f703f2dcfd0c4ull},
    {"ggnn_angular/hsu", 11794, 0x379fb297d1a65852ull},
    {"flann/base", 16822, 0x7befe0e870589dd1ull},
    {"flann/hsu", 4808, 0x8aa89b693fdf00f6ull},
    {"bvhnn/base", 4068, 0x4d09f4e1cace0b5aull},
    {"bvhnn/hsu", 4030, 0x9a9ffce0b17e3627ull},
    {"btree/base", 6820, 0xcb3679d72d099da7ull},
    {"btree/hsu", 6770, 0xb4148303190f6737ull},
    {"rtindex/base", 11659, 0x17a4823fdbae1992ull},
    {"rtindex/hsu", 6093, 0x2a998b09ebd21febull},
};

GpuConfig
l2Mshr4()
{
    GpuConfig cfg = defaults();
    cfg.mem.l2.mshrEntries = 4;
    return cfg;
}

TEST(GoldenStats, L2Mshr4)
{
    expectPinned(l2Mshr4(), false, kL2Mshr4Pins);
}

TEST(GoldenStats, L2Mshr4SimJobs4)
{
    GpuConfig cfg = l2Mshr4();
    cfg.simJobs = 4;
    expectPinned(cfg, false, kL2Mshr4Pins);
}

} // namespace
} // namespace hsu
