/**
 * @file
 * Emit-once / lower-many pipeline tests: the shared semantic-trace
 * cache must hand every requester the same artifact, the cached
 * artifact must lower bit-identically to a fresh emission, lowerings
 * run in parallelMap workers must reproduce the two-point API's cycle
 * counts, and the grid-based pickRadius must match the brute-force
 * scan it replaced exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "search/runner.hh"
#include "sim/trace_stats.hh"
#include "structures/pointset.hh"

namespace hsu
{
namespace
{

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();
    return cfg;
}

RunnerOptions
tinyOptions()
{
    RunnerOptions o;
    o.ggnnQueries = 32;
    o.pointQueries = 256;
    o.keyQueries = 512;
    return o;
}

TEST(EmissionCache, SharedAcrossConcurrentRequesters)
{
    // Every thread asking for the same (algo, dataset, opts) must get
    // a pointer to the SAME semantic trace — emission ran once, and
    // the workers of a sweep share the artifact instead of copying it.
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const SemKernelTrace>> got(kThreads);
    {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < kThreads; ++i) {
            threads.emplace_back([&got, i] {
                got[i] = emitSemanticShared(Algo::Btree,
                                            DatasetId::BTree10k,
                                            tinyOptions());
            });
        }
        for (auto &t : threads)
            t.join();
    }
    for (unsigned i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[0].get(), got[i].get());

    // A different key is a different artifact.
    RunnerOptions other = tinyOptions();
    other.keyQueries = 256;
    const auto distinct =
        emitSemanticShared(Algo::Btree, DatasetId::BTree10k, other);
    EXPECT_NE(got[0].get(), distinct.get());
}

TEST(EmissionCache, CachedTraceLowersIdenticallyToFreshEmission)
{
    // Emission is a pure function of its key, so the cached semantic
    // trace must lower to the same bits as an uncached emitSemantic()
    // call — under both lowerings.
    const RunnerOptions opts = tinyOptions();
    const DatapathConfig dp = smallGpu().datapath;
    const std::pair<Algo, DatasetId> workloads[] = {
        {Algo::Ggnn, DatasetId::Sift10k},
        {Algo::Bvhnn, DatasetId::Random10k},
    };
    for (const auto &[algo, id] : workloads) {
        const auto shared = emitSemanticShared(algo, id, opts);
        const SemKernelTrace fresh = emitSemantic(algo, id, opts);
        for (const Lowering &low :
             {Lowering::baseline(dp), Lowering::hsu(dp)}) {
            EXPECT_EQ(traceFingerprint(lowerTrace(*shared, low)),
                      traceFingerprint(lowerTrace(fresh, low)));
        }
    }
}

TEST(EmissionCache, SemLowerJobMatchesTwoPointApi)
{
    // Lowering the shared emission inside parallelMap workers must be
    // cycle-for-cycle identical to the runBaseOnly/runHsuOnly path.
    const RunnerOptions opts = tinyOptions();
    const DatasetId id = DatasetId::BTree10k;

    GpuConfig hsu_gpu = smallGpu();
    hsu_gpu.rtUnitEnabled = true;
    GpuConfig base_gpu = smallGpu();
    base_gpu.rtUnitEnabled = false;

    const auto sem = emitSemanticShared(Algo::Btree, id, opts);
    const auto res = parallelMap(
        2,
        [&](std::size_t hsu_side) {
            const GpuConfig &gpu = hsu_side ? hsu_gpu : base_gpu;
            const KernelTrace trace = lowerTrace(
                *sem, hsu_side ? Lowering::hsu(gpu.datapath)
                               : Lowering::baseline(gpu.datapath));
            StatGroup stats;
            return std::pair{simulateKernel(gpu, trace, stats),
                             analyzeTrace(trace)};
        },
        2);

    StatGroup base_stats, hsu_stats;
    const RunResult base =
        runBaseOnly(Algo::Btree, id, smallGpu(), opts, base_stats);
    const RunResult hsu =
        runHsuOnly(Algo::Btree, id, smallGpu(), opts, hsu_stats);
    EXPECT_EQ(res[0].first.cycles, base.cycles);
    EXPECT_EQ(res[1].first.cycles, hsu.cycles);

    // The worker-side trace analysis sees each lowering's offload.
    EXPECT_EQ(res[0].second.semanticOffloadFraction(), 0.0);
    EXPECT_GT(res[1].second.semanticOffloadFraction(), 0.0);
}

/** The original O(samples x N) radius pick, kept as the reference the
 *  grid-accelerated pickRadius must match bit-for-bit. */
float
bruteForceRadius(const PointSet &points, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t samples =
        std::min<std::size_t>(64, points.size());
    std::vector<float> nn;
    nn.reserve(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        const std::size_t i = rng.nextBounded(points.size());
        float best = std::numeric_limits<float>::infinity();
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (j == i)
                continue;
            best = std::min(best, pointDist2(points[i], points[j], 3));
        }
        nn.push_back(std::sqrt(best));
    }
    std::nth_element(nn.begin(), nn.begin() + nn.size() / 2, nn.end());
    return 2.0f * nn[nn.size() / 2];
}

TEST(PickRadius, MatchesBruteForceOnSeedDataset)
{
    const PointSet points =
        generatePoints(datasetInfo(DatasetId::Random10k));
    EXPECT_EQ(pickRadius(points), bruteForceRadius(points, 42));
}

TEST(PickRadius, MatchesBruteForceOnAdversarialSets)
{
    // Tiny sets, duplicate points, collinear (degenerate-extent) sets:
    // the grid's ring-scan stopping rule must stay exact on all of
    // them.
    Rng rng(7);
    auto random_point = [&rng]() {
        return std::array<float, 3>{
            static_cast<float>(rng.nextBounded(1000)) * 0.01f,
            static_cast<float>(rng.nextBounded(1000)) * 0.01f,
            static_cast<float>(rng.nextBounded(1000)) * 0.01f};
    };

    std::vector<PointSet> sets;

    PointSet tiny(3); // below the 64-sample count
    for (int i = 0; i < 5; ++i)
        tiny.add(random_point().data());
    sets.push_back(std::move(tiny));

    PointSet dupes(3); // zero nearest-neighbor distances
    for (int i = 0; i < 100; ++i) {
        const auto p = random_point();
        dupes.add(p.data());
        if (i % 3 == 0)
            dupes.add(p.data());
    }
    sets.push_back(std::move(dupes));

    PointSet line(3); // two axes have zero extent
    for (int i = 0; i < 200; ++i) {
        const float x = static_cast<float>(rng.nextBounded(10000));
        const float p[3] = {x, 1.0f, -2.0f};
        line.add(p);
    }
    sets.push_back(std::move(line));

    PointSet clustered(3); // dense clumps + far outlier
    for (int i = 0; i < 300; ++i) {
        const auto p = random_point();
        const float q[3] = {p[0] * 0.01f, p[1] * 0.01f, p[2] * 0.01f};
        clustered.add(q);
    }
    {
        const float outlier[3] = {1e6f, 1e6f, 1e6f};
        clustered.add(outlier);
    }
    sets.push_back(std::move(clustered));

    for (std::size_t s = 0; s < sets.size(); ++s) {
        SCOPED_TRACE("set " + std::to_string(s));
        EXPECT_EQ(pickRadius(sets[s]), bruteForceRadius(sets[s], 42));
    }
}

} // namespace
} // namespace hsu
