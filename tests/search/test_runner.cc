/**
 * @file
 * End-to-end experiment-runner tests: every algorithm produces a
 * positive, finite result on a small configuration; the key paper
 * shapes hold on the fast workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "search/runner.hh"

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

TEST(Runner, IndexCacheStemKeysEveryBuildInput)
{
    const DatasetInfo &base = datasetInfo(DatasetId::Sift10k);
    const std::initializer_list<std::uint64_t> params = {16, 24, 32, 7};
    const std::string ref = indexCacheStem(base, "hnsw", params);
    EXPECT_EQ(indexCacheStem(base, "hnsw", params), ref);
    EXPECT_EQ(ref.rfind("sift10k-hnsw-", 0), 0u) << ref;
    EXPECT_EQ(ref.size(), std::string("sift10k-hnsw-").size() + 16);

    std::vector<std::string> changed;
    DatasetInfo d = base;
    d.seed += 1;
    changed.push_back(indexCacheStem(d, "hnsw", params));
    d = base;
    d.simPoints += 1;
    changed.push_back(indexCacheStem(d, "hnsw", params));
    d = base;
    d.dim += 1;
    changed.push_back(indexCacheStem(d, "hnsw", params));
    changed.push_back(indexCacheStem(base, "kdtree", params));
    changed.push_back(indexCacheStem(base, "hnsw", {17, 24, 32, 7}));
    changed.push_back(indexCacheStem(base, "hnsw", {16, 25, 32, 7}));
    changed.push_back(indexCacheStem(base, "hnsw", {16, 24, 33, 7}));
    changed.push_back(indexCacheStem(base, "hnsw", {16, 24, 32, 8}));
    changed.push_back(indexCacheStem(base, "hnsw", {16, 24, 32}));
    changed.push_back(indexCacheStem(base, "hnsw", {16, 24, 32, 7, 0}));
    for (const std::string &name : changed)
        EXPECT_NE(name, ref);
    std::sort(changed.begin(), changed.end());
    EXPECT_EQ(std::adjacent_find(changed.begin(), changed.end()),
              changed.end())
        << "two different inputs share a name";
}

TEST(Runner, DatasetsForAlgoPartition)
{
    EXPECT_EQ(datasetsForAlgo(Algo::Ggnn).size(), 9u);
    EXPECT_EQ(datasetsForAlgo(Algo::Flann).size(), 5u);
    EXPECT_EQ(datasetsForAlgo(Algo::Bvhnn).size(), 5u);
    EXPECT_EQ(datasetsForAlgo(Algo::Btree).size(), 2u);
}

TEST(Runner, LabelsCarryPrefixes)
{
    const auto &bun = datasetInfo(DatasetId::Bunny);
    EXPECT_EQ(workloadLabel(Algo::Flann, bun), "F-BUN");
    EXPECT_EQ(workloadLabel(Algo::Bvhnn, bun), "B-BUN");
    EXPECT_EQ(workloadLabel(Algo::Ggnn, datasetInfo(DatasetId::Glove)),
              "GLV");
}

TEST(Runner, BtreeWorkloadEndToEnd)
{
    const auto r = runWorkload(Algo::Btree, DatasetId::BTree10k,
                               smallGpu(), tinyOptions());
    EXPECT_GT(r.base.cycles, 0u);
    EXPECT_GT(r.hsu.cycles, 0u);
    EXPECT_GT(r.hsu.hsuCompleted, 0.0);
    EXPECT_EQ(r.base.hsuCompleted, 0.0);
    EXPECT_GT(r.base.offloadableFraction, 0.0);
    EXPECT_LT(r.base.offloadableFraction, 1.0);
}

TEST(Runner, BvhnnFasterWithHsu)
{
    // The headline effect on the strongest workload. Needs enough
    // warps for the RT unit's latency to be hidden, so this test uses
    // more queries than the other runner tests.
    RunnerOptions opts = tinyOptions();
    opts.pointQueries = 1024;
    const auto r = runWorkload(Algo::Bvhnn, DatasetId::Random10k,
                               smallGpu(), opts);
    EXPECT_GT(r.speedup(), 1.05);
    // And the HSU cuts L1 accesses (Fig 12's BVH-NN effect).
    EXPECT_LT(r.hsu.l1Accesses, 0.8 * r.base.l1Accesses);
}

TEST(Runner, OptionsScaleWithDimension)
{
    const auto big = optionsFor(datasetInfo(DatasetId::Mnist));
    const auto small = optionsFor(datasetInfo(DatasetId::Sift10k));
    EXPECT_LT(big.ggnnQueries, small.ggnnQueries);
    const auto quick = optionsFor(datasetInfo(DatasetId::Sift10k), 0.25);
    EXPECT_LT(quick.pointQueries, small.pointQueries);
}

TEST(Runner, WarpBufferOneIsWorseThanEight)
{
    // Fig 11's key shape: a single-entry warp buffer forfeits all
    // memory-level parallelism.
    const RunnerOptions opts = tinyOptions();
    GpuConfig one = smallGpu();
    one.warpBufferSize = 1;
    GpuConfig eight = smallGpu();

    StatGroup s1, s8;
    const RunResult r1 =
        runHsuOnly(Algo::Bvhnn, DatasetId::Random10k, one, opts, s1);
    const RunResult r8 =
        runHsuOnly(Algo::Bvhnn, DatasetId::Random10k, eight, opts, s8);
    EXPECT_GT(r1.cycles, r8.cycles);
}

} // namespace
} // namespace hsu
