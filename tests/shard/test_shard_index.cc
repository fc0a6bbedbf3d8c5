/**
 * @file
 * Index emission pins: the trace fingerprints of serving-batch
 * emissions against the full-dataset indexes (emitBatchTrace) and
 * against shard sub-indexes (emitShardBatchTrace), and of offline
 * workload emissions (emitSemantic), under both lowerings. The values
 * were captured before the full-dataset and shard index builders were
 * merged into one builder; a change to how any index is built, or to
 * which index a batch emits from, fails here. The 1-shard index is
 * the whole-dataset index itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

#include "shard/shard_index.hh"
#include "sim/trace_stats.hh"

namespace hsu::shard
{
namespace
{

constexpr std::size_t kPool = 1024;

/** One emission workload: a family, a dataset and its GGNN knobs. */
struct Workload
{
    const char *name;
    Algo algo;
    DatasetId dataset;
    ServeKnobs knobs;
};

const Workload kWorkloads[] = {
    {"ggnn", Algo::Ggnn, DatasetId::Sift10k, ServeKnobs{32, 10}},
    {"ggnn8,4", Algo::Ggnn, DatasetId::Sift10k, ServeKnobs{8, 4}},
    {"flann", Algo::Flann, DatasetId::Bunny, ServeKnobs{}},
    {"bvhnn", Algo::Bvhnn, DatasetId::Random10k, ServeKnobs{}},
    {"btree", Algo::Btree, DatasetId::BTree10k, ServeKnobs{}},
};

/** Baseline and HSU fingerprints of one emission. */
struct Pin
{
    std::uint64_t base;
    std::uint64_t hsu;
};

std::vector<std::uint32_t>
firstIds(std::size_t n)
{
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    return ids;
}

/** Compare @p got with @p want, printing a replacement row on failure. */
void
expectPin(const std::string &what, const Pin &got, const Pin &want)
{
    EXPECT_EQ(got.base, want.base) << what;
    EXPECT_EQ(got.hsu, want.hsu) << what;
    if (got.base != want.base || got.hsu != want.hsu) {
        std::printf("    {0x%016llxull, 0x%016llxull}, // %s\n",
                    static_cast<unsigned long long>(got.base),
                    static_cast<unsigned long long>(got.hsu),
                    what.c_str());
    }
}

TEST(ShardIndex, OneShardIsTheWholeDatasetIndex)
{
    // Four threads race for S10K's index (first test here, so nothing
    // has built it yet), two through the 1-shard slice (one per
    // policy) and two through the whole-dataset accessor the runner
    // emits from: one build, one object.
    const DatasetId ds = DatasetId::Sift10k;
    std::vector<const DatasetIndex *> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&got, t, ds] {
            switch (t) {
              case 0:
                got[t] = &shardIndex(ds, PartitionPolicy::Spatial, 1, 0);
                break;
              case 1:
                got[t] = &shardIndex(ds, PartitionPolicy::Hash, 1, 0);
                break;
              default:
                got[t] = &datasetIndex(ds);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const DatasetIndex *idx : got)
        EXPECT_EQ(idx, got[0]);
    EXPECT_TRUE(got[0]->ids.empty());

    // emitBatchTrace, emitShardBatchTrace at one shard and emitSemantic
    // all emit from that object.
    const std::vector<std::uint32_t> ids = firstIds(64);
    const DatapathConfig dp;
    const auto direct = traceFingerprint(*emitIndexTrace(
        Algo::Ggnn, *got[0], KernelVariant::Hsu, dp, ids, kPool,
        ServeKnobs{}));
    EXPECT_EQ(traceFingerprint(*emitBatchTrace(
                  Algo::Ggnn, ds, KernelVariant::Hsu, dp, ids, kPool)),
              direct);
    for (const PartitionPolicy policy :
         {PartitionPolicy::Spatial, PartitionPolicy::Hash}) {
        EXPECT_EQ(traceFingerprint(*emitShardBatchTrace(
                      Algo::Ggnn, ShardKey{ds, policy, 1, 0},
                      KernelVariant::Hsu, dp, ids, kPool)),
                  direct);
    }
    RunnerOptions opts;
    opts.ggnnQueries = 64;
    const Lowering hsu = Lowering::hsu(dp);
    EXPECT_EQ(traceFingerprint(lowerTrace(emitSemantic(Algo::Ggnn, ds, opts),
                                          hsu)),
              traceFingerprint(lowerTrace(
                  emitIndexSem(Algo::Ggnn, *got[0], ids, 64), hsu)));
}

TEST(ShardIndex, WholeDatasetIndexReadsTheStore)
{
    // The whole-dataset index, and the structures and kernels built
    // over it, refer to the dataset store's one copy of the points.
    const DatasetIndex &ann = datasetIndex(DatasetId::Sift10k);
    const PointSet &ann_store = datasetPoints(DatasetId::Sift10k);
    EXPECT_EQ(ann.points, &ann_store);
    EXPECT_EQ(&ann.graph->points(), &ann_store);
    EXPECT_EQ(ann.slicePoints.size(), 0u);

    const DatasetIndex &pts = datasetIndex(DatasetId::Random10k);
    const PointSet &pts_store = datasetPoints(DatasetId::Random10k);
    EXPECT_EQ(pts.points, &pts_store);
    EXPECT_EQ(&pts.kdtree->points(), &pts_store);
    EXPECT_EQ(pts.slicePoints.size(), 0u);
}

TEST(ShardIndex, ShardPointsAreAGatherOfTheStore)
{
    const DatasetId ds = DatasetId::Random10k;
    const PointSet &store = datasetPoints(ds);
    const Partitioning &part =
        cachedPartitioning(ds, PartitionPolicy::Spatial, 4);
    for (unsigned s = 0; s < 4; ++s) {
        const DatasetIndex &idx =
            shardIndex(ds, PartitionPolicy::Spatial, 4, s);
        const std::vector<std::uint32_t> &ids = part.shards[s].ids;
        ASSERT_EQ(idx.points, &idx.slicePoints) << "shard " << s;
        EXPECT_EQ(&idx.kdtree->points(), &idx.slicePoints);
        EXPECT_EQ(idx.ids, ids);
        ASSERT_EQ(idx.points->size(), ids.size());
        ASSERT_EQ(idx.points->dim(), store.dim());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            ASSERT_EQ(std::memcmp((*idx.points)[i], store[ids[i]],
                                  store.strideBytes()),
                      0)
                << "shard " << s << " row " << i;
        }
    }
}

TEST(ShardIndex, FullDatasetBatchEmissionsArePinned)
{
    const Pin want[] = {
        {0x70d5cb74a2c95aaaull, 0x66c9f81cc5613dc5ull}, // ggnn
        {0xe2b122fc7eb03693ull, 0x54b80f861fd7cf03ull}, // ggnn8,4
        {0x465dde43493db225ull, 0xc68698ad20f9524eull}, // flann
        {0x940900f155059a6bull, 0xa3d81107137ee056ull}, // bvhnn
        {0xf4eb6bbd1942514cull, 0xe017e48a98110b29ull}, // btree
    };
    const std::vector<std::uint32_t> ids = firstIds(64);
    const DatapathConfig dp;
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
        const Workload &w = kWorkloads[i];
        const Pin got{
            traceFingerprint(*emitBatchTrace(w.algo, w.dataset,
                                             KernelVariant::Baseline, dp,
                                             ids, kPool, w.knobs)),
            traceFingerprint(*emitBatchTrace(w.algo, w.dataset,
                                             KernelVariant::Hsu, dp, ids,
                                             kPool, w.knobs))};
        expectPin(w.name, got, want[i]);
    }
}

TEST(ShardIndex, ShardBatchEmissionsArePinned)
{
    struct Split
    {
        PartitionPolicy policy;
        unsigned numShards;
    };
    const Split splits[] = {{PartitionPolicy::Spatial, 2},
                            {PartitionPolicy::Hash, 2},
                            {PartitionPolicy::Spatial, 4}};
    // Row order: workload, then split, then first and last shard.
    const Pin want[] = {
        {0x56e477d094eaac62ull, 0x6c2a04956252fe00ull}, // ggnn spatial/2 #0
        {0xd1b3ba413c537630ull, 0x92e0ab9e76c22f69ull}, // ggnn spatial/2 #1
        {0x91d8e8e043d890e8ull, 0xd91f7c121f7c4717ull}, // ggnn hash/2 #0
        {0x1889a2223c12d62bull, 0x90d6daae1c677082ull}, // ggnn hash/2 #1
        {0x8bea71d143c37021ull, 0x732eb2f965380837ull}, // ggnn spatial/4 #0
        {0xa246029c9840c524ull, 0xc0805aa15c54cb24ull}, // ggnn spatial/4 #3
        {0x9e78fe66d543188full, 0x4ddb4564e0d7dd28ull}, // ggnn8,4 spatial/2 #0
        {0x7d79b1ab6a6d888full, 0x3c2d76481bb37ac9ull}, // ggnn8,4 spatial/2 #1
        {0xde1980c01dabfee7ull, 0x7720e779e74dfb34ull}, // ggnn8,4 hash/2 #0
        {0xe7ca5b9d25539899ull, 0xc941aba2770ad899ull}, // ggnn8,4 hash/2 #1
        {0x06e341e6e9bf5fcbull, 0x9a2aa43f9fd66181ull}, // ggnn8,4 spatial/4 #0
        {0x9bdc9da89917273cull, 0x7be791add01e82ddull}, // ggnn8,4 spatial/4 #3
        {0x5a1cf4b921348725ull, 0x6065b9e529779678ull}, // flann spatial/2 #0
        {0xd2392543e09edddaull, 0x0781c067b3a2ccb7ull}, // flann spatial/2 #1
        {0xdc5d46a300916e97ull, 0xb338a2ee911f4644ull}, // flann hash/2 #0
        {0xb2da7bad4329aea6ull, 0x665f9bc94ab9a1faull}, // flann hash/2 #1
        {0xa6e10ef4ca2a69d1ull, 0xb0aa2cd9fd7cd409ull}, // flann spatial/4 #0
        {0xb5b518c368a9288cull, 0xb58be45458dd2021ull}, // flann spatial/4 #3
        {0x45422adf9e02a713ull, 0xf8388f8fb9e2f4b1ull}, // bvhnn spatial/2 #0
        {0x71c69bef9d47d565ull, 0x4a41edbf8bec13dfull}, // bvhnn spatial/2 #1
        {0x27e09fe7c137f810ull, 0x188b7400dace0e9full}, // bvhnn hash/2 #0
        {0x3653f081d96b23aaull, 0xf17c53a21decfb59ull}, // bvhnn hash/2 #1
        {0x3676b2407541c3c2ull, 0x823fa1a0b5287635ull}, // bvhnn spatial/4 #0
        {0x1ea84a1b7dc35ae9ull, 0x6afee9735b09fbc5ull}, // bvhnn spatial/4 #3
        {0x2b107daa44c49103ull, 0x1ec0d8592cb211efull}, // btree spatial/2 #0
        {0xd7ab1f7cced4c807ull, 0x4762ad3283e7baa7ull}, // btree spatial/2 #1
        {0x1e95e4ba3d018ebbull, 0x8911c9c6db0c1cd3ull}, // btree hash/2 #0
        {0x34db3b1551e687ecull, 0x0cb462f8f06ec8ecull}, // btree hash/2 #1
        {0x16e13cc08ea48aa7ull, 0xb8c1459556f894b7ull}, // btree spatial/4 #0
        {0xc1d7768f94671677ull, 0x90e182adbcc6f1efull}, // btree spatial/4 #3
    };
    const std::vector<std::uint32_t> ids = firstIds(64);
    const DatapathConfig dp;
    std::size_t row = 0;
    for (const Workload &w : kWorkloads) {
        for (const Split &s : splits) {
            for (const unsigned shard : {0u, s.numShards - 1}) {
                const ShardKey key{w.dataset, s.policy, s.numShards,
                                   shard};
                const Pin got{
                    traceFingerprint(*emitShardBatchTrace(
                        w.algo, key, KernelVariant::Baseline, dp, ids,
                        kPool, w.knobs)),
                    traceFingerprint(*emitShardBatchTrace(
                        w.algo, key, KernelVariant::Hsu, dp, ids, kPool,
                        w.knobs))};
                expectPin(std::string(w.name) + " " +
                              toString(s.policy) + "/" +
                              std::to_string(s.numShards) + " #" +
                              std::to_string(shard),
                          got, want[row++]);
            }
        }
    }
}

TEST(ShardIndex, OfflineEmissionsArePinned)
{
    struct Offline
    {
        const char *name;
        Algo algo;
        DatasetId dataset;
    };
    const Offline cases[] = {
        {"ggnn", Algo::Ggnn, DatasetId::Sift10k},
        {"flann", Algo::Flann, DatasetId::Bunny},
        {"bvhnn", Algo::Bvhnn, DatasetId::Random10k},
        {"btree", Algo::Btree, DatasetId::BTree10k},
    };
    const Pin want[] = {
        {0x457aa779bab72d5dull, 0x1acb74fb6eb67ab8ull}, // ggnn
        {0x05e4e72e8b727263ull, 0x3242f727b216066bull}, // flann
        {0x71c1455ac71a618full, 0xf771ec994326175dull}, // bvhnn
        {0x32b8ad94a3787fd3ull, 0x513de041adf0f087ull}, // btree
    };
    RunnerOptions opts;
    opts.ggnnQueries = 32;
    opts.pointQueries = 256;
    opts.keyQueries = 512;
    const DatapathConfig dp;
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const Offline &c = cases[i];
        const SemKernelTrace sem = emitSemantic(c.algo, c.dataset, opts);
        const Pin got{
            traceFingerprint(lowerTrace(sem, Lowering::baseline(dp))),
            traceFingerprint(lowerTrace(sem, Lowering::hsu(dp)))};
        expectPin(c.name, got, want[i]);
    }
}

} // namespace
} // namespace hsu::shard
