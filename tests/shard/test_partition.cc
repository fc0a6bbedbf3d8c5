/**
 * @file
 * Partitioner invariants: every base element lands on exactly one
 * shard, spatial slices are contiguous/bounded, hash slices follow
 * hashShardOf, and partitionings are pure functions of their key.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "shard/partition.hh"

namespace hsu::shard
{
namespace
{

const DatasetId kDatasets[] = {DatasetId::Sift10k, DatasetId::Random10k,
                               DatasetId::BTree10k};
const PartitionPolicy kPolicies[] = {PartitionPolicy::Spatial,
                                     PartitionPolicy::Hash};

std::size_t
baseElements(DatasetId id)
{
    const DatasetInfo &info = datasetInfo(id);
    if (info.kind == DatasetKind::Keys)
        return generateKeys(info).size();
    return generatePoints(info).size();
}

TEST(Partition, DisjointCover)
{
    for (const DatasetId id : kDatasets) {
        const std::size_t n = baseElements(id);
        for (const PartitionPolicy policy : kPolicies) {
            for (const unsigned shards : {1u, 2u, 4u}) {
                const Partitioning part =
                    partitionDataset(id, policy, shards);
                EXPECT_EQ(part.numShards(), shards);
                EXPECT_EQ(part.totalElements(), n);
                std::set<std::uint32_t> seen;
                for (const ShardSlice &slice : part.shards) {
                    EXPECT_TRUE(std::is_sorted(slice.ids.begin(),
                                               slice.ids.end()));
                    for (const std::uint32_t e : slice.ids)
                        EXPECT_TRUE(seen.insert(e).second)
                            << "element " << e << " on two shards";
                }
                EXPECT_EQ(seen.size(), n);
            }
        }
    }
}

TEST(Partition, SpatialPopulationsBalanced)
{
    for (const DatasetId id : kDatasets) {
        const Partitioning part =
            partitionDataset(id, PartitionPolicy::Spatial, 4);
        std::size_t lo = part.shards[0].ids.size();
        std::size_t hi = lo;
        for (const ShardSlice &slice : part.shards) {
            lo = std::min(lo, slice.ids.size());
            hi = std::max(hi, slice.ids.size());
        }
        EXPECT_LE(hi - lo, 1u);
    }
}

TEST(Partition, SpatialKeyRangesDisjointAscending)
{
    const Partitioning part =
        partitionDataset(DatasetId::BTree10k, PartitionPolicy::Spatial,
                         4);
    const std::vector<std::uint32_t> keys =
        generateKeys(datasetInfo(DatasetId::BTree10k));
    for (unsigned s = 0; s < part.numShards(); ++s) {
        const ShardSlice &slice = part.shards[s];
        ASSERT_FALSE(slice.ids.empty());
        EXPECT_LE(slice.keyLo, slice.keyHi);
        // Every owned key lies inside the advertised range.
        for (const std::uint32_t rank : slice.ids) {
            EXPECT_GE(keys[rank], slice.keyLo);
            EXPECT_LE(keys[rank], slice.keyHi);
        }
        if (s > 0) {
            EXPECT_GT(slice.keyLo, part.shards[s - 1].keyHi);
        }
    }
}

TEST(Partition, SpatialBoundsContainPoints)
{
    const DatasetInfo &info = datasetInfo(DatasetId::Random10k);
    const PointSet points = generatePoints(info);
    const Partitioning part = partitionDataset(
        DatasetId::Random10k, PartitionPolicy::Spatial, 4);
    for (const ShardSlice &slice : part.shards) {
        for (const std::uint32_t id : slice.ids) {
            const Vec3 p = points.vec3(id);
            EXPECT_EQ(slice.bounds.distance2(p), 0.0f);
        }
    }
}

TEST(Partition, HashSlicesFollowHashShardOf)
{
    const DatasetInfo &info = datasetInfo(DatasetId::Random10k);
    const Partitioning part = partitionDataset(
        DatasetId::Random10k, PartitionPolicy::Hash, 4);
    for (unsigned s = 0; s < part.numShards(); ++s) {
        for (const std::uint32_t id : part.shards[s].ids)
            EXPECT_EQ(hashShardOf(info, id, 4), s);
    }
    // Keys datasets hash the key value, not the rank.
    const DatasetInfo &kinfo = datasetInfo(DatasetId::BTree10k);
    const std::vector<std::uint32_t> keys = generateKeys(kinfo);
    const Partitioning kpart =
        partitionDataset(DatasetId::BTree10k, PartitionPolicy::Hash, 4);
    for (unsigned s = 0; s < kpart.numShards(); ++s) {
        for (const std::uint32_t rank : kpart.shards[s].ids)
            EXPECT_EQ(hashShardOf(kinfo, keys[rank], 4), s);
    }
}

TEST(Partition, HashPopulationsRoughlyBalanced)
{
    for (const DatasetId id : kDatasets) {
        const Partitioning part =
            partitionDataset(id, PartitionPolicy::Hash, 4);
        const double mean =
            static_cast<double>(part.totalElements()) / 4.0;
        for (const ShardSlice &slice : part.shards) {
            EXPECT_GT(static_cast<double>(slice.ids.size()),
                      0.8 * mean);
            EXPECT_LT(static_cast<double>(slice.ids.size()),
                      1.2 * mean);
        }
    }
}

TEST(Partition, PureFunctionOfKey)
{
    for (const PartitionPolicy policy : kPolicies) {
        const Partitioning a =
            partitionDataset(DatasetId::Random10k, policy, 4);
        const Partitioning b =
            partitionDataset(DatasetId::Random10k, policy, 4);
        ASSERT_EQ(a.numShards(), b.numShards());
        for (unsigned s = 0; s < a.numShards(); ++s)
            EXPECT_EQ(a.shards[s].ids, b.shards[s].ids);
    }
}

} // namespace
} // namespace hsu::shard
