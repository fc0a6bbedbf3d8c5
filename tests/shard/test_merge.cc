/**
 * @file
 * Scatter-gather merge correctness: for every index family and both
 * partition policies, the merged sharded answer set is bit-identical
 * to an independent unsharded oracle at N in {1, 2, 4} shards. This
 * pins, in one equality, that the partitioner loses/duplicates no
 * element, that router pruning never skips a shard holding part of
 * the answer, that the per-shard kernels are exact over their slices,
 * and that the merge's (dist2, global id) order reconstructs the
 * global answer. Digests of the oracle's answers pin the oracle
 * itself, so a change that moved both sides the same way fails too.
 */

#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "shard/answers.hh"

namespace hsu::shard
{
namespace
{

constexpr std::size_t kPool = 64;

std::vector<std::uint32_t>
allPoolQueries()
{
    std::vector<std::uint32_t> ids(kPool);
    std::iota(ids.begin(), ids.end(), 0u);
    return ids;
}

DatasetId
datasetFor(Algo algo)
{
    switch (algo) {
      case Algo::Ggnn:
        return DatasetId::Sift10k;
      case Algo::Flann:
      case Algo::Bvhnn:
        return DatasetId::Random10k;
      case Algo::Btree:
        return DatasetId::BTree10k;
    }
    hsu_panic("unknown algo");
}

/** Sharded answers equal the unsharded oracle's at 1, 2 and 4 shards. */
void
expectShardedEqualsUnsharded(Algo algo, DatasetId dataset,
                             PartitionPolicy policy)
{
    const std::vector<std::uint32_t> queries = allPoolQueries();
    const AnswerSet golden =
        answerUnsharded(algo, dataset, queries, kPool);
    for (const unsigned shards : {1u, 2u, 4u}) {
        const AnswerSet merged = answerSharded(
            algo, dataset, policy, shards, queries, kPool);
        EXPECT_TRUE(merged == golden)
            << toString(algo) << " diverged at "
            << toString(policy) << " x" << shards;
    }
}

class MergeGolden
    : public ::testing::TestWithParam<std::tuple<Algo, PartitionPolicy>>
{
};

TEST_P(MergeGolden, ShardedEqualsUnsharded)
{
    const auto [algo, policy] = GetParam();
    expectShardedEqualsUnsharded(algo, datasetFor(algo), policy);
}

// toString(Algo) values contain '+'/'-', which gtest names disallow.
const char *const kAlgoNames[] = {"Ggnn", "Flann", "Bvhnn", "Btree"};

std::string
mergeGoldenName(
    const ::testing::TestParamInfo<std::tuple<Algo, PartitionPolicy>>
        &info)
{
    return std::string(
               kAlgoNames[static_cast<int>(std::get<0>(info.param))]) +
           "_" + toString(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MergeGolden,
    ::testing::Combine(::testing::Values(Algo::Ggnn, Algo::Flann,
                                         Algo::Bvhnn, Algo::Btree),
                       ::testing::Values(PartitionPolicy::Spatial,
                                         PartitionPolicy::Hash)),
    mergeGoldenName);

/** GGNN on an angular dataset: LFM, 65-d, Metric::Angular. */
class MergeGoldenAngular : public ::testing::TestWithParam<PartitionPolicy>
{
};

TEST_P(MergeGoldenAngular, GgnnShardedEqualsUnsharded)
{
    ASSERT_EQ(datasetInfo(DatasetId::LastFm).metric, Metric::Angular);
    expectShardedEqualsUnsharded(Algo::Ggnn, DatasetId::LastFm,
                                 GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    LastFm, MergeGoldenAngular,
    ::testing::Values(PartitionPolicy::Spatial, PartitionPolicy::Hash),
    [](const ::testing::TestParamInfo<PartitionPolicy> &info) {
        return toString(info.param);
    });

/**
 * Order-sensitive FNV-1a digest of an answer set: every result's id and
 * distance bits, query by query.
 */
std::uint64_t
answerDigest(const AnswerSet &a)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const std::vector<Neighbor> &list : a.topk) {
        mix(static_cast<std::uint32_t>(list.size()));
        for (const Neighbor &n : list) {
            mix(n.index);
            mix(std::bit_cast<std::uint32_t>(n.dist2));
        }
    }
    for (const Neighbor &n : a.nearest) {
        mix(n.index);
        mix(std::bit_cast<std::uint32_t>(n.dist2));
    }
    for (const RadiusHit &hit : a.radius) {
        mix(static_cast<std::uint32_t>(hit.index));
        mix(std::bit_cast<std::uint32_t>(hit.dist2));
    }
    for (const std::optional<std::uint32_t> &v : a.values) {
        mix(v.has_value());
        mix(v.value_or(0));
    }
    return h;
}

// Digests of the oracle's answers over the whole 64-query pool,
// captured before the datasets were generated once per process: how
// the points are stored or scanned must not move an answer.
TEST(MergeDigest, UnshardedAnswersArePinned)
{
    struct Pin
    {
        Algo algo;
        DatasetId dataset;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {Algo::Ggnn, DatasetId::Sift10k, 0xf16087b33d20285aull},
        {Algo::Ggnn, DatasetId::LastFm, 0xf184ebf7d8ba8edbull},
        {Algo::Flann, DatasetId::Random10k, 0x619cd63c9dee3541ull},
        {Algo::Bvhnn, DatasetId::Random10k, 0xac10b1c571487340ull},
        {Algo::Btree, DatasetId::BTree10k, 0x9a08e09bbf04939eull},
    };
    for (const Pin &pin : pins) {
        const std::uint64_t got = answerDigest(answerUnsharded(
            pin.algo, pin.dataset, allPoolQueries(), kPool));
        EXPECT_EQ(got, pin.digest)
            << toString(pin.algo) << "/"
            << datasetInfo(pin.dataset).abbr << ": got 0x" << std::hex
            << got;
    }
}

/** Both answer paths fail by name on a query id outside the pool,
 *  before any path indexes the pool with it. */
void
expectOutOfPoolIdDies(Algo algo)
{
    const DatasetId dataset = datasetFor(algo);
    const std::vector<std::uint32_t> ids = {3, 100000};
    const char *const why =
        "query id 100000 is outside the serving pool of 1024 queries";
    EXPECT_DEATH(answerUnsharded(algo, dataset, ids, 1024), why);
    EXPECT_DEATH(answerSharded(algo, dataset, PartitionPolicy::Spatial, 4,
                               ids, 1024),
                 why);
}

TEST(AnswerDeathTest, GgnnRejectsOutOfPoolIds)
{
    expectOutOfPoolIdDies(Algo::Ggnn);
}

TEST(AnswerDeathTest, FlannRejectsOutOfPoolIds)
{
    expectOutOfPoolIdDies(Algo::Flann);
}

TEST(AnswerDeathTest, BvhnnRejectsOutOfPoolIds)
{
    expectOutOfPoolIdDies(Algo::Bvhnn);
}

TEST(AnswerDeathTest, BtreeRejectsOutOfPoolIds)
{
    expectOutOfPoolIdDies(Algo::Btree);
}

TEST(Merge, TopKOrderIsTotal)
{
    // Two shards with interleaved distances and a cross-shard tie:
    // the merged order is (dist2, global id) regardless of input
    // arrangement.
    const std::vector<std::vector<Neighbor>> partials = {
        {{10, 0.25f}, {12, 0.5f}, {14, 0.5f}},
        {{3, 0.125f}, {13, 0.5f}},
    };
    const std::vector<Neighbor> merged = mergeTopK(partials, 4);
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_EQ(merged[0].index, 3u);
    EXPECT_EQ(merged[1].index, 10u);
    EXPECT_EQ(merged[2].index, 12u); // 0.5 tie broken by global id
    EXPECT_EQ(merged[3].index, 13u);

    // Shard enumeration order must not matter.
    const std::vector<std::vector<Neighbor>> swapped = {partials[1],
                                                        partials[0]};
    const std::vector<Neighbor> remerged = mergeTopK(swapped, 4);
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].index, remerged[i].index);
        EXPECT_EQ(merged[i].dist2, remerged[i].dist2);
    }
}

TEST(Merge, RadiusHitPrefersNearestThenLowestId)
{
    const RadiusHit none{-1, 0.0f};
    EXPECT_EQ(mergeRadiusHits({none, none}).index, -1);
    EXPECT_EQ(mergeRadiusHits({none, {7, 0.5f}}).index, 7);
    EXPECT_EQ(mergeRadiusHits({{9, 0.25f}, {7, 0.5f}}).index, 9);
    EXPECT_EQ(mergeRadiusHits({{9, 0.5f}, {7, 0.5f}}).index, 7);
}

TEST(Merge, LookupsSingleOwner)
{
    EXPECT_EQ(mergeLookups({std::nullopt, std::nullopt}), std::nullopt);
    EXPECT_EQ(mergeLookups({std::nullopt, 42u}), 42u);
}

} // namespace
} // namespace hsu::shard
