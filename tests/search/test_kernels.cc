/**
 * @file
 * Search-kernel tests: each kernel's functional results must match an
 * independent reference, and its one emitted trace must lower to
 * well-formed baseline and HSU traces.
 */

#include <gtest/gtest.h>

#include <map>

#include "../test_util.hh"
#include "search/btree_kernel.hh"
#include "search/bvhnn.hh"
#include "search/flann.hh"
#include "search/ggnn.hh"
#include "search/rtindex.hh"
#include "sim/lower.hh"
#include "workloads/datasets.hh"

namespace hsu
{
namespace
{

TEST(BvhnnKernel, MatchesBruteForceRadiusNN)
{
    const float r = 0.5f;
    const PointSet pts = test::randomCloud(800, 3, 21);
    const Lbvh bvh = Lbvh::buildFromPoints(pts, r);
    BvhnnKernel kernel(pts, bvh, BvhnnConfig{r});
    const PointSet queries = test::randomCloud(200, 3, 22);

    const BvhnnEmit got = kernel.emit(queries);
    EXPECT_TRUE(test::traceWellFormed(lowerTrace(got.sem, Lowering::hsu())));

    for (std::size_t q = 0; q < queries.size(); ++q) {
        // Brute-force nearest within radius.
        int best = -1;
        float best_d2 = r * r;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const float d2 = pointDist2(queries[q], pts[i], 3);
            if (d2 <= best_d2 && (best < 0 || d2 < best_d2)) {
                best_d2 = d2;
                best = static_cast<int>(i);
            }
        }
        EXPECT_EQ(got.results[q].index, best) << "query " << q;
        if (best >= 0) {
            EXPECT_FLOAT_EQ(got.results[q].dist2, best_d2);
        }
    }
}

TEST(BvhnnKernel, HsuLoweringTradesLoadsForHsuOps)
{
    const PointSet pts = test::randomCloud(400, 3, 23);
    const float r = 0.6f;
    const Lbvh bvh = Lbvh::buildFromPoints(pts, r);
    BvhnnKernel kernel(pts, bvh, BvhnnConfig{r});
    const PointSet queries = test::randomCloud(64, 3, 24);

    const SemKernelTrace sem = kernel.emit(queries).sem;
    const KernelTrace base = lowerTrace(sem, Lowering::baseline());
    const KernelTrace hsu = lowerTrace(sem, Lowering::hsu());
    EXPECT_EQ(test::countOps(base, OpType::HsuOp), 0u);
    EXPECT_GT(test::countOps(hsu, OpType::HsuOp), 0u);
    EXPECT_GT(test::countOps(base, OpType::Load),
              test::countOps(hsu, OpType::Load));
}

TEST(FlannKernel, MatchesBruteForce1NN)
{
    const PointSet pts = test::randomCloud(1000, 3, 25);
    const KdTree tree = KdTree::build(pts, 8);
    FlannKernel kernel(tree);
    const PointSet queries = test::randomCloud(150, 3, 26);

    const FlannEmit got = kernel.emit(queries);
    EXPECT_TRUE(test::traceWellFormed(lowerTrace(got.sem, Lowering::hsu())));
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto want = test::bruteKnn(pts, queries[q], 1);
        EXPECT_FLOAT_EQ(got.results[q].dist2, want[0].dist2)
            << "query " << q;
    }
}

TEST(FlannKernel, BaselineLoweringIsWellFormed)
{
    const PointSet pts = test::randomCloud(500, 3, 27);
    const KdTree tree = KdTree::build(pts, 16);
    FlannKernel kernel(tree);
    const PointSet queries = test::randomCloud(64, 3, 28);
    const SemKernelTrace sem = kernel.emit(queries).sem;
    EXPECT_TRUE(
        test::traceWellFormed(lowerTrace(sem, Lowering::baseline())));
}

TEST(GgnnKernel, HighRecallOnClusteredData)
{
    const auto &info = datasetInfo(DatasetId::Sift10k);
    PointSet pts = generatePoints(info);
    const HnswGraph graph = HnswGraph::build(pts, info.metric);
    GgnnKernel kernel(graph, GgnnConfig{});
    const PointSet queries = generateQueries(info, 24);

    const GgnnEmit got = kernel.emit(queries);
    EXPECT_TRUE(test::traceWellFormed(lowerTrace(got.sem, Lowering::hsu())));
    ASSERT_EQ(got.results.size(), queries.size());

    double recall = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto want = test::bruteKnn(pts, queries[q], 10);
        std::size_t hits = 0;
        for (const auto &w : want) {
            for (const auto &g : got.results[q]) {
                if (g.index == w.index) {
                    ++hits;
                    break;
                }
            }
        }
        recall += static_cast<double>(hits) / 10.0;
    }
    recall /= static_cast<double>(queries.size());
    EXPECT_GE(recall, 0.8);
}

TEST(GgnnKernel, AngularUsesAngularInstructions)
{
    const PointSet pts = test::randomCloud(400, 16, 31);
    const HnswGraph graph = HnswGraph::build(pts, Metric::Angular);
    GgnnKernel kernel(graph, GgnnConfig{});
    const PointSet queries = test::randomCloud(8, 16, 32);
    const KernelTrace hsu =
        lowerTrace(kernel.emit(queries).sem, Lowering::hsu());
    std::size_t angular_ops = 0, euclid_ops = 0;
    for (const auto &w : hsu.warps) {
        for (const auto &op : w.ops) {
            if (op.type != OpType::HsuOp)
                continue;
            if (op.hsuMode == HsuMode::Angular)
                ++angular_ops;
            if (op.hsuMode == HsuMode::Euclid)
                ++euclid_ops;
        }
    }
    EXPECT_GT(angular_ops, 0u);
    EXPECT_EQ(euclid_ops, 0u);
}

TEST(BtreeKernel, LookupsMatchTree)
{
    Rng rng(33);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t i = 0; i < 30000; ++i) {
        pairs.emplace_back(
            static_cast<std::uint32_t>(rng.nextBounded(1u << 24)), i);
    }
    const BTree tree = BTree::build(pairs, 256);
    BtreeKernel kernel(tree);

    std::vector<std::uint32_t> probes;
    for (int i = 0; i < 500; ++i) {
        probes.push_back(
            static_cast<std::uint32_t>(rng.nextBounded(1u << 24)));
    }
    const BtreeEmit got = kernel.emit(probes);
    const KernelTrace base = lowerTrace(got.sem, Lowering::baseline());
    const KernelTrace hsu = lowerTrace(got.sem, Lowering::hsu());
    EXPECT_TRUE(test::traceWellFormed(base));
    EXPECT_TRUE(test::traceWellFormed(hsu));
    for (std::size_t i = 0; i < probes.size(); ++i)
        EXPECT_EQ(got.results[i], tree.lookup(probes[i])) << i;
    // HSU replaces the internal-node scans with KEY_COMPARE ops.
    EXPECT_GT(test::countOps(hsu, OpType::HsuOp), 0u);
    EXPECT_EQ(test::countOps(base, OpType::HsuOp), 0u);
}

TEST(RtindexKernel, BothKeyFormsFindExactlyPresentKeys)
{
    Rng rng(34);
    std::vector<std::uint32_t> keys;
    std::uint32_t cur = 100;
    for (int i = 0; i < 5000; ++i)
        keys.push_back(cur += 1 + rng.nextBounded(5));
    const std::uint32_t max_key = cur;
    RtindexKernel index(keys);
    EXPECT_TRUE(index.bvh().validate());

    std::vector<std::uint32_t> probes;
    for (int i = 0; i < 400; ++i)
        probes.push_back(
            static_cast<std::uint32_t>(rng.nextBounded(max_key + 50)));

    const RtindexEmit tri = index.emit(probes, RtindexForm::Tri);
    const RtindexEmit key = index.emit(probes, RtindexForm::Native);
    EXPECT_EQ(tri.leafBytesPerKey, 36u);
    EXPECT_EQ(key.leafBytesPerKey, 4u);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const bool present = std::binary_search(keys.begin(), keys.end(),
                                                probes[i]);
        EXPECT_EQ(tri.found[i], present) << "probe " << i;
        EXPECT_EQ(key.found[i], present) << "probe " << i;
    }
}

} // namespace
} // namespace hsu
