/**
 * @file
 * BVH4 traversal mode of the BVH-NN kernel (the Section VI-E ablation):
 * results must match the binary path and brute force; the trace must
 * use wide RAY_INTERSECT ops.
 */

#include <gtest/gtest.h>

#include "../test_util.hh"
#include "search/bvhnn.hh"
#include "sim/lower.hh"

namespace hsu
{
namespace
{

TEST(Bvh4Kernel, MatchesBinaryAndBruteForce)
{
    const float r = 0.5f;
    const PointSet pts = test::randomCloud(700, 3, 41);
    const Lbvh bvh = Lbvh::buildFromPoints(pts, r);
    BvhnnKernel binary(pts, bvh, BvhnnConfig{r, false});
    BvhnnKernel wide(pts, bvh, BvhnnConfig{r, true});
    const PointSet queries = test::randomCloud(150, 3, 42);

    const BvhnnEmit bin = binary.emit(queries);
    const BvhnnEmit w4 = wide.emit(queries);
    EXPECT_TRUE(test::traceWellFormed(lowerTrace(w4.sem, Lowering::hsu())));

    for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(bin.results[q].index, w4.results[q].index)
            << "query " << q;
        // Brute force as the independent reference.
        int best = -1;
        float best_d2 = r * r;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const float d2 = pointDist2(queries[q], pts[i], 3);
            if (d2 <= best_d2 && (best < 0 || d2 < best_d2)) {
                best_d2 = d2;
                best = static_cast<int>(i);
            }
        }
        EXPECT_EQ(w4.results[q].index, best) << "query " << q;
    }
}

TEST(Bvh4Kernel, FewerWiderNodeFetches)
{
    const float r = 0.4f;
    const PointSet pts = test::randomCloud(1000, 3, 43);
    const Lbvh bvh = Lbvh::buildFromPoints(pts, r);
    BvhnnKernel binary(pts, bvh, BvhnnConfig{r, false});
    BvhnnKernel wide(pts, bvh, BvhnnConfig{r, true});
    const PointSet queries = test::randomCloud(128, 3, 44);

    const KernelTrace bin =
        lowerTrace(binary.emit(queries).sem, Lowering::hsu());
    const KernelTrace w4 =
        lowerTrace(wide.emit(queries).sem, Lowering::hsu());

    // Count box-mode HSU instructions and bytes per instruction.
    auto box_ops = [](const KernelTrace &kt) {
        std::size_t n = 0;
        for (const auto &w : kt.warps) {
            for (const auto &op : w.ops) {
                if (op.type == OpType::HsuOp &&
                    op.hsuMode == HsuMode::RayBox) {
                    ++n;
                }
            }
        }
        return n;
    };
    EXPECT_LT(box_ops(w4), box_ops(bin));

    // The 4-wide node is a 128B fetch (vs 64B binary nodes).
    for (const auto &w : w4.warps) {
        for (const auto &op : w.ops) {
            if (op.type == OpType::HsuOp &&
                op.hsuMode == HsuMode::RayBox) {
                EXPECT_EQ(op.bytesPerLane, BoxNode4::kBytes);
            }
        }
    }
}

TEST(Bvh4Kernel, BaselineLoweringHasNoHsuOps)
{
    const float r = 0.6f;
    const PointSet pts = test::randomCloud(300, 3, 45);
    const Lbvh bvh = Lbvh::buildFromPoints(pts, r);
    BvhnnKernel wide(pts, bvh, BvhnnConfig{r, true});
    const PointSet queries = test::randomCloud(64, 3, 46);
    const KernelTrace base =
        lowerTrace(wide.emit(queries).sem, Lowering::baseline());
    EXPECT_EQ(test::countOps(base, OpType::HsuOp), 0u);
}

} // namespace
} // namespace hsu
