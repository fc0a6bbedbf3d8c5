/**
 * @file
 * Golden-trace regression: the semantic-IR + lowering path must
 * reproduce the pre-refactor per-variant kernel emissions
 * bit-identically. The fingerprints below were captured from the seed
 * code (kernels emitting baseline/HSU instruction sequences inline)
 * over the fixed workloads in golden_workloads.hh; any change to
 * emission order, masks, token assignment, or address pools fails
 * here. If a lowering change is INTENTIONAL, re-capture the values
 * (build the old probe or print the new fingerprints) and say so in
 * the commit message.
 */

#include <gtest/gtest.h>

#include "golden_workloads.hh"
#include "sim/lower.hh"
#include "sim/trace_stats.hh"

namespace hsu
{
namespace
{

/** Fingerprint of @p sem lowered under @p low. */
std::uint64_t
pin(const SemKernelTrace &sem, const Lowering &low)
{
    return traceFingerprint(lowerTrace(sem, low));
}

TEST(GoldenTrace, GgnnEuclid)
{
    const auto w = golden::ggnnEuclid();
    const HnswGraph g = HnswGraph::build(w.points, Metric::Euclidean);
    const GgnnKernel k(g, GgnnConfig{});
    const SemKernelTrace sem = k.emit(w.queries).sem;
    EXPECT_EQ(pin(sem, Lowering::baseline()), 0x1c4be218d7cda5ebull);
    EXPECT_EQ(pin(sem, Lowering::hsu()), 0x1fb71806993628f7ull);
}

TEST(GoldenTrace, GgnnAngular)
{
    const auto w = golden::ggnnAngular();
    const HnswGraph g = HnswGraph::build(w.points, Metric::Angular);
    const GgnnKernel k(g, GgnnConfig{});
    const SemKernelTrace sem = k.emit(w.queries).sem;
    EXPECT_EQ(pin(sem, Lowering::baseline()), 0x6beaffe90e69beb2ull);
    EXPECT_EQ(pin(sem, Lowering::hsu()), 0xe63b6381ee506f8dull);
}

TEST(GoldenTrace, Flann)
{
    const auto w = golden::pointCloud();
    const KdTree tree = KdTree::build(w.points, 16);
    const FlannKernel k(tree);
    const SemKernelTrace sem = k.emit(w.queries).sem;
    EXPECT_EQ(pin(sem, Lowering::baseline()), 0x7131b4f0681ce5a5ull);
    EXPECT_EQ(pin(sem, Lowering::hsu()), 0x42f202036ccad617ull);
}

TEST(GoldenTrace, Bvhnn)
{
    const auto w = golden::pointCloud();
    const Lbvh bvh = Lbvh::buildFromPoints(w.points, w.radius);
    const BvhnnKernel k(w.points, bvh, BvhnnConfig{w.radius});
    const SemKernelTrace sem = k.emit(w.queries).sem;
    EXPECT_EQ(pin(sem, Lowering::baseline()), 0x9eecd778343dd9d6ull);
    EXPECT_EQ(pin(sem, Lowering::hsu()), 0xe6a7849816cbf1daull);
}

TEST(GoldenTrace, Bvhnn4Wide)
{
    const auto w = golden::pointCloud();
    const Lbvh bvh = Lbvh::buildFromPoints(w.points, w.radius);
    BvhnnConfig cfg{w.radius};
    cfg.useBvh4 = true;
    const BvhnnKernel k(w.points, bvh, cfg);
    const SemKernelTrace sem = k.emit(w.queries).sem;
    EXPECT_EQ(pin(sem, Lowering::baseline()), 0x791edbb4f38453a4ull);
    EXPECT_EQ(pin(sem, Lowering::hsu()), 0xce9c813062751118ull);
}

TEST(GoldenTrace, Btree)
{
    auto w = golden::btreeKeys();
    const BTree tree = BTree::build(std::move(w.pairs), 256);
    const BtreeKernel k(tree);
    const SemKernelTrace sem = k.emit(w.probes).sem;
    EXPECT_EQ(pin(sem, Lowering::baseline()), 0x8536067922c74932ull);
    EXPECT_EQ(pin(sem, Lowering::hsu()), 0x0def584e4e6ba08eull);
}

TEST(GoldenTrace, Rtindex)
{
    const auto w = golden::rtindexKeys();
    const RtindexKernel k(w.keys);
    EXPECT_EQ(pin(k.emit(w.probes, RtindexForm::Tri).sem,
                  Lowering::baseline()),
              0x261175e7a477f705ull);
    EXPECT_EQ(pin(k.emit(w.probes, RtindexForm::Native).sem,
                  Lowering::hsu()),
              0xb105970b27344ae2ull);
}

// PartialOffload at fraction 0 and 1 must reproduce the Baseline and
// Hsu lowerings of the same trace (the pins of GoldenTrace.Bvhnn).
TEST(GoldenTrace, PartialOffloadEndpoints)
{
    const auto w = golden::pointCloud();
    const Lbvh bvh = Lbvh::buildFromPoints(w.points, w.radius);
    const BvhnnKernel k(w.points, bvh, BvhnnConfig{w.radius});
    const SemKernelTrace sem = k.emit(w.queries).sem;
    EXPECT_EQ(pin(sem, Lowering::partial(0.0)), 0x9eecd778343dd9d6ull);
    EXPECT_EQ(pin(sem, Lowering::partial(1.0)), 0xe6a7849816cbf1daull);
}

} // namespace
} // namespace hsu
