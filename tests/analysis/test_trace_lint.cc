/**
 * @file
 * trace_lint regression corpus: a valid semantic trace is corrupted one
 * invariant at a time and each corruption must trigger exactly its rule
 * ID — no more, no less — while the golden-trace workloads (the same
 * fixed-seed emissions the fingerprint test pins) lint clean under all
 * three lowerings.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "../search/golden_workloads.hh"
#include "analysis/trace_lint.hh"
#include "sim/lower.hh"

namespace hsu
{
namespace
{

/** A small semantic warp exercising every op kind, valid per the full
 *  rule catalog (the corruption tests each break one invariant). */
SemKernelTrace
validSem()
{
    SemKernelTrace sem;
    sem.warps.emplace_back();
    SemBuilder sb(sem.warps.back());
    std::uint64_t addrs[kWarpSize];
    for (unsigned i = 0; i < kWarpSize; ++i)
        addrs[i] = 0x1000 + 64ull * i;

    const VirtToken q = sb.loadPattern(0x8000, 4, 4);
    sb.alu(3, kFullMask, {q});
    sb.distanceWarpCoop(Metric::Euclidean, 64, addrs, 8,
                        ggnnDistanceShape(Metric::Euclidean, 64));
    const VirtToken d =
        sb.distanceLanes(3, addrs, kFullMask, bvhnnLeafShape());
    sb.alu(2, kFullMask, {d});
    sb.keyCompareScan(0x9000, 255);
    const VirtToken b = sb.boxTest(addrs, kFullMask, bvhBoxShape());
    sb.alu(1, kFullMask, {b});
    const VirtToken t = sb.triTest(addrs, 48, kFullMask);
    sb.alu(1, kFullMask, {t});
    sb.storePattern(0xa000, 8, 8);
    return sem;
}

/** The corruption fired its rule and nothing else (at error level). */
void
expectOnly(const LintReport &report, const char *rule_id)
{
    EXPECT_GT(report.countRule(rule_id), 0u)
        << "expected " << rule_id << ":\n"
        << report.str();
    EXPECT_EQ(report.errorCount() + report.warningCount(),
              report.countRule(rule_id))
        << "extra findings beyond " << rule_id << ":\n"
        << report.str();
}

TEST(TraceLint, ValidTraceIsClean)
{
    const SemKernelTrace sem = validSem();
    const LintReport report = lintWorkload(sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

// --- Corrupted corpus: semantic rules --------------------------------

TEST(TraceLint, UnresolvedVirtTokenIsIr001)
{
    // An op consuming a token whose producer comes later.
    SemKernelTrace sem;
    sem.warps.emplace_back();
    SemBuilder sb(sem.warps.back());
    const VirtToken a = sb.loadPattern(0x8000, 4, 4); // token 0
    sb.alu(1, kFullMask, {1});                        // token 1: not yet
    const VirtToken b = sb.loadPattern(0x8100, 4, 4); // token 1
    sb.alu(1, kFullMask, {a, b});
    expectOnly(lintSemTrace(sem), "IR001");
}

TEST(TraceLint, RedefinedVirtTokenIsIr002)
{
    // Two producers forced onto one token. The orphaned token (1) is
    // never consumed, so IR001 stays quiet and only the SSA violation
    // fires.
    SemKernelTrace sem;
    sem.warps.emplace_back();
    SemBuilder sb(sem.warps.back());
    const VirtToken a = sb.loadPattern(0x8000, 4, 4); // token 0
    sb.loadPattern(0x8100, 4, 4);                     // token 1
    sb.alu(1, kFullMask, {a});
    sem.warps[0].ops[1].produces = a;
    expectOnly(lintSemTrace(sem), "IR002");
}

TEST(TraceLint, AddrPoolOverrunIsIr003)
{
    SemKernelTrace sem = validSem();
    sem.warps[0].addrPool.resize(sem.warps[0].addrPool.size() - 8);
    expectOnly(lintSemTrace(sem), "IR003");
}

TEST(TraceLint, ConsumePoolOverrunIsIr004)
{
    SemKernelTrace sem = validSem();
    // Shrinking the pool breaks the last consume list's bounds. The
    // entries that remain still resolve, so IR001 stays quiet.
    SemWarpTrace &w = sem.warps[0];
    ASSERT_FALSE(w.consumePool.empty());
    w.consumePool.pop_back();
    expectOnly(lintSemTrace(sem), "IR004");
}

TEST(TraceLint, BadDistanceBeatCountIsIr005)
{
    SemKernelTrace sem = validSem();
    for (SemOp &op : sem.warps[0].ops) {
        if (op.kind == SemKind::Distance && op.dist.warpCooperative) {
            op.dist.chunkCount = 1; // dim=64 needs 2 coalesced chunks
            break;
        }
    }
    expectOnly(lintSemTrace(sem), "IR005");
}

TEST(TraceLint, DistanceShapeInconsistencyIsIr006)
{
    SemKernelTrace sem = validSem();
    for (SemOp &op : sem.warps[0].ops) {
        if (op.kind == SemKind::Distance && op.dist.warpCooperative) {
            op.activeMask = kFullMask; // disagrees with nCands=8
            break;
        }
    }
    expectOnly(lintSemTrace(sem), "IR006");
}

TEST(TraceLint, KeyCompareFanInIsIr007)
{
    SemKernelTrace sem = validSem();
    for (SemOp &op : sem.warps[0].ops) {
        if (op.kind == SemKind::KeyCompare && !op.laneProbe) {
            // 36 * 32 + 1 separators: one more chunk than lanes.
            op.nKeys = 36 * kWarpSize + 1;
            break;
        }
    }
    expectOnly(lintSemTrace(sem), "IR007");
}

TEST(TraceLint, EmptyActiveMaskIsIr008Warning)
{
    SemKernelTrace sem = validSem();
    for (SemOp &op : sem.warps[0].ops) {
        if (op.kind == SemKind::Alu) {
            op.activeMask = 0;
            break;
        }
    }
    const LintReport report = lintSemTrace(sem);
    expectOnly(report, "IR008");
    EXPECT_EQ(report.errorCount(), 0u);
    EXPECT_EQ(report.warningCount(), 1u);
}

TEST(TraceLint, BoxShapeMismatchIsIr009)
{
    SemKernelTrace sem = validSem();
    for (SemOp &op : sem.warps[0].ops) {
        if (op.kind == SemKind::BoxTest) {
            op.box.blChunks = 3; // 48B of baseline loads, 64B node
            break;
        }
    }
    expectOnly(lintSemTrace(sem), "IR009");
}

// --- Corrupted corpus: lowered-trace rules ---------------------------

TEST(TraceLint, LoweredCleanOnAllLowerings)
{
    const SemKernelTrace sem = validSem();
    for (const Lowering &low :
         {Lowering::baseline(), Lowering::hsu(), Lowering::partial(0.5)}) {
        const KernelTrace trace = lowerTrace(sem, low);
        const LintReport report = lintLoweredTrace(trace);
        EXPECT_TRUE(report.clean()) << report.str();
    }
}

TEST(TraceLint, UnresolvedScoreboardTokenIsLt001)
{
    KernelTrace trace = lowerTrace(validSem(), Lowering::hsu());
    // Wait on a token no op has produced yet at op 0.
    ASSERT_FALSE(trace.warps[0].ops.empty());
    trace.warps[0].ops[0].consumesMask = 0x8000;
    expectOnly(lintLoweredTrace(trace), "LT001");
}

TEST(TraceLint, BadOpShapeIsLt002)
{
    KernelTrace trace = lowerTrace(validSem(), Lowering::hsu());
    for (TraceOp &op : trace.warps[0].ops) {
        if (op.type == OpType::Alu) {
            op.count = 0;
            break;
        }
    }
    expectOnly(lintLoweredTrace(trace), "LT002");
}

TEST(TraceLint, LoweredAddrPoolOverrunIsLt003)
{
    KernelTrace trace = lowerTrace(validSem(), Lowering::hsu());
    trace.warps[0].addrPool.resize(trace.warps[0].addrPool.size() - 8);
    expectOnly(lintLoweredTrace(trace), "LT003");
}

TEST(TraceLint, MissingOriginStampIsLt004)
{
    KernelTrace trace = lowerTrace(validSem(), Lowering::hsu());
    for (TraceOp &op : trace.warps[0].ops) {
        if (op.type == OpType::HsuOp) {
            op.origin = TraceOrigin::Generic;
            break;
        }
    }
    expectOnly(lintLoweredTrace(trace), "LT004");
}

TEST(TraceLint, OriginOutOfRangeIsLt005)
{
    KernelTrace trace = lowerTrace(validSem(), Lowering::hsu());
    // A Generic pass-through op keeps LT004 (HSU-op stamps) quiet.
    for (TraceOp &op : trace.warps[0].ops) {
        if (op.type == OpType::Alu &&
            op.origin == TraceOrigin::Generic) {
            op.origin = static_cast<TraceOrigin>(7);
            break;
        }
    }
    expectOnly(lintLoweredTrace(trace), "LT005");
}

// --- Corrupted corpus: cross-lowering rules --------------------------

TEST(TraceLint, DroppedCiscOpIsXl001)
{
    const SemKernelTrace sem = validSem();
    KernelTrace trace = lowerTrace(sem, Lowering::hsu());
    auto &ops = trace.warps[0].ops;
    const auto it =
        std::find_if(ops.begin(), ops.end(), [](const TraceOp &op) {
            return op.type == OpType::HsuOp;
        });
    ASSERT_NE(it, ops.end());
    ops.erase(it);
    expectOnly(lintLoweringAccounting(sem, trace, Lowering::hsu()),
               "XL001");
}

TEST(TraceLint, ConservationHoldsForAllLowerings)
{
    const SemKernelTrace sem = validSem();
    for (const Lowering &low :
         {Lowering::baseline(), Lowering::hsu(), Lowering::partial(0.25),
          Lowering::partial(0.5), Lowering::partial(0.75),
          Lowering::partialByKind(
              Lowering::kindBit(SemKind::Distance) |
              Lowering::kindBit(SemKind::KeyCompare) |
              Lowering::kindBit(SemKind::BoxTest))}) {
        const LintReport report =
            lintLoweringAccounting(sem, lowerTrace(sem, low), low);
        EXPECT_TRUE(report.clean()) << report.str();
    }
}

TEST(TraceLint, UnbalancedOffloadMaskIsXl003)
{
    // A fully HSU-lowered trace claimed as a ByKind lowering whose
    // mask excludes Distance: the replay expects no Distance CISC ops
    // but the trace carries them.
    const SemKernelTrace sem = validSem();
    const KernelTrace trace = lowerTrace(sem, Lowering::hsu());
    const Lowering claimed = Lowering::partialByKind(
        Lowering::kindBit(SemKind::KeyCompare) |
        Lowering::kindBit(SemKind::BoxTest));
    expectOnly(lintLoweringAccounting(sem, trace, claimed), "XL003");
}

TEST(TraceLint, EndpointEquivalenceHolds)
{
    const LintReport report =
        lintEndpointEquivalence(validSem(), DatapathConfig{});
    EXPECT_TRUE(report.clean()) << report.str();
}

// --- Catalog ---------------------------------------------------------

TEST(TraceLint, CatalogCoversDocumentedRules)
{
    const char *expected[] = {"IR001", "IR002", "IR003", "IR004",
                              "IR005", "IR006", "IR007", "IR008",
                              "IR009", "LT001", "LT002", "LT003",
                              "LT004", "LT005", "XL001", "XL002",
                              "XL003"};
    const std::vector<LintRuleInfo> catalog = lintRuleCatalog();
    for (const char *id : expected) {
        const bool found =
            std::any_of(catalog.begin(), catalog.end(),
                        [id](const LintRuleInfo &r) { return r.id == id; });
        EXPECT_TRUE(found) << "missing rule " << id;
    }
    for (const LintRuleInfo &rule : catalog) {
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        EXPECT_FALSE(rule.fixit.empty()) << rule.id;
    }
}

// --- Golden workloads lint clean (all five kernels, three lowerings) -

TEST(TraceLintGolden, GgnnEuclid)
{
    const auto w = golden::ggnnEuclid();
    const HnswGraph g = HnswGraph::build(w.points, Metric::Euclidean);
    const GgnnKernel k(g, GgnnConfig{});
    const LintReport report = lintWorkload(k.emit(w.queries).sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(TraceLintGolden, GgnnAngular)
{
    const auto w = golden::ggnnAngular();
    const HnswGraph g = HnswGraph::build(w.points, Metric::Angular);
    const GgnnKernel k(g, GgnnConfig{});
    const LintReport report = lintWorkload(k.emit(w.queries).sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(TraceLintGolden, Flann)
{
    const auto w = golden::pointCloud();
    const KdTree tree = KdTree::build(w.points, 16);
    const FlannKernel k(tree);
    const LintReport report = lintWorkload(k.emit(w.queries).sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(TraceLintGolden, Bvhnn)
{
    const auto w = golden::pointCloud();
    const Lbvh bvh = Lbvh::buildFromPoints(w.points, w.radius);
    const BvhnnKernel k(w.points, bvh, BvhnnConfig{w.radius});
    const LintReport report = lintWorkload(k.emit(w.queries).sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(TraceLintGolden, Bvhnn4Wide)
{
    const auto w = golden::pointCloud();
    const Lbvh bvh = Lbvh::buildFromPoints(w.points, w.radius);
    BvhnnConfig cfg{w.radius};
    cfg.useBvh4 = true;
    const BvhnnKernel k(w.points, bvh, cfg);
    const LintReport report = lintWorkload(k.emit(w.queries).sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(TraceLintGolden, Btree)
{
    auto w = golden::btreeKeys();
    const BTree tree = BTree::build(std::move(w.pairs), 256);
    const BtreeKernel k(tree);
    const LintReport report = lintWorkload(k.emit(w.probes).sem);
    EXPECT_TRUE(report.clean()) << report.str();
}

TEST(TraceLintGolden, Rtindex)
{
    const auto w = golden::rtindexKeys();
    const RtindexKernel k(w.keys);
    for (const RtindexForm form :
         {RtindexForm::Tri, RtindexForm::Native}) {
        const LintReport report =
            lintWorkload(k.emit(w.probes, form).sem);
        EXPECT_TRUE(report.clean()) << report.str();
    }
}

} // namespace
} // namespace hsu
