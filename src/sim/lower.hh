/**
 * @file
 * Lowering: semantic kernel IR -> executable warp trace.
 *
 * This is the repo's analogue of the paper's Accel-Sim trace
 * post-processor (Section V-B): the pass that decides, per semantic op,
 * whether the baseline SIMD instruction sequence or the HSU CISC
 * instruction is emitted. Three lowerings exist:
 *
 *  - Baseline:        every semantic op expands to its SIMD sequence
 *                     (except unit-resident ops — see below),
 *  - Hsu:             every semantic op becomes one CISC instruction,
 *  - PartialOffload:  a configurable subset of the offloadable ops is
 *                     CISC-lowered (fraction sweep / per-kind ablation).
 *
 * Unit-resident semantic ops (TriTest, lane-probe KeyCompareBatch, and
 * BoxTestBatch with unitResident set) lower to the RT-unit instruction
 * under EVERY lowering: they model workloads whose baseline GPU already
 * has the unit (RTIndeX compares leaf representations on RT hardware,
 * Section VI-G), so they are never part of the offload decision.
 *
 * Baseline instruction-shape catalog (counts calibrated against the
 * SASS each kernel executes; the shape factories below are the single
 * source of truth):
 *
 *  DistanceBatch, warp-cooperative (GGNN): per candidate,
 *    ceil(dim*4/128) x { 128B pattern load; alu(7|13) FMA block },
 *    alu(10|18) shuffle reduction, alu(2) keep/compare epilogue
 *    (euclid|angular). HSU: one multi-beat POINT_EUCLID/ANGULAR +
 *    alu(1|4) trailing scalar block.
 *  DistanceBatch, lane-parallel (FLANN dim-d): ceil(dim*4/16) x 16B
 *    gather (3-D: 2 x 8B), alu(3*dim+14) fold. (BVH-NN leaf: one 12B
 *    gather, alu(8).) HSU: one POINT_EUCLID, result token escapes to
 *    the recorded consumer.
 *  KeyCompareBatch, warp-scan (B+tree): ceil(nKeys/32) x { 32-lane
 *    pattern load; alu(2) } + alu(6) ballot/reduce. HSU: one
 *    KEY_COMPARE (one 36-key chunk per lane) + alu(2+chunks) popcount.
 *  BoxTestBatch (BVH-NN): nodeBytes/16 x 16B gathers + alu(30) slab
 *    tests (binary 64B node); 4-wide 128B node: 8 gathers + alu(58).
 *    HSU: one RAY_INTERSECT.
 *  TriTest: always one RAY_INTERSECT on a 48B triangle node.
 */

#ifndef HSU_SIM_LOWER_HH
#define HSU_SIM_LOWER_HH

#include <algorithm>
#include <cstdint>

#include "hsu/isa.hh"
#include "sim/ir.hh"
#include "sim/trace.hh"

namespace hsu
{

/**
 * The two machines a whole run is lowered for: the non-RT baseline GPU
 * and the GPU with the HSU. The batch and serving emitters
 * (emitIndexTrace, emitBatchTrace, emitShardBatchTrace) take one;
 * loweringFor() maps it onto its Lowering.
 */
enum class KernelVariant : std::uint8_t
{
    Baseline, //!< non-RT GPU: everything on the SIMD pipelines
    Hsu       //!< distance/box/key ops offloaded to the HSU
};

/** How PartialOffload picks which offloadable semantic ops to offload. */
enum class OffloadPolicy : std::uint8_t
{
    ModuloN, //!< offload a `fraction` of ops, evenly spaced per warp
    ByKind,  //!< offload exactly the kinds selected in `kindMask`
};

/** A lowering specification. */
struct Lowering
{
    enum class Kind : std::uint8_t
    {
        Baseline,
        Hsu,
        PartialOffload,
    };

    Kind kind = Kind::Hsu;
    DatapathConfig dp{};
    /** PartialOffload/ModuloN: offloaded share of the offloadable
     *  semantic ops, clamped to [0, 1]. 0 reproduces Baseline and 1
     *  reproduces Hsu bit-identically. */
    double fraction = 1.0;
    OffloadPolicy policy = OffloadPolicy::ModuloN;
    /** PartialOffload/ByKind: OR of kindBit() for the offloaded kinds. */
    std::uint32_t kindMask = 0;

    static Lowering
    baseline(const DatapathConfig &dp = DatapathConfig{})
    {
        Lowering l;
        l.kind = Kind::Baseline;
        l.dp = dp;
        return l;
    }

    static Lowering
    hsu(const DatapathConfig &dp = DatapathConfig{})
    {
        Lowering l;
        l.kind = Kind::Hsu;
        l.dp = dp;
        return l;
    }

    static Lowering
    partial(double fraction, const DatapathConfig &dp = DatapathConfig{})
    {
        Lowering l;
        l.kind = Kind::PartialOffload;
        l.dp = dp;
        l.fraction = fraction;
        return l;
    }

    static Lowering
    partialByKind(std::uint32_t kind_mask,
                  const DatapathConfig &dp = DatapathConfig{})
    {
        Lowering l;
        l.kind = Kind::PartialOffload;
        l.dp = dp;
        l.policy = OffloadPolicy::ByKind;
        l.kindMask = kind_mask;
        return l;
    }

    /** kindMask bit for a semantic op kind. */
    static std::uint32_t
    kindBit(SemKind k)
    {
        return 1u << static_cast<unsigned>(k);
    }
};

/** The Lowering of a KernelVariant: Baseline or Hsu. */
inline Lowering
loweringFor(KernelVariant variant,
            const DatapathConfig &dp = DatapathConfig{})
{
    return variant == KernelVariant::Hsu ? Lowering::hsu(dp)
                                         : Lowering::baseline(dp);
}

/**
 * Lower a semantic kernel trace to an executable warp trace.
 *
 * Pass-through ops are re-emitted verbatim; semantic ops expand per the
 * catalog above. Virtual tokens resolve to the scoreboard tokens of the
 * instructions that carry them under this lowering (possibly the empty
 * mask: a baseline-lowered batch's consumers need no wait, its FMA
 * block already consumed the operand loads). Each emitted op is stamped
 * with the TraceOrigin of the semantic op it came from.
 *
 * The ModuloN offload decision is per warp: offloadable semantic op
 * number i (in emission order) is offloaded iff
 * floor((i+1)*f) > floor(i*f), which spaces offloaded ops evenly and
 * makes the trace independent of warp processing order.
 */
KernelTrace lowerTrace(const SemKernelTrace &sem, const Lowering &low);

// --- Per-kernel shape factories (the documented op-count catalog) ----

/** GGNN warp-cooperative distance over dim-d points. */
inline DistanceShape
ggnnDistanceShape(Metric metric, unsigned dim)
{
    const bool angular = metric == Metric::Angular;
    DistanceShape s;
    s.warpCooperative = true;
    s.chunkCount =
        static_cast<std::uint16_t>(std::max(1u, (dim * 4 + 127) / 128));
    s.chunkStep = 128;
    s.chunkBytes = 4; // coalesced: 4B per lane per 128B chunk
    // Angular needs two accumulators (dot product + candidate norm,
    // eqs. 3-4) and two shuffle reductions, so its per-chunk and
    // reduction blocks are roughly double the euclid ones.
    s.perChunkAlu = angular ? 13 : 7;
    s.reduceAlu = angular ? 18 : 10;
    s.epilogueAlu = 2;
    // Angular: the scalar rsqrt/divide runs on the SM (eq. 2).
    s.trailingAlu = angular ? 4 : 1;
    return s;
}

/** FLANN lane-parallel distance over dim-d points. */
inline DistanceShape
flannDistanceShape(unsigned dim)
{
    DistanceShape s;
    // float3 fetch is an LDG.64 + LDG.32 pair (packed FLANN points);
    // higher dimensions load 16B vector chunks.
    s.chunkCount = static_cast<std::uint16_t>(
        dim == 3 ? 2 : (dim * 4 + 15) / 16);
    s.chunkStep = dim == 3 ? 8 : 16;
    s.chunkBytes = dim == 3 ? 8 : 16;
    // Subtract/FMA/compare per dimension + loop/addressing overhead.
    s.reduceAlu = static_cast<std::uint16_t>(3 * dim + 14);
    return s;
}

/** BVH-NN leaf distance (3-D, float4-packed: one 12B gather). */
inline DistanceShape
bvhnnLeafShape()
{
    DistanceShape s;
    s.chunkCount = 1;
    s.chunkStep = 0;
    s.chunkBytes = 12;
    s.reduceAlu = 8;
    return s;
}

/** Binary BVH box test: 64B node, two slab tests. */
inline BoxShape
bvhBoxShape()
{
    return BoxShape{64, 4, 30, false};
}

/** 4-wide BVH box test: 128B node, four slab tests. */
inline BoxShape
bvh4BoxShape()
{
    return BoxShape{128, 8, 58, false};
}

/** RTIndeX box test: on the RT unit in every configuration. */
inline BoxShape
rtindexBoxShape()
{
    return BoxShape{64, 4, 30, true};
}

} // namespace hsu

#endif // HSU_SIM_LOWER_HH
