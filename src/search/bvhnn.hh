/**
 * @file
 * BVH-NN: RTNN-style nearest-neighbor search over a binary LBVH.
 *
 * Following the paper's implementation (Section V-A): leaf AABBs are
 * centered on each data point with half-width equal to the search
 * radius, the BVH is a Karras LBVH over Morton-sorted points, and each
 * CUDA thread traverses the tree for one query with a per-thread stack
 * in shared memory. No query pre-processing / ray-coherence sorting is
 * performed. The binary tree means each RAY_INTERSECT only exercises
 * two of the four box-test lanes (Section VI-E).
 *
 * Warps pack 32 independent queries; the emitter advances all lanes in
 * lockstep, so divergence appears as shrinking active masks — exactly
 * the behaviour the HSU's single-lane pipeline tolerates.
 */

#ifndef HSU_SEARCH_BVHNN_HH
#define HSU_SEARCH_BVHNN_HH

#include <cstdint>
#include <vector>

#include "search/layout.hh"
#include "sim/ir.hh"
#include "structures/lbvh.hh"
#include "structures/pointset.hh"

namespace hsu
{

/** BVH-NN parameters. */
struct BvhnnConfig
{
    float radius = 0.05f; //!< fixed search radius (leaf half-width)
    /**
     * Traverse a 4-wide BVH instead of the paper's binary tree. The
     * paper's implementation "used a binary BVH tree, thus only two
     * child node boxes were traversed per thread at a time, and the
     * application did not fully utilize the ray-box test hardware. A
     * BVH4 tree would likely have better performance" (Section VI-E) —
     * this flag tests that hypothesis (see bench/ablation_bvh4).
     */
    bool useBvh4 = false;
};

/** One query's result: nearest point within the radius, if any. */
struct RadiusHit
{
    std::int32_t index = -1; //!< -1 when nothing within the radius
    float dist2 = 0.0f;
};

/** Emission artifacts: functional results + the semantic trace. */
struct BvhnnEmit
{
    SemKernelTrace sem;
    std::vector<RadiusHit> results;
    std::uint64_t boxTests = 0;
    std::uint64_t distanceTests = 0;
};

/** The BVH-NN kernel bound to a prebuilt LBVH over a point set. */
class BvhnnKernel
{
  public:
    BvhnnKernel(const PointSet &points, const Lbvh &bvh,
                BvhnnConfig cfg);

    /** Run all queries (32 per warp) and emit semantic traces
     *  (binary or 4-wide per cfg.useBvh4). */
    BvhnnEmit emit(const PointSet &queries) const;

  private:
    /** Traversal over the 4-wide collapsed BVH (ablation mode). */
    BvhnnEmit emitBvh4(const PointSet &queries) const;

    const PointSet &points_;
    const Lbvh &bvh_;
    BvhnnConfig cfg_;
    Bvh4 bvh4_; //!< collapsed form (built only when cfg_.useBvh4)
    /** Morton-sorted device position of each primitive. */
    std::vector<std::uint32_t> primPos_;
    AddressAllocator alloc_;
    PointArrayLayout pointsLayout_;
    RecordArrayLayout nodeLayout_; //!< 64B binary box nodes
    PointArrayLayout queryLayout_;
    std::uint64_t resultBase_ = 0;
};

} // namespace hsu

#endif // HSU_SEARCH_BVHNN_HH
