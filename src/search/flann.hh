/**
 * @file
 * FLANN-style k-d tree nearest-neighbor kernel (3-D, thread per query).
 *
 * The paper's FLANN workload uses the library's CUDA path: a k-d tree
 * over 3-D points, one thread per query, iterative traversal with a
 * per-thread stack. Internal-node descent is a single scalar
 * compare-and-branch ("poor computational density", Section VI-F) and
 * is deliberately NOT offloaded to the HSU; only the leaf distance
 * evaluations are.
 *
 * Warps pack 32 queries advanced in lockstep with divergence masks.
 */

#ifndef HSU_SEARCH_FLANN_HH
#define HSU_SEARCH_FLANN_HH

#include <cstdint>
#include <vector>

#include "search/layout.hh"
#include "sim/ir.hh"
#include "structures/kdtree.hh"

namespace hsu
{

/** Emission artifacts: functional results + the semantic trace. */
struct FlannEmit
{
    SemKernelTrace sem;
    std::vector<Neighbor> results; //!< exact 1-NN per query
    std::uint64_t nodeSteps = 0;
    std::uint64_t distanceTests = 0;
};

/** The FLANN kernel bound to a prebuilt k-d tree. */
class FlannKernel
{
  public:
    explicit FlannKernel(const KdTree &tree);

    /** Run all queries (32 per warp) and emit semantic traces. */
    FlannEmit emit(const PointSet &queries) const;

  private:
    const KdTree &tree_;
    AddressAllocator alloc_;
    PointArrayLayout pointsLayout_;
    RecordArrayLayout nodeLayout_; //!< 16B k-d nodes
    PointArrayLayout queryLayout_;
    std::uint64_t resultBase_ = 0;
};

} // namespace hsu

#endif // HSU_SEARCH_FLANN_HH
