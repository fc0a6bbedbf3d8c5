/**
 * @file
 * N-dimensional k-d tree (FLANN-style) for (approximate) nearest
 * neighbor search. Internal nodes split one axis at the median; leaves
 * hold small point ranges. Search is best-bin-first with an optional
 * checks budget (FLANN's approximation knob); with no budget the search
 * is exact.
 */

#ifndef HSU_STRUCTURES_KDTREE_HH
#define HSU_STRUCTURES_KDTREE_HH

#include <cstdint>
#include <vector>

#include "structures/pointset.hh"

namespace hsu
{

/** A (neighbor index, squared distance) result pair. */
struct Neighbor
{
    std::uint32_t index = 0;
    float dist2 = 0.0f;

    bool
    operator<(const Neighbor &o) const
    {
        return dist2 != o.dist2 ? dist2 < o.dist2 : index < o.index;
    }
};

/** One k-d tree node. */
struct KdNode
{
    // Internal fields.
    std::int32_t axis = -1;   //!< split axis; -1 marks a leaf
    float split = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
    // Leaf fields: a range in the reordered index array.
    std::uint32_t first = 0;
    std::uint32_t count = 0;

    bool isLeaf() const { return axis < 0; }
};

/** Median-split k-d tree over an external PointSet. */
class KdTree
{
  public:
    /**
     * Build over @p points with leaves of at most @p leaf_size points.
     * The PointSet must outlive the tree.
     */
    static KdTree build(const PointSet &points, unsigned leaf_size = 8);

    /**
     * k-nearest-neighbor query.
     * @param query      dim() floats
     * @param k          neighbors to return
     * @param max_checks leaf-point budget; 0 = exact search
     */
    std::vector<Neighbor> knn(const float *query, unsigned k,
                              unsigned max_checks = 0) const;

    /**
     * All points within squared distance @p radius2 of @p query,
     * sorted by distance (exact).
     */
    std::vector<Neighbor> radiusSearch(const float *query,
                                       float radius2) const;

    const std::vector<KdNode> &nodes() const { return nodes_; }

    /** Reordered point indices referenced by leaf ranges. */
    const std::vector<std::uint32_t> &pointIndex() const
    { return pointIndex_; }

    const PointSet &points() const { return *points_; }

    std::int32_t root() const { return nodes_.empty() ? -1 : 0; }

    /** Depth of the tree (diagnostics). */
    unsigned depth() const;

    /** Structural invariants: child indices, split axes and leaf ranges
     *  in bounds, every node reached once from the root, every point
     *  appearing exactly once. */
    bool validate() const;

    /** Reassemble from serialized parts (used by loadKdTree). */
    static KdTree fromParts(const PointSet &points,
                            std::vector<KdNode> nodes,
                            std::vector<std::uint32_t> point_index);

  private:
    std::int32_t buildRange(std::uint32_t first, std::uint32_t count,
                            unsigned leaf_size);
    unsigned depthFrom(std::int32_t idx) const;

    const PointSet *points_ = nullptr;
    std::vector<KdNode> nodes_;
    std::vector<std::uint32_t> pointIndex_;
};

} // namespace hsu

#endif // HSU_STRUCTURES_KDTREE_HH
