/**
 * @file
 * GGNN-style graph ANN search kernel with trace emission.
 *
 * The paper's headline workload: hierarchical-graph approximate nearest
 * neighbor search (Groh et al.). Queries map to warps (GGNN assigns a
 * thread block per query; we model the dominant warp), maintaining a
 * priority queue of nodes to visit and the current K best in shared
 * memory ("parallel cache"). The HSU accelerates only the Euclidean /
 * angular distance evaluations; queue maintenance stays on the SM.
 *
 * The kernel emits a *semantic* trace (sim/ir.hh): each neighbor batch
 * is one DistanceBatch op. The lowering pass (sim/lower.hh) expands it
 * to the baseline warp-cooperative loads + FMA/reduction blocks or to
 * one multi-beat POINT_EUCLID / POINT_ANGULAR instruction.
 */

#ifndef HSU_SEARCH_GGNN_HH
#define HSU_SEARCH_GGNN_HH

#include <cstdint>
#include <vector>

#include "search/layout.hh"
#include "sim/ir.hh"
#include "structures/graph.hh"

namespace hsu
{

/** GGNN kernel parameters. */
struct GgnnConfig
{
    unsigned k = 10;
    unsigned ef = 32; //!< layer-0 beam width
};

/** Emission artifacts: functional results + the semantic trace. */
struct GgnnEmit
{
    SemKernelTrace sem;
    std::vector<std::vector<Neighbor>> results; //!< per query, sorted
    std::uint64_t distanceTests = 0;            //!< candidate evals
};

/** GGNN search kernel bound to a prebuilt graph. */
class GgnnKernel
{
  public:
    /**
     * @param graph  prebuilt hierarchical graph (must outlive kernel)
     * @param cfg    search parameters
     */
    GgnnKernel(const HnswGraph &graph, GgnnConfig cfg);

    /**
     * Run all @p queries functionally and emit the semantic warp
     * traces. One warp per query. Variant-free: lower the result with
     * lowerTrace() to pick an instruction flavor.
     */
    GgnnEmit emit(const PointSet &queries) const;

  private:
    struct EmitCtx;

    /** Evaluate distances from the query to @p cands as one semantic
     *  DistanceBatch op. */
    void emitDistanceBatch(EmitCtx &ctx,
                           const std::vector<std::uint32_t> &cands,
                           VirtToken consume,
                           std::vector<float> &dists_out) const;

    const HnswGraph &graph_;
    GgnnConfig cfg_;
    PointArrayLayout pointsLayout_;
    std::vector<RecordArrayLayout> adjLayout_; //!< per layer
    PointArrayLayout queryLayout_;
    std::uint64_t resultBase_ = 0;
    AddressAllocator alloc_;
};

} // namespace hsu

#endif // HSU_SEARCH_GGNN_HH
