/**
 * @file
 * Hierarchical navigable small-world graph for approximate nearest
 * neighbor search (the GGNN/HNSW family the paper's headline workload
 * uses). Points are assigned geometric random levels; each layer is a
 * bounded-degree kNN graph; search descends greedily from the top layer
 * and runs a beam search at layer 0.
 *
 * Distances are either squared Euclidean or angular (1 - cosine), the
 * two metrics the HSU accelerates.
 */

#ifndef HSU_STRUCTURES_GRAPH_HH
#define HSU_STRUCTURES_GRAPH_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "structures/kdtree.hh" // Neighbor
#include "structures/pointset.hh"

namespace hsu
{

/** Distance metric selector. */
enum class Metric : std::uint8_t
{
    Euclidean, //!< squared L2
    Angular    //!< 1 - cosine similarity
};

/** Reference distance computation for @p metric. */
float metricDist(Metric metric, const float *a, const float *b,
                 unsigned dim);

/**
 * sqrt of @p a's sum of squares, accumulated in dimension order: the
 * per-operand factor of metricDist's angular denominator, so it can be
 * computed once per point instead of once per distance.
 */
float metricNorm(const float *a, unsigned dim);

/**
 * Batched metricDist: out[j] = metricDist(metric, query,
 * points[ids[j]], points.dim()) bit for bit, for j < count; @p query
 * has points.dim() components. Each distance keeps
 * its own accumulator, summed in dimension order exactly as
 * metricDist sums; the batch interleaves candidates, never dimensions,
 * so no sum is reassociated. For Metric::Angular, @p query_norm is
 * metricNorm(query) and @p norms[i] is metricNorm(points[i]); both are
 * ignored for Metric::Euclidean (norms may be null).
 */
void metricDistBatch(Metric metric, const float *query, float query_norm,
                     const PointSet &points, const float *norms,
                     const std::uint32_t *ids, unsigned count,
                     float *out);

/** Construction parameters (build() accepts degrees up to 255). */
struct HnswParams
{
    unsigned degree = 16;        //!< max out-degree per layer (M)
    unsigned degreeLayer0 = 24;  //!< max out-degree at the base layer
    unsigned efConstruction = 32;
    std::uint64_t seed = 7;
};

/** Per-query search parameters. */
struct HnswSearchParams
{
    unsigned ef = 32; //!< beam width at the base layer (>= k)
};

/**
 * The layered graph. Adjacency is stored per layer as fixed-degree rows
 * (padded with kNoNeighbor) so the device layout is a dense array — the
 * form the trace emitters address.
 */
class HnswGraph
{
  public:
    /** Sentinel padding for unused neighbor slots. */
    static constexpr std::uint32_t kNoNeighbor = 0xffffffffu;

    /** Build over @p points (must outlive the graph). */
    static HnswGraph build(const PointSet &points, Metric metric,
                           const HnswParams &params = HnswParams{});

    /** k-nearest-neighbor query. */
    std::vector<Neighbor> knn(const float *query, unsigned k,
                              const HnswSearchParams &sp =
                                  HnswSearchParams{}) const;

    unsigned numLayers() const
    { return static_cast<unsigned>(layers_.size()); }

    /** Entry point node id (top-layer). */
    std::uint32_t entryPoint() const { return entry_; }

    /** Padded degree of layer @p l. */
    unsigned
    layerDegree(unsigned l) const
    {
        return l == 0 ? params_.degreeLayer0 : params_.degree;
    }

    /** Neighbor row of @p node at layer @p l (layerDegree entries). */
    const std::uint32_t *neighbors(unsigned l, std::uint32_t node) const;

    /** Nodes present at layer @p l (all nodes at layer 0). */
    const std::vector<std::uint32_t> &layerNodes(unsigned l) const
    { return layers_[l].members; }

    const PointSet &points() const { return *points_; }
    Metric metric() const { return metric_; }

    /** Invariants: in-range neighbor ids, no self-loops, members of a
     *  layer also exist in all lower layers. */
    bool validate() const;

    /** One layer's raw storage (exposed for serialization). */
    struct Layer
    {
        std::vector<std::uint32_t> members;
        /** Dense adjacency: adjacency[node * degree + j]; rows exist
         *  for every node id (non-members are all-padding rows). */
        std::vector<std::uint32_t> adjacency;
    };

    /** Raw layers (serialization). */
    const std::vector<Layer> &layers() const { return layers_; }

    /** Reassemble from serialized parts (used by loadGraph). */
    static HnswGraph fromParts(const PointSet &points, Metric metric,
                               const HnswParams &params,
                               std::vector<Layer> layers,
                               std::uint32_t entry);

  private:
    /** Working memory of one search (visited epochs, heaps, result);
     *  build reuses one across insertions, each knn call owns its own,
     *  so the graph itself holds nothing mutable. */
    struct SearchScratch;

    /** The metric's norm of @p query (0 for Euclidean). */
    float queryNorm(const float *query) const;

    /** metricDistBatch over this graph's points. */
    void distances(const float *query, float query_norm,
                   const std::uint32_t *ids, unsigned count,
                   float *out) const;

    /** Greedy descent within one layer toward @p query. */
    std::uint32_t greedyStep(unsigned layer, std::uint32_t start,
                             const float *query, float query_norm,
                             SearchScratch &s) const;

    /** Beam search at a layer; leaves up to @p ef closest members,
     *  sorted, in s.found. */
    void searchLayer(unsigned layer, std::uint32_t entry,
                     const float *query, float query_norm, unsigned ef,
                     SearchScratch &s) const;

    const PointSet *points_ = nullptr;
    Metric metric_ = Metric::Euclidean;
    HnswParams params_{};
    std::vector<Layer> layers_;
    std::uint32_t entry_ = 0;
    /** metricNorm of every point (Angular only; empty for Euclidean). */
    std::vector<float> norms_;
};

} // namespace hsu

#endif // HSU_STRUCTURES_GRAPH_HH
