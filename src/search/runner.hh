/**
 * @file
 * Experiment glue: dataset -> index -> kernel -> baseline + HSU
 * simulations. Every bench binary drives its figure through these
 * helpers; indexes are memoized per dataset so sweeps don't rebuild.
 *
 * One builder (buildDatasetIndex) makes every index of a dataset kind
 * over a slice of the dataset's element ids, and one function
 * (emitIndexSem) emits every kernel trace from such an index. The
 * whole dataset is the 1-shard slice (datasetIndex); the sharded
 * serving layer (shard/shard_index) builds the other slices through
 * the same builder.
 */

#ifndef HSU_SEARCH_RUNNER_HH
#define HSU_SEARCH_RUNNER_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "search/btree_kernel.hh"
#include "search/bvhnn.hh"
#include "search/flann.hh"
#include "search/ggnn.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "workloads/datasets.hh"

namespace hsu
{

/** The four evaluated search algorithms (Section V-A). */
enum class Algo : std::uint8_t
{
    Ggnn,  //!< hierarchical graph ANN
    Flann, //!< k-d tree ANN (3-D)
    Bvhnn, //!< LBVH radius nearest neighbor (3-D)
    Btree, //!< B+tree key-value lookups
};

std::string toString(Algo algo);

/** Query-count knobs (scaled for simulator runtimes). */
struct RunnerOptions
{
    unsigned ggnnQueries = 128;
    unsigned pointQueries = 4096;
    unsigned keyQueries = 8192;

    bool
    operator==(const RunnerOptions &o) const
    {
        return ggnnQueries == o.ggnnQueries &&
               pointQueries == o.pointQueries &&
               keyQueries == o.keyQueries;
    }
};

/**
 * Default options for one dataset, scaled so trace sizes stay bounded
 * (very high-dimensional datasets emit far more ops per query), and
 * shrunk further by @p scale (bench binaries honor HSU_QUICK=1 via
 * quickScale()).
 */
RunnerOptions optionsFor(const DatasetInfo &info, double scale = 1.0);

/** 0.25 when the HSU_QUICK environment variable is set, else 1.0. */
double quickScale();

/** Results of one dataset x algorithm experiment. */
struct WorkloadResult
{
    Algo algo;
    DatasetId dataset;
    std::string label;    //!< figure label ("D1B", "F-BUN", "B-BUN"...)
    RunResult base;       //!< non-RT baseline GPU
    RunResult hsu;        //!< HSU-enabled GPU
    StatGroup baseStats;  //!< full counter dumps for memory figures
    StatGroup hsuStats;

    /** Fig 9 metric: baseline cycles / HSU cycles. */
    double
    speedup() const
    {
        return hsu.cycles ? static_cast<double>(base.cycles) /
                                static_cast<double>(hsu.cycles)
                          : 0.0;
    }
};

/**
 * Run one (algorithm, dataset) experiment under @p gpu (an HSU-enabled
 * config; the baseline run disables the RT unit on a copy).
 */
WorkloadResult runWorkload(Algo algo, DatasetId dataset,
                           const GpuConfig &gpu,
                           const RunnerOptions &opts = RunnerOptions{});

/**
 * Emit the semantic (pre-lowering) trace of one (algorithm, dataset)
 * experiment — the IR every lowering variant of the workload shares:
 * every query of the serving pool of size opts.*Queries (the
 * dataset's generated query set), in order, against datasetIndex().
 * Always performs the (expensive) functional kernel run; most callers
 * want emitSemanticShared() instead, which memoizes the result.
 */
SemKernelTrace emitSemantic(Algo algo, DatasetId dataset,
                            const RunnerOptions &opts);

/**
 * Memoized emission: the semantic trace of (algo, dataset, opts) as an
 * immutable shared artifact. The first request (from any thread) runs
 * the functional kernel once; every later request — the other side of
 * a base/HSU pair, every sweep point, every HSU_JOBS worker — returns
 * a pointer to the same trace. Sharing is by weak reference plus a
 * small MRU strong list, so peak RSS is bounded by the active working
 * set rather than by every workload the process ever touched (see
 * DESIGN.md "Trace lifetime and sharing" for the memory model).
 *
 * Emission is a pure function of its key, so the cached artifact is
 * bit-identical to a fresh emitSemantic() call.
 */
std::shared_ptr<const SemKernelTrace>
emitSemanticShared(Algo algo, DatasetId dataset,
                   const RunnerOptions &opts);

/**
 * Run only the HSU-side simulation, on a copy of @p gpu with the RT
 * unit enabled (sweeps such as Fig 10 / Fig 11 run one baseline per
 * dataset and vary the HSU config).
 */
RunResult runHsuOnly(Algo algo, DatasetId dataset, const GpuConfig &gpu,
                     const RunnerOptions &opts, StatGroup &stats);

/**
 * Run only the baseline-side simulation, on a copy of @p gpu with the
 * RT unit disabled.
 */
RunResult runBaseOnly(Algo algo, DatasetId dataset, const GpuConfig &gpu,
                      const RunnerOptions &opts, StatGroup &stats);

/**
 * Convenience fan-out for figure fleets: run each (algo, dataset)
 * workload with options optionsFor(dataset, scale), in parallel
 * (parallelMap over runWorkload), returning results in input order.
 * Results are bit-identical to running each workload serially: indexes
 * are built once per dataset under a lock, query generation is a pure
 * function of the dataset seed, and each simulation owns its
 * StatGroup.
 *
 * @param num_threads worker count; 0 -> defaultJobs()
 */
std::vector<WorkloadResult>
runWorkloadsParallel(const std::vector<std::pair<Algo, DatasetId>> &work,
                     const GpuConfig &gpu, double scale = 1.0,
                     unsigned num_threads = 0);

/**
 * Kernel knobs the serving layer (src/serve) may degrade under load.
 * Only GGNN has quality knobs; the point/key kernels are exact and can
 * only shed.
 */
struct ServeKnobs
{
    unsigned ggnnEf = 32; //!< GGNN layer-0 beam width
    unsigned ggnnK = 10;  //!< GGNN result count

    bool
    operator==(const ServeKnobs &o) const
    {
        return ggnnEf == o.ggnnEf && ggnnK == o.ggnnK;
    }
};

/**
 * Which slice of a dataset's elements an index covers: shard @c shard
 * of a @c numShards-way split under partition policy @c policy (the
 * value of shard::PartitionPolicy; search sits below the shard layer).
 * A 1-way split is the whole dataset, whatever the policy.
 */
struct DatasetSlice
{
    unsigned policy = 0;
    unsigned numShards = 1;
    unsigned shard = 0;
};

/**
 * Every index and kernel of one dataset kind over one slice of the
 * dataset's elements. All families of the kind are built together:
 *  - HighDim: HNSW graph + GGNN kernel;
 *  - Point3d: LBVH + BVH-NN kernel and k-d tree (leaf size 16) + FLANN
 *    kernel. The BVH radius is the full dataset's (pickRadius), so
 *    the union of the slices' radius answers is the full answer;
 *  - Keys: B+tree over (key, rank) pairs, ranks being ids in the full
 *    sorted key set, so a slice's lookups return the full tree's
 *    values.
 * Kernels hold references into the structures and the points, so an
 * index is built in place (buildDatasetIndex) and never moves.
 */
struct DatasetIndex
{
    DatasetIndex() = default;
    DatasetIndex(const DatasetIndex &) = delete;
    DatasetIndex &operator=(const DatasetIndex &) = delete;

    DatasetId dataset{};
    /** Global ids of the slice's elements in local order (ascending);
     *  empty for the whole dataset, whose local ids are global. */
    std::vector<std::uint32_t> ids;
    /** HighDim / Point3d: the slice's points. The whole dataset reads
     *  the dataset store's copy (datasetPoints); a sub-slice reads
     *  slicePoints. */
    const PointSet *points = nullptr;
    PointSet slicePoints; //!< a sub-slice's gather of its rows

    std::unique_ptr<HnswGraph> graph;
    std::unique_ptr<GgnnKernel> ggnn;

    float radius = 0.0f; //!< full-dataset BVH-NN search radius
    std::unique_ptr<Lbvh> bvh;
    std::unique_ptr<BvhnnKernel> bvhnn;
    std::unique_ptr<KdTree> kdtree;
    std::unique_ptr<FlannKernel> flann;

    std::unique_ptr<BTree> btree;
    std::unique_ptr<BtreeKernel> btreeKernel;

    /** Global id of local element @p local. */
    std::uint32_t
    globalId(std::uint32_t local) const
    {
        return ids.empty() ? local : ids[local];
    }
};

/**
 * Build every index of @p dataset's kind over the elements @p ids
 * (global ids, ascending; empty means the whole dataset) into @p idx.
 * The elements come from the dataset store (datasetPoints,
 * datasetKeys): the whole dataset refers to the stored points, and a
 * sub-slice gathers its rows into slicePoints. Each structure goes
 * through the HSU_INDEX_CACHE disk cache under indexCacheStem(info,
 * @p slice, ...). A pure function of its arguments.
 */
void buildDatasetIndex(DatasetIndex &idx, DatasetId dataset,
                       const DatasetSlice &slice,
                       std::vector<std::uint32_t> ids);

/**
 * The whole-dataset index of @p dataset: built once per process on
 * first use (from any thread) and shared by every later caller. Its
 * points are the dataset store's (datasetPoints).
 */
const DatasetIndex &datasetIndex(DatasetId dataset);

/**
 * The one emission path: the semantic trace of queries @p query_ids of
 * the serving pool of @p pool_size queries (serveQueryPoints /
 * serveQueryKeys) against @p idx, emitted in @p query_ids order and
 * timed as the Emit phase. GGNN runs with @p knobs (the index's own
 * kernel at the default knobs); the other families have no knobs.
 * Debug and HSU_AUDIT builds lint the trace before returning it.
 */
SemKernelTrace emitIndexSem(Algo algo, const DatasetIndex &idx,
                            const std::vector<std::uint32_t> &query_ids,
                            std::size_t pool_size,
                            const ServeKnobs &knobs = ServeKnobs{});

/** emitIndexSem(), lowered for @p variant on datapath @p dp. */
std::shared_ptr<const KernelTrace>
emitIndexTrace(Algo algo, const DatasetIndex &idx, KernelVariant variant,
               const DatapathConfig &dp,
               const std::vector<std::uint32_t> &query_ids,
               std::size_t pool_size, const ServeKnobs &knobs);

/**
 * Emit the trace of one dynamic batch for the serving subsystem:
 * emitIndexTrace() against datasetIndex(@p dataset).
 *
 * Requests reference queries by id into a deterministic per-dataset
 * serving pool of @p pool_size queries (generated once and memoized, a
 * pure function of the dataset seed). The batch runs through the same
 * kernel emitters as the offline benches — one warp per GGNN query, 32
 * point/key queries per warp — so batch cost is exactly what the
 * closed-loop experiments measure at that batch size. It comes back
 * as an immutable shared trace that can be handed to simulateKernel()
 * without copying.
 *
 * Ordering contract: queries are emitted in exactly the order of
 * @p query_ids — lane/warp assignment follows position, not id. The
 * serve scheduling pipeline's batch policies (serve/policy) rely on
 * this to turn batch composition into memory coherence: a Morton- or
 * key-sorted id vector puts neighboring queries in the same warp.
 *
 * @param query_ids ids in [0, pool_size); one request each
 * @param knobs     (possibly degraded) kernel quality knobs
 */
std::shared_ptr<const KernelTrace>
emitBatchTrace(Algo algo, DatasetId dataset, KernelVariant variant,
               const DatapathConfig &dp,
               const std::vector<std::uint32_t> &query_ids,
               std::size_t pool_size,
               const ServeKnobs &knobs = ServeKnobs{});

/**
 * Read-only access to the deterministic serving query pool that
 * emitBatchTrace() resolves request query-ids against — the sharded
 * serving layer routes and answers against the same pool, so router
 * pruning, shard answers, and batch emission all see identical query
 * payloads. Built once per (dataset, pool size) and cached.
 * @pre the dataset kind is HighDim/Point3d.
 */
const PointSet &serveQueryPoints(DatasetId dataset,
                                 std::size_t pool_size);

/** Keys-dataset flavor of serveQueryPoints(). @pre kind is Keys. */
const std::vector<std::uint32_t> &
serveQueryKeys(DatasetId dataset, std::size_t pool_size);

/**
 * Coherence sort keys for the serving query pool, one 63-bit code per
 * query id. Point and high-dimensional datasets get the Morton code of
 * the query's leading three coordinates over the pool's tight AABB
 * (geom/morton mortonCodes63); key datasets get the lookup key itself,
 * zero-extended. Sorting a dynamic batch by these keys puts spatially
 * (or key-range) adjacent queries next to each other, so their warps
 * traverse the same index nodes — the serve-layer coherent batch
 * policy's whole effect rides on emitBatchTrace() emitting queries in
 * exactly the order given (which it does: query_ids order is emission
 * order). Built once per (dataset, pool size) and cached.
 */
const std::vector<std::uint64_t> &
serveQueryCoherenceKeys(DatasetId dataset, std::size_t pool_size);

/** Datasets an algorithm is evaluated on (Table II usage). */
std::vector<DatasetId> datasetsForAlgo(Algo algo);

/** Figure label for (algo, dataset): FLANN/BVH-NN 3-D datasets carry
 *  the paper's "F-"/"B-" prefixes. */
std::string workloadLabel(Algo algo, const DatasetInfo &info);

/**
 * File stem under which the HSU_INDEX_CACHE disk cache keeps one built
 * index: "<paperName>-<kind>-<hash>". The 16-hex-digit hash covers a
 * cache format version, the dataset's generator seed, size and
 * dimension, the @p slice of the dataset the index covers (policy,
 * shard count and shard, all omitted for the 1-shard slice, which is
 * the whole dataset) and @p builder, the parameters the index's
 * builder is called with, so an index built from any other inputs has
 * another name and is never loaded in place of this one.
 */
std::string indexCacheStem(const DatasetInfo &info,
                           const DatasetSlice &slice,
                           const std::string &kind,
                           std::initializer_list<std::uint64_t> builder);

/** Pick a BVH-NN/search radius for a 3-D dataset: twice the median
 *  nearest-neighbor spacing of a deterministic sample. The exact
 *  nearest neighbor of each sampled point is found with a uniform-grid
 *  ring scan (O(samples x density) instead of O(samples x N)); the
 *  result is bit-identical to the brute-force scan it replaced. */
float pickRadius(const PointSet &points, std::uint64_t seed = 42);

} // namespace hsu

#endif // HSU_SEARCH_RUNNER_HH
