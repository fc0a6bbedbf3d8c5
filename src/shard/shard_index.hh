/**
 * @file
 * Per-shard sub-indexes for sharded multi-GPU serving.
 *
 * Each simulated GPU in a cluster owns one slice of the base data
 * (shard/partition) and serves queries from an index built over only
 * that slice. The indexes come from search/runner's one builder
 * (buildDatasetIndex, which builds every family of the dataset's kind
 * and documents their per-family semantics), memoized through the
 * build-once discipline (common/memo) keyed by (dataset, policy, shard
 * count, shard), so replicas of a shard — and the HSU/Baseline sides
 * of a sweep — share one build. With one shard, either policy keeps
 * every id in ascending order: the 1-shard index is the whole-dataset
 * index (datasetIndex) itself, never a copy.
 *
 * Everything here is a pure function of its key: builds are
 * bit-identical across runs and thread counts.
 */

#ifndef HSU_SHARD_SHARD_INDEX_HH
#define HSU_SHARD_SHARD_INDEX_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "search/runner.hh"
#include "shard/partition.hh"

namespace hsu::shard
{

/** Identity of one shard of one partitioned dataset. */
struct ShardKey
{
    DatasetId dataset{};
    PartitionPolicy policy = PartitionPolicy::Spatial;
    unsigned numShards = 1;
    unsigned shard = 0;
};

/** The memoized partitioning of (dataset, policy, num_shards). */
const Partitioning &cachedPartitioning(DatasetId dataset,
                                       PartitionPolicy policy,
                                       unsigned num_shards);

/**
 * The memoized index of one shard, built on first use; which indexes
 * it holds depends on the dataset kind (see DatasetIndex). With
 * @p num_shards 1 this is datasetIndex(@p dataset), for either policy.
 */
const DatasetIndex &shardIndex(DatasetId dataset, PartitionPolicy policy,
                               unsigned num_shards, unsigned shard);

/** The full-dataset BVH-NN search radius (memoized pickRadius): the
 *  radius every index of @p dataset is built with, and the one
 *  router-side pruning and the answer oracle use. */
float datasetRadius(DatasetId dataset);

/**
 * Route one serving-pool query to its target shards, ascending:
 *  - GGNN / FLANN: broadcast (kNN has no sound spatial bound).
 *  - BVH-NN: shards whose slice bounding box lies within the search
 *    radius of the query point (sound: any in-radius point inflates
 *    its shard's box to within the radius). Hash slices have
 *    near-full boxes, so this degenerates to broadcast.
 *  - B+tree: exactly the owning shard — key-range binary search for
 *    spatial partitions, hashShardOf for hash partitions. A key
 *    falling between two spatial ranges is provably absent; such
 *    queries (and radius queries pruning every shard) return an empty
 *    target list and are answered at the router without any fan-out.
 *
 * @p query_id indexes the deterministic serving pool of @p pool_size
 * queries (search/runner serveQueryPoints / serveQueryKeys) — the same
 * payloads batch emission resolves ids against.
 */
std::vector<std::uint32_t> routeQuery(Algo algo,
                                      const Partitioning &partitioning,
                                      std::uint32_t query_id,
                                      std::size_t pool_size);

/**
 * The trace of one dynamic batch against one shard's index: the
 * sharded counterpart of search/runner's emitBatchTrace, through the
 * same emitIndexTrace and the same serving query pool. Pure function
 * of its arguments.
 */
std::shared_ptr<const KernelTrace>
emitShardBatchTrace(Algo algo, const ShardKey &key,
                    KernelVariant variant, const DatapathConfig &dp,
                    const std::vector<std::uint32_t> &query_ids,
                    std::size_t pool_size,
                    const ServeKnobs &knobs = ServeKnobs{});

} // namespace hsu::shard

#endif // HSU_SHARD_SHARD_INDEX_HH
