/**
 * @file
 * Functional answer sets for sharded serving: per-shard partial
 * answers, their scatter-gather merge, and independent unsharded
 * oracles.
 *
 * The cluster timing model (shard/cluster) charges cycles for shard
 * batches without materializing answers; this layer computes what
 * those batches would return, so tests and benches can pin the merge
 * contract: for every index family the merged sharded answer is
 * bit-identical to the unsharded answer, at any shard count.
 *
 * Per family:
 *  - FLANN / BVH-NN / B+tree partial answers come from the real
 *    per-shard kernels (search/flann, search/bvhnn,
 *    search/btree_kernel) run over the shard sub-indexes, with
 *    shard-local result ids mapped to global ids. These kernels are
 *    exact, so merging their partials must reproduce the oracle.
 *  - GGNN's beam search is approximate — per-shard beams would not
 *    compose into the unsharded beam answer. The answer layer instead
 *    treats each shard as an exact top-k scan of its slice (the
 *    filter step of a filter-refine contract); the GGNN *trace* in
 *    the cluster timing model still comes from the real beam kernel.
 *
 * Oracles are independent reference scans (no search kernels, no
 * trees), so answer equality exercises partition coverage, routing
 * soundness, per-shard kernel exactness, and merge correctness at
 * once. Every path reads the dataset store (datasetPoints,
 * datasetKeys); both GGNN paths scan it with the batched distance
 * kernel (metricDistBatch), which is bit-identical to metricDist.
 * A query id outside the serving pool fails by name.
 */

#ifndef HSU_SHARD_ANSWERS_HH
#define HSU_SHARD_ANSWERS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "search/runner.hh"
#include "shard/merge.hh"
#include "shard/partition.hh"

namespace hsu::shard
{

/** Answers for a batch of serving-pool queries; exactly one member is
 *  populated, per the algorithm family. */
struct AnswerSet
{
    std::vector<std::vector<Neighbor>> topk;          //!< Ggnn
    std::vector<Neighbor> nearest;                    //!< Flann
    std::vector<RadiusHit> radius;                    //!< Bvhnn
    std::vector<std::optional<std::uint32_t>> values; //!< Btree

    bool operator==(const AnswerSet &o) const;
};

/** Unsharded oracle: independent reference scan over the full base
 *  data (queries resolved against the serving pool of @p pool_size). */
AnswerSet answerUnsharded(Algo algo, DatasetId dataset,
                          const std::vector<std::uint32_t> &query_ids,
                          std::size_t pool_size, unsigned k = 10);

/**
 * Sharded answer: route every query (shard/shard_index routeQuery),
 * run each shard's partial answer over the queries routed to it, map
 * shard-local ids to global, and merge (shard/merge). Bit-identical
 * to answerUnsharded() for any (policy, num_shards).
 */
AnswerSet answerSharded(Algo algo, DatasetId dataset,
                        PartitionPolicy policy, unsigned num_shards,
                        const std::vector<std::uint32_t> &query_ids,
                        std::size_t pool_size, unsigned k = 10);

} // namespace hsu::shard

#endif // HSU_SHARD_ANSWERS_HH
