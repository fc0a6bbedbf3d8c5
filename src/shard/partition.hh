/**
 * @file
 * Index partitioning for sharded multi-GPU serving.
 *
 * A Partitioning assigns every base element of a dataset (a point for
 * the ANN/spatial families, a key for B+tree) to exactly one of N
 * shards, so each simulated GPU builds an index over only its slice.
 * Two policies:
 *
 *  - Spatial: elements are ordered by a locality key — the 63-bit
 *    Morton code of the point (geom/morton, the same codes the LBVH
 *    builder sorts by) for 3-D data, the raw key for 1-D key sets, and
 *    the Morton code of the first three normalized dimensions for
 *    high-dimensional ANN data — and split into N contiguous ranges of
 *    near-equal population. Contiguity in the locality key is what
 *    makes router-side pruning sound: each shard carries a bounding
 *    box / key range, and a query whose reach misses that bound can
 *    skip the shard entirely.
 *
 *  - Hash: element id avalanched through hsu::deriveSeed and reduced
 *    mod N. No locality (every range query must broadcast), but
 *    population is balanced for any input distribution and a hot key
 *    range spreads over all shards.
 *
 * Partitionings are pure functions of (dataset, policy, shard count):
 * bit-identical across runs, platforms, and thread counts, which the
 * cluster layer's determinism contract builds on.
 */

#ifndef HSU_SHARD_PARTITION_HH
#define HSU_SHARD_PARTITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "geom/aabb.hh"
#include "workloads/datasets.hh"

namespace hsu::shard
{

/** How base elements map to shards. */
enum class PartitionPolicy : std::uint8_t
{
    Spatial, //!< Morton-range (3-D) / key-range (1-D) contiguous slices
    Hash,    //!< deriveSeed(seed, id) % N — balanced, no locality
};

std::string toString(PartitionPolicy policy);

/** One shard's slice of the base data. */
struct ShardSlice
{
    /** Global element ids owned by this shard, in ascending id order
     *  for points and ascending key order for keys. */
    std::vector<std::uint32_t> ids;

    /** Bounding box of the shard's points (3-D datasets only; empty
     *  box otherwise). Used for radius-query pruning. */
    Aabb bounds;

    /** Inclusive key range of the shard's keys (Keys datasets only).
     *  Used for lookup routing; meaningless when ids is empty. */
    std::uint32_t keyLo = 0;
    std::uint32_t keyHi = 0;
};

/** A full N-way split of one dataset's base elements. */
struct Partitioning
{
    DatasetId dataset{};
    PartitionPolicy policy = PartitionPolicy::Spatial;
    std::vector<ShardSlice> shards;

    unsigned numShards() const
    { return static_cast<unsigned>(shards.size()); }

    /** Total elements across all shards (== base element count). */
    std::size_t totalElements() const;
};

/**
 * Partition the base elements of @p dataset into @p num_shards slices.
 * Points datasets split the stored PointSet (datasetPoints); Keys
 * datasets split the stored key set (datasetKeys). Every element lands in exactly one shard; spatial slices are
 * contiguous in the locality key with populations differing by at most
 * one, hash slices are deriveSeed-balanced.
 */
Partitioning partitionDataset(DatasetId dataset,
                              PartitionPolicy policy,
                              unsigned num_shards);

/** Shard owning @p id under a hash partitioning of @p dataset (the
 *  router uses this for O(1) key routing without scanning slices). */
unsigned hashShardOf(const DatasetInfo &info, std::uint32_t id,
                     unsigned num_shards);

} // namespace hsu::shard

#endif // HSU_SHARD_PARTITION_HH
