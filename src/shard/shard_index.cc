#include "shard/shard_index.hh"

#include <tuple>

#include "common/logging.hh"
#include "common/memo.hh"

namespace hsu::shard
{

namespace
{

/** Memoized full-dataset radius. */
struct RadiusAsset
{
    float radius = 0.0f;
};

} // namespace

const Partitioning &
cachedPartitioning(DatasetId dataset, PartitionPolicy policy,
                   unsigned num_shards)
{
    const auto key = std::make_tuple(dataset, policy, num_shards);
    return cachedAssets<Partitioning>(key, [=](Partitioning &p) {
        p = partitionDataset(dataset, policy, num_shards);
    });
}

float
datasetRadius(DatasetId dataset)
{
    return cachedAssets<RadiusAsset>(dataset, [=](RadiusAsset &a) {
               a.radius = pickRadius(datasetPoints(dataset));
           })
        .radius;
}

const DatasetIndex &
shardIndex(DatasetId dataset, PartitionPolicy policy,
           unsigned num_shards, unsigned shard)
{
    hsu_assert(shard < num_shards, "shard index out of range");
    if (num_shards == 1)
        return datasetIndex(dataset);
    const auto key = std::make_tuple(dataset, policy, num_shards, shard);
    return cachedAssets<DatasetIndex>(key, [=](DatasetIndex &idx) {
        const ShardSlice &slice =
            cachedPartitioning(dataset, policy, num_shards).shards[shard];
        hsu_assert(!slice.ids.empty(),
                   "cannot build an index over an empty shard");
        buildDatasetIndex(idx, dataset,
                          DatasetSlice{static_cast<unsigned>(policy),
                                       num_shards, shard},
                          slice.ids);
    });
}

std::vector<std::uint32_t>
routeQuery(Algo algo, const Partitioning &partitioning,
           std::uint32_t query_id, std::size_t pool_size)
{
    const unsigned n = partitioning.numShards();
    std::vector<std::uint32_t> targets;

    switch (algo) {
      case Algo::Ggnn:
      case Algo::Flann:
        // kNN has no sound distance bound before the answer is known:
        // broadcast to every (non-empty) shard.
        targets.reserve(n);
        for (unsigned s = 0; s < n; ++s) {
            if (!partitioning.shards[s].ids.empty())
                targets.push_back(s);
        }
        return targets;

      case Algo::Bvhnn: {
        const float r = datasetRadius(partitioning.dataset);
        const PointSet &pool =
            serveQueryPoints(partitioning.dataset, pool_size);
        hsu_assert(query_id < pool.size(),
                   "route query id outside the serving pool");
        const Vec3 q = pool.vec3(query_id);
        for (unsigned s = 0; s < n; ++s) {
            const ShardSlice &slice = partitioning.shards[s];
            if (slice.ids.empty())
                continue;
            if (slice.bounds.distance2(q) <= r * r)
                targets.push_back(s);
        }
        return targets;
      }

      case Algo::Btree: {
        const std::vector<std::uint32_t> &pool =
            serveQueryKeys(partitioning.dataset, pool_size);
        hsu_assert(query_id < pool.size(),
                   "route query id outside the serving pool");
        const std::uint32_t key = pool[query_id];
        if (partitioning.policy == PartitionPolicy::Hash) {
            const unsigned owner = hashShardOf(
                datasetInfo(partitioning.dataset), key, n);
            if (!partitioning.shards[owner].ids.empty())
                targets.push_back(owner);
            return targets;
        }
        // Spatial: shard key ranges are disjoint and ascending; the
        // owner (if the key is present at all) is the first shard
        // whose range upper bound reaches the key.
        for (unsigned s = 0; s < n; ++s) {
            const ShardSlice &slice = partitioning.shards[s];
            if (slice.ids.empty())
                continue;
            if (key > slice.keyHi)
                continue;
            if (key >= slice.keyLo)
                targets.push_back(s);
            // key < keyLo of the first reachable range: provably
            // absent from every shard.
            break;
        }
        return targets;
      }
    }
    hsu_panic("unknown algo");
}

std::shared_ptr<const KernelTrace>
emitShardBatchTrace(Algo algo, const ShardKey &key,
                    KernelVariant variant, const DatapathConfig &dp,
                    const std::vector<std::uint32_t> &query_ids,
                    std::size_t pool_size, const ServeKnobs &knobs)
{
    return emitIndexTrace(
        algo, shardIndex(key.dataset, key.policy, key.numShards, key.shard),
        variant, dp, query_ids, pool_size, knobs);
}

} // namespace hsu::shard
