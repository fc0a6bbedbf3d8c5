#include "shard/partition.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "geom/morton.hh"

namespace hsu::shard
{

namespace
{

/** Salt folded into the dataset seed so shard hashing never aliases
 *  the dataset's own generator streams. */
constexpr std::uint64_t kShardHashSalt = 0x5bd1e995u;

/**
 * Locality key per point: the 63-bit Morton code of the first three
 * coordinates, normalized to the set's bounding box. For 3-D data this
 * is exactly the LBVH build order; for high-dimensional ANN data it is
 * a (weak but deterministic) spatial proxy — GGNN queries broadcast
 * regardless, so only balance matters there.
 */
std::vector<std::uint64_t>
mortonKeys(const PointSet &points)
{
    Aabb bounds;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const float *p = points[i];
        bounds.expand(Vec3(p[0], points.dim() > 1 ? p[1] : 0.0f,
                           points.dim() > 2 ? p[2] : 0.0f));
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const float *p = points[i];
        keys.push_back(mortonCode63(
            Vec3(p[0], points.dim() > 1 ? p[1] : 0.0f,
                 points.dim() > 2 ? p[2] : 0.0f),
            bounds));
    }
    return keys;
}

/** Split @p order (element ids in locality order) into @p num_shards
 *  contiguous runs whose populations differ by at most one. */
std::vector<std::vector<std::uint32_t>>
contiguousRuns(const std::vector<std::uint32_t> &order,
               unsigned num_shards)
{
    std::vector<std::vector<std::uint32_t>> runs(num_shards);
    const std::size_t n = order.size();
    std::size_t next = 0;
    for (unsigned s = 0; s < num_shards; ++s) {
        const std::size_t count = n / num_shards + (s < n % num_shards);
        runs[s].assign(order.begin() + static_cast<std::ptrdiff_t>(next),
                       order.begin() +
                           static_cast<std::ptrdiff_t>(next + count));
        next += count;
    }
    hsu_assert(next == n, "contiguous split dropped elements");
    return runs;
}

} // namespace

std::string
toString(PartitionPolicy policy)
{
    switch (policy) {
      case PartitionPolicy::Spatial:
        return "spatial";
      case PartitionPolicy::Hash:
        return "hash";
    }
    hsu_panic("unknown partition policy");
}

std::size_t
Partitioning::totalElements() const
{
    std::size_t total = 0;
    for (const ShardSlice &s : shards)
        total += s.ids.size();
    return total;
}

unsigned
hashShardOf(const DatasetInfo &info, std::uint32_t id,
            unsigned num_shards)
{
    return static_cast<unsigned>(
        deriveSeed(info.seed ^ kShardHashSalt, id) % num_shards);
}

Partitioning
partitionDataset(DatasetId dataset, PartitionPolicy policy,
                 unsigned num_shards)
{
    const DatasetInfo &info = datasetInfo(dataset);
    hsu_assert(num_shards >= 1, "need at least one shard");

    Partitioning out;
    out.dataset = dataset;
    out.policy = policy;
    out.shards.resize(num_shards);

    if (info.kind == DatasetKind::Keys) {
        // Element id i is the rank of key i in the (sorted, unique)
        // key set — the same id BTree::build stores as the value, so
        // shard lookups return globally meaningful values.
        const std::vector<std::uint32_t> &keys = datasetKeys(dataset);
        hsu_assert(keys.size() >= num_shards,
                   "more shards than keys in ", info.paperName);
        std::vector<std::vector<std::uint32_t>> runs;
        if (policy == PartitionPolicy::Spatial) {
            // Keys are already in locality (sorted) order: contiguous
            // ranks are contiguous key ranges.
            std::vector<std::uint32_t> order(keys.size());
            std::iota(order.begin(), order.end(), 0u);
            runs = contiguousRuns(order, num_shards);
        } else {
            runs.resize(num_shards);
            for (std::uint32_t i = 0; i < keys.size(); ++i)
                runs[hashShardOf(info, keys[i], num_shards)]
                    .push_back(i);
        }
        for (unsigned s = 0; s < num_shards; ++s) {
            ShardSlice &slice = out.shards[s];
            slice.ids = std::move(runs[s]);
            // ids are ranks into the sorted key set, so ascending id
            // order is ascending key order; range bounds are the ends.
            if (!slice.ids.empty()) {
                slice.keyLo = keys[slice.ids.front()];
                slice.keyHi = keys[slice.ids.back()];
            }
        }
        return out;
    }

    const PointSet &points = datasetPoints(dataset);
    hsu_assert(points.size() >= num_shards,
               "more shards than points in ", info.paperName);
    std::vector<std::vector<std::uint32_t>> runs;
    if (policy == PartitionPolicy::Spatial) {
        const std::vector<std::uint64_t> morton = mortonKeys(points);
        std::vector<std::uint32_t> order(points.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return morton[a] != morton[b]
                                 ? morton[a] < morton[b]
                                 : a < b;
                  });
        runs = contiguousRuns(order, num_shards);
    } else {
        runs.resize(num_shards);
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(points.size()); ++i)
            runs[hashShardOf(info, i, num_shards)].push_back(i);
    }
    for (unsigned s = 0; s < num_shards; ++s) {
        ShardSlice &slice = out.shards[s];
        slice.ids = std::move(runs[s]);
        std::sort(slice.ids.begin(), slice.ids.end());
        if (info.kind == DatasetKind::Point3d) {
            for (const std::uint32_t id : slice.ids)
                slice.bounds.expand(points.vec3(id));
        }
    }
    return out;
}

} // namespace hsu::shard
