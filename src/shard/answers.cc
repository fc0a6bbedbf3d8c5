#include "shard/answers.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "shard/shard_index.hh"
#include "structures/graph.hh"

namespace hsu::shard
{

namespace
{

bool
sameNeighbor(const Neighbor &a, const Neighbor &b)
{
    return a.index == b.index && a.dist2 == b.dist2;
}

/** A query id outside the serving pool fails here, by name, before
 *  any path indexes the pool with it. */
void
checkPoolIds(const std::vector<std::uint32_t> &query_ids,
             std::size_t pool_size)
{
    for (const std::uint32_t q : query_ids) {
        hsu_assert(q < pool_size, "query id ", q,
                   " is outside the serving pool of ", pool_size,
                   " queries");
    }
}

/**
 * A GGNN dataset's stored points (datasetPoints), scanned with the
 * batched distance kernel: distances() gives metricDist(metric, query,
 * point) bit for bit. The angular norms are computed once per scan.
 */
class PointScan
{
  public:
    explicit PointScan(DatasetId dataset)
        : points_(datasetPoints(dataset)),
          metric_(datasetInfo(dataset).metric),
          norms_(metricNorms(points_, metric_))
    {
    }

    /** dist[j] = the distance from @p query to stored point ids[j]. */
    void
    distances(const float *query, const std::vector<std::uint32_t> &ids,
              std::vector<float> &dist) const
    {
        dist.resize(ids.size());
        const float query_norm = metric_ == Metric::Angular
                                     ? metricNorm(query, points_.dim())
                                     : 0.0f;
        metricDistBatch(metric_, query, query_norm, points_, norms_.data(),
                        ids.data(), static_cast<unsigned>(ids.size()),
                        dist.data());
    }

    std::size_t size() const { return points_.size(); }

  private:
    const PointSet &points_;
    Metric metric_;
    std::vector<float> norms_;
};

/** Exact top-k of candidates (ids[j], dist[j]) by (distance, global
 *  id), via bounded sorted insertion — the per-shard "filter" answer. */
std::vector<Neighbor>
exactTopK(const std::vector<std::uint32_t> &ids,
          const std::vector<float> &dist, unsigned k)
{
    std::vector<Neighbor> best;
    best.reserve(k + 1);
    for (std::size_t j = 0; j < ids.size(); ++j) {
        const Neighbor cand{ids[j], dist[j]};
        if (best.size() == k && !(cand < best.back()))
            continue;
        best.insert(std::lower_bound(best.begin(), best.end(), cand),
                    cand);
        if (best.size() > k)
            best.pop_back();
    }
    return best;
}

/** Queries routed to one shard, with their positions in the batch. */
struct ShardBatch
{
    std::vector<std::uint32_t> queryIds; //!< serving-pool ids
    std::vector<std::size_t> slots;      //!< positions in the batch
};

std::vector<ShardBatch>
routeBatch(Algo algo, const Partitioning &part,
           const std::vector<std::uint32_t> &query_ids,
           std::size_t pool_size)
{
    std::vector<ShardBatch> per_shard(part.numShards());
    for (std::size_t slot = 0; slot < query_ids.size(); ++slot) {
        for (const std::uint32_t s :
             routeQuery(algo, part, query_ids[slot], pool_size)) {
            per_shard[s].queryIds.push_back(query_ids[slot]);
            per_shard[s].slots.push_back(slot);
        }
    }
    return per_shard;
}

PointSet
gatherPoints(const PointSet &pool,
             const std::vector<std::uint32_t> &query_ids)
{
    PointSet batch(pool.dim());
    batch.reserve(query_ids.size());
    for (const std::uint32_t q : query_ids)
        batch.add(pool[q]);
    return batch;
}

} // namespace

bool
AnswerSet::operator==(const AnswerSet &o) const
{
    if (topk.size() != o.topk.size() ||
        nearest.size() != o.nearest.size() ||
        radius.size() != o.radius.size() ||
        values.size() != o.values.size()) {
        return false;
    }
    for (std::size_t q = 0; q < topk.size(); ++q) {
        if (topk[q].size() != o.topk[q].size())
            return false;
        for (std::size_t i = 0; i < topk[q].size(); ++i) {
            if (!sameNeighbor(topk[q][i], o.topk[q][i]))
                return false;
        }
    }
    for (std::size_t q = 0; q < nearest.size(); ++q) {
        if (!sameNeighbor(nearest[q], o.nearest[q]))
            return false;
    }
    for (std::size_t q = 0; q < radius.size(); ++q) {
        if (radius[q].index != o.radius[q].index ||
            radius[q].dist2 != o.radius[q].dist2) {
            return false;
        }
    }
    for (std::size_t q = 0; q < values.size(); ++q) {
        if (values[q] != o.values[q])
            return false;
    }
    return true;
}

AnswerSet
answerUnsharded(Algo algo, DatasetId dataset,
                const std::vector<std::uint32_t> &query_ids,
                std::size_t pool_size, unsigned k)
{
    checkPoolIds(query_ids, pool_size);
    AnswerSet out;

    switch (algo) {
      case Algo::Ggnn: {
        const PointScan scan(dataset);
        const PointSet &pool = serveQueryPoints(dataset, pool_size);
        std::vector<std::uint32_t> ids(scan.size());
        std::iota(ids.begin(), ids.end(), 0u);
        std::vector<float> dist;
        out.topk.reserve(query_ids.size());
        for (const std::uint32_t q : query_ids) {
            // Independent oracle path: materialize every distance and
            // partial-sort, instead of the bounded insertion the
            // sharded filter uses.
            scan.distances(pool[q], ids, dist);
            std::vector<Neighbor> all;
            all.reserve(ids.size());
            for (const std::uint32_t i : ids)
                all.push_back({i, dist[i]});
            const std::size_t kk = std::min<std::size_t>(k, all.size());
            std::partial_sort(all.begin(),
                              all.begin() +
                                  static_cast<std::ptrdiff_t>(kk),
                              all.end());
            all.resize(kk);
            out.topk.push_back(std::move(all));
        }
        return out;
      }

      case Algo::Flann: {
        const PointSet &base = datasetPoints(dataset);
        const PointSet &pool = serveQueryPoints(dataset, pool_size);
        out.nearest.reserve(query_ids.size());
        for (const std::uint32_t q : query_ids) {
            Neighbor best{0, pointDist2(pool[q], base[0], base.dim())};
            for (std::uint32_t i = 1;
                 i < static_cast<std::uint32_t>(base.size()); ++i) {
                const Neighbor cand{
                    i, pointDist2(pool[q], base[i], base.dim())};
                if (cand < best)
                    best = cand;
            }
            out.nearest.push_back(best);
        }
        return out;
      }

      case Algo::Bvhnn: {
        const PointSet &base = datasetPoints(dataset);
        const PointSet &pool = serveQueryPoints(dataset, pool_size);
        const float r = datasetRadius(dataset);
        out.radius.reserve(query_ids.size());
        for (const std::uint32_t q : query_ids) {
            RadiusHit best;
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(base.size()); ++i) {
                const float d2 =
                    pointDist2(pool[q], base[i], base.dim());
                if (d2 > r * r)
                    continue;
                if (best.index < 0 || d2 < best.dist2) {
                    best = RadiusHit{static_cast<std::int32_t>(i), d2};
                }
            }
            out.radius.push_back(best);
        }
        return out;
      }

      case Algo::Btree: {
        const std::vector<std::uint32_t> &keys = datasetKeys(dataset);
        const std::vector<std::uint32_t> &pool =
            serveQueryKeys(dataset, pool_size);
        out.values.reserve(query_ids.size());
        for (const std::uint32_t q : query_ids) {
            const auto it = std::lower_bound(keys.begin(), keys.end(),
                                             pool[q]);
            if (it != keys.end() && *it == pool[q]) {
                out.values.emplace_back(static_cast<std::uint32_t>(
                    it - keys.begin()));
            } else {
                out.values.emplace_back(std::nullopt);
            }
        }
        return out;
      }
    }
    hsu_panic("unknown algo");
}

AnswerSet
answerSharded(Algo algo, DatasetId dataset, PartitionPolicy policy,
              unsigned num_shards,
              const std::vector<std::uint32_t> &query_ids,
              std::size_t pool_size, unsigned k)
{
    checkPoolIds(query_ids, pool_size);
    const Partitioning &part =
        cachedPartitioning(dataset, policy, num_shards);
    const std::vector<ShardBatch> routed =
        routeBatch(algo, part, query_ids, pool_size);
    AnswerSet out;

    switch (algo) {
      case Algo::Ggnn: {
        const PointSet &pool = serveQueryPoints(dataset, pool_size);
        // The per-shard "filter" answer scans the slice's stored rows
        // directly — no need to build the shard's HNSW graph (that
        // belongs to the timing model, shard/shard_index).
        const PointScan scan(dataset);
        std::vector<float> dist;
        // partials[slot][shard-rank] = that shard's exact top-k.
        std::vector<std::vector<std::vector<Neighbor>>> partials(
            query_ids.size());
        for (unsigned s = 0; s < part.numShards(); ++s) {
            const std::vector<std::uint32_t> &ids = part.shards[s].ids;
            for (std::size_t i = 0; i < routed[s].queryIds.size();
                 ++i) {
                scan.distances(pool[routed[s].queryIds[i]], ids, dist);
                partials[routed[s].slots[i]].push_back(
                    exactTopK(ids, dist, k));
            }
        }
        out.topk.reserve(query_ids.size());
        for (const auto &p : partials)
            out.topk.push_back(mergeTopK(p, k));
        return out;
      }

      case Algo::Flann: {
        const PointSet &pool = serveQueryPoints(dataset, pool_size);
        std::vector<std::vector<std::optional<Neighbor>>> partials(
            query_ids.size());
        for (unsigned s = 0; s < part.numShards(); ++s) {
            if (routed[s].queryIds.empty())
                continue;
            const DatasetIndex &idx =
                shardIndex(dataset, policy, num_shards, s);
            const FlannEmit emit = idx.flann->emit(
                gatherPoints(pool, routed[s].queryIds));
            for (std::size_t i = 0; i < emit.results.size(); ++i) {
                const Neighbor local = emit.results[i];
                partials[routed[s].slots[i]].emplace_back(
                    Neighbor{idx.globalId(local.index), local.dist2});
            }
        }
        out.nearest.reserve(query_ids.size());
        for (const auto &p : partials)
            out.nearest.push_back(mergeNearest(p));
        return out;
      }

      case Algo::Bvhnn: {
        const PointSet &pool = serveQueryPoints(dataset, pool_size);
        std::vector<std::vector<RadiusHit>> partials(query_ids.size());
        for (unsigned s = 0; s < part.numShards(); ++s) {
            if (routed[s].queryIds.empty())
                continue;
            const DatasetIndex &idx =
                shardIndex(dataset, policy, num_shards, s);
            const BvhnnEmit emit = idx.bvhnn->emit(
                gatherPoints(pool, routed[s].queryIds));
            for (std::size_t i = 0; i < emit.results.size(); ++i) {
                RadiusHit hit = emit.results[i];
                if (hit.index >= 0) {
                    hit.index = static_cast<std::int32_t>(idx.globalId(
                        static_cast<std::uint32_t>(hit.index)));
                }
                partials[routed[s].slots[i]].push_back(hit);
            }
        }
        out.radius.reserve(query_ids.size());
        for (const auto &p : partials)
            out.radius.push_back(mergeRadiusHits(p));
        return out;
      }

      case Algo::Btree: {
        const std::vector<std::uint32_t> &pool =
            serveQueryKeys(dataset, pool_size);
        std::vector<std::vector<std::optional<std::uint32_t>>> partials(
            query_ids.size());
        for (unsigned s = 0; s < part.numShards(); ++s) {
            if (routed[s].queryIds.empty())
                continue;
            const DatasetIndex &idx =
                shardIndex(dataset, policy, num_shards, s);
            std::vector<std::uint32_t> batch;
            batch.reserve(routed[s].queryIds.size());
            for (const std::uint32_t q : routed[s].queryIds)
                batch.push_back(pool[q]);
            const BtreeEmit emit = idx.btreeKernel->emit(batch);
            for (std::size_t i = 0; i < emit.results.size(); ++i) {
                partials[routed[s].slots[i]].push_back(
                    emit.results[i]);
            }
        }
        out.values.reserve(query_ids.size());
        for (const auto &p : partials)
            out.values.push_back(mergeLookups(p));
        return out;
      }
    }
    hsu_panic("unknown algo");
}

} // namespace hsu::shard
