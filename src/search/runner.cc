#include "search/runner.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "analysis/trace_lint.hh"
#include "common/logging.hh"
#include "common/memo.hh"
#include "common/phase_timer.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "geom/morton.hh"
#include "structures/serialize.hh"

namespace hsu
{

std::string
toString(Algo algo)
{
    switch (algo) {
      case Algo::Ggnn:
        return "GGNN";
      case Algo::Flann:
        return "FLANN";
      case Algo::Bvhnn:
        return "BVH-NN";
      case Algo::Btree:
        return "B+Tree";
    }
    hsu_panic("unknown algo");
}

std::vector<DatasetId>
datasetsForAlgo(Algo algo)
{
    switch (algo) {
      case Algo::Ggnn: {
        std::vector<DatasetId> out;
        for (const auto &d : datasetsOfKind(DatasetKind::HighDim))
            out.push_back(d.id);
        return out;
      }
      case Algo::Flann:
      case Algo::Bvhnn: {
        std::vector<DatasetId> out;
        for (const auto &d : datasetsOfKind(DatasetKind::Point3d))
            out.push_back(d.id);
        return out;
      }
      case Algo::Btree: {
        std::vector<DatasetId> out;
        for (const auto &d : datasetsOfKind(DatasetKind::Keys))
            out.push_back(d.id);
        return out;
      }
    }
    hsu_panic("unknown algo");
}

std::string
workloadLabel(Algo algo, const DatasetInfo &info)
{
    if (algo == Algo::Flann)
        return "F-" + info.abbr;
    if (algo == Algo::Bvhnn)
        return "B-" + info.abbr;
    return info.abbr;
}

RunnerOptions
optionsFor(const DatasetInfo &info, double scale)
{
    RunnerOptions opts;
    if (info.dim > 128) {
        // High-dimensional traces carry ~dim ops per candidate; keep
        // total trace size roughly constant across datasets.
        opts.ggnnQueries = std::max(
            32u, static_cast<unsigned>(128.0 * 128.0 / info.dim));
    }
    auto apply = [scale](unsigned v) {
        return std::max(32u, static_cast<unsigned>(v * scale));
    };
    opts.ggnnQueries = apply(opts.ggnnQueries);
    opts.pointQueries = apply(opts.pointQueries);
    opts.keyQueries = apply(opts.keyQueries);
    return opts;
}

double
quickScale()
{
    // ArgParser::envFlag("quick") writes HSU_QUICK back;
    // audit[env-read]: downstream plumbing of the envFlag write-back
    const char *q = std::getenv("HSU_QUICK");
    return (q != nullptr && q[0] != '\0' && q[0] != '0') ? 0.25 : 1.0;
}

namespace
{

/**
 * Uniform grid over a 3-D point set for exact nearest-neighbor scans.
 * An expanding ring (Chebyshev shell) scan around the query cell stops
 * as soon as no unscanned cell can hold a closer point, bounding the
 * work by the local density instead of the full set. The candidate
 * distances evaluated are the same pointDist2 values a brute-force
 * sweep computes, and min over a set of floats is order-independent,
 * so the nearest-neighbor distance is bit-identical to brute force.
 */
class NeighborGrid
{
  public:
    explicit NeighborGrid(const PointSet &points) : points_(points)
    {
        const std::size_t n = points.size();
        for (int a = 0; a < 3; ++a) {
            lo_[a] = std::numeric_limits<float>::infinity();
            hi_[a] = -std::numeric_limits<float>::infinity();
        }
        for (std::size_t i = 0; i < n; ++i) {
            const float *p = points_[i];
            for (int a = 0; a < 3; ++a) {
                lo_[a] = std::min(lo_[a], p[a]);
                hi_[a] = std::max(hi_[a], p[a]);
            }
        }
        // ~2 points per cell on average, capped so the cell array
        // stays a few MB even for the largest meshes.
        res_ = static_cast<unsigned>(std::clamp(
            std::cbrt(static_cast<double>(n) / 2.0), 1.0, 96.0));
        minEdge_ = std::numeric_limits<float>::infinity();
        for (int a = 0; a < 3; ++a) {
            ext_[a] = hi_[a] - lo_[a];
            if (ext_[a] > 0.0f) {
                minEdge_ = std::min(
                    minEdge_, ext_[a] / static_cast<float>(res_));
            }
        }

        // Counting sort of point ids into cells.
        const std::size_t cells =
            static_cast<std::size_t>(res_) * res_ * res_;
        std::vector<std::uint32_t> cell_of(n);
        start_.assign(cells + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            cell_of[i] = cellIndex(points_[i]);
            ++start_[cell_of[i] + 1];
        }
        for (std::size_t c = 0; c < cells; ++c)
            start_[c + 1] += start_[c];
        ids_.resize(n);
        std::vector<std::uint32_t> cursor(start_.begin(),
                                          start_.end() - 1);
        for (std::size_t i = 0; i < n; ++i)
            ids_[cursor[cell_of[i]]++] = static_cast<std::uint32_t>(i);
    }

    /** Exact squared distance from point @p i to its nearest other
     *  point (infinity for a single-point set, 0 for duplicates). */
    float
    nnDist2(std::size_t i) const
    {
        const float *p = points_[i];
        unsigned c[3];
        for (int a = 0; a < 3; ++a)
            c[a] = axisCell(p[a], a);
        // Shells are exhausted once the box [c-r, c+r] covers every
        // cell on all three axes.
        unsigned max_r = 0;
        for (int a = 0; a < 3; ++a)
            max_r = std::max(max_r, std::max(c[a], res_ - 1 - c[a]));

        float best = std::numeric_limits<float>::infinity();
        for (unsigned r = 0;; ++r) {
            scanShell(i, p, c, r, best);
            // A point outside shell r differs from p by more than
            // r * minEdge_ on some axis (its cell index differs by at
            // least r+1 there), so once best is within that bound the
            // scan is provably complete.
            const float reach = static_cast<float>(r) * minEdge_;
            if (best <= reach * reach || r >= max_r)
                return best;
        }
    }

  private:
    unsigned
    axisCell(float v, int a) const
    {
        if (!(ext_[a] > 0.0f))
            return 0;
        const float t = (v - lo_[a]) / ext_[a];
        const auto cell =
            static_cast<long>(t * static_cast<float>(res_));
        if (cell < 0)
            return 0;
        return std::min(res_ - 1, static_cast<unsigned>(cell));
    }

    std::uint32_t
    cellIndex(const float *p) const
    {
        return (axisCell(p[0], 0) * res_ + axisCell(p[1], 1)) * res_ +
               axisCell(p[2], 2);
    }

    /** Fold every point in the cells at Chebyshev distance exactly
     *  @p r from @p c into @p best (skipping point @p i itself). */
    void
    scanShell(std::size_t i, const float *p, const unsigned c[3],
              unsigned r, float &best) const
    {
        const auto lo = [&](int a) {
            return c[a] >= r ? c[a] - r : 0u;
        };
        const auto hi = [&](int a) {
            return std::min(res_ - 1, c[a] + r);
        };
        for (unsigned x = lo(0); x <= hi(0); ++x) {
            for (unsigned y = lo(1); y <= hi(1); ++y) {
                for (unsigned z = lo(2); z <= hi(2); ++z) {
                    const unsigned cheb = std::max(
                        {absDiff(x, c[0]), absDiff(y, c[1]),
                         absDiff(z, c[2])});
                    if (cheb != r)
                        continue;
                    const std::uint32_t cell = (x * res_ + y) * res_ + z;
                    for (std::uint32_t k = start_[cell];
                         k < start_[cell + 1]; ++k) {
                        const std::uint32_t j = ids_[k];
                        if (j == i)
                            continue;
                        best = std::min(
                            best, pointDist2(p, points_[j], 3));
                    }
                }
            }
        }
    }

    static unsigned
    absDiff(unsigned a, unsigned b)
    {
        return a > b ? a - b : b - a;
    }

    const PointSet &points_;
    float lo_[3], hi_[3], ext_[3];
    float minEdge_ = 0.0f;
    unsigned res_ = 1;
    std::vector<std::uint32_t> start_; //!< cell -> ids_ range
    std::vector<std::uint32_t> ids_;   //!< point ids grouped by cell
};

} // namespace

float
pickRadius(const PointSet &points, std::uint64_t seed)
{
    // Median nearest-neighbor spacing over a small deterministic
    // sample, doubled (RTNN builds leaves at 2x the search radius; we
    // fold that into the radius choice). Each sample's exact nearest
    // neighbor comes from a uniform-grid ring scan — bit-identical to
    // the O(samples x N) brute-force sweep it replaced, but bounded by
    // the local point density.
    Rng rng(seed);
    const std::size_t samples =
        std::min<std::size_t>(64, points.size());
    const NeighborGrid grid(points);
    std::vector<float> nn;
    nn.reserve(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        const std::size_t i = rng.nextBounded(points.size());
        nn.push_back(std::sqrt(grid.nnDist2(i)));
    }
    std::nth_element(nn.begin(), nn.begin() + nn.size() / 2, nn.end());
    return 2.0f * nn[nn.size() / 2];
}

std::string
indexCacheStem(const DatasetInfo &info, const DatasetSlice &slice,
               const std::string &kind,
               std::initializer_list<std::uint64_t> builder)
{
    // Bump when the serialized layout or the dataset generators change,
    // which the other inputs cannot see.
    constexpr std::uint64_t kFormatVersion = 1;
    std::uint64_t h = deriveSeed(kFormatVersion, info.seed);
    h = deriveSeed(h, info.simPoints);
    h = deriveSeed(h, info.dim);
    if (slice.numShards > 1) {
        h = deriveSeed(h, slice.policy);
        h = deriveSeed(h, slice.numShards);
        h = deriveSeed(h, slice.shard);
    }
    h = deriveSeed(h, builder.size());
    for (const std::uint64_t v : builder)
        h = deriveSeed(h, v);
    std::ostringstream os;
    os << info.paperName << '-' << kind << '-' << std::hex
       << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

namespace
{

/**
 * Persistent index cache (the build-once/query-many split of RTNN /
 * RT-kNNS, applied across processes): when the HSU_INDEX_CACHE
 * environment variable names a directory, built indexes are serialized
 * there and later runs reload them instead of rebuilding. Files are
 * named by indexCacheStem(), which hashes every input of the build, so
 * an index built from other inputs is never found. Serialized indexes
 * round-trip exactly (tests/structures/test_serialize), and the loaders
 * shape-check against the backing PointSet and fall back to a rebuild
 * on any mismatch, so a corrupt cache costs a warning, never a wrong
 * result.
 */
std::string
indexCacheFile(const std::string &stem)
{
    // Opt-in disk cache location; unset means "no cache".
    // audit[env-read]: no CLI owns this library path
    const char *dir = std::getenv("HSU_INDEX_CACHE");
    if (dir == nullptr || dir[0] == '\0')
        return {};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        hsu_warn("cannot create HSU_INDEX_CACHE dir ", dir, ": ",
                 ec.message());
        return {};
    }
    return std::string(dir) + "/" + stem + ".idx";
}

template <typename T, typename LoadFn, typename BuildFn, typename SaveFn>
T
cachedIndex(const std::string &file, LoadFn load, BuildFn build,
            SaveFn save)
{
    if (!file.empty()) {
        std::ifstream is(file, std::ios::binary);
        if (is) {
            if (std::optional<T> got = load(is))
                return std::move(*got);
            hsu_warn("index cache ", file, " is stale; rebuilding");
        }
    }
    T built = [&] {
        const ScopedPhaseTimer timer(PipelinePhase::Build);
        return build();
    }();
    if (!file.empty()) {
        // Write-to-temp + rename so a concurrent reader never sees a
        // half-written index.
        std::string tmp = file + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
        tmp += std::to_string(::getpid());
#endif
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (os) {
            save(os, built);
            os.close();
            std::error_code ec;
            std::filesystem::rename(tmp, file, ec);
            if (ec)
                std::filesystem::remove(tmp, ec);
        }
    }
    return built;
}

/** Builder parameters of every index (the cache keys them). */
constexpr unsigned kKdLeafSize = 16;
constexpr unsigned kBtreeOrder = 256;
constexpr double kBtreeLeafFill = 0.7;

/**
 * Deterministic per-dataset serving query pool: the fixed universe of
 * queries online requests draw from, keyed by (dataset, pool size) so
 * different server configs never alias.
 */
struct ServePool
{
    PointSet points;                 //!< HighDim / Point3d datasets
    std::vector<std::uint32_t> keys; //!< Keys datasets
};

const ServePool &
servePool(DatasetId id, std::size_t pool_size)
{
    const auto key = std::make_pair(id, pool_size);
    return cachedAssets<ServePool>(key, [id, pool_size](ServePool &p) {
        const DatasetInfo &info = datasetInfo(id);
        if (info.kind == DatasetKind::Keys)
            p.keys = generateKeyQueries(info, pool_size);
        else
            p.points = generateQueries(info, pool_size);
    });
}

} // namespace

void
buildDatasetIndex(DatasetIndex &idx, DatasetId dataset,
                  const DatasetSlice &slice, std::vector<std::uint32_t> ids)
{
    const DatasetInfo &info = datasetInfo(dataset);
    idx.dataset = dataset;
    idx.ids = std::move(ids);
    const auto file = [&](const char *kind,
                          std::initializer_list<std::uint64_t> builder) {
        return indexCacheFile(indexCacheStem(info, slice, kind, builder));
    };

    if (info.kind == DatasetKind::Keys) {
        idx.btree = std::make_unique<BTree>(cachedIndex<BTree>(
            file("btree",
                 {kBtreeOrder, std::bit_cast<std::uint64_t>(kBtreeLeafFill)}),
            [](std::istream &is) { return loadBTree(is); },
            [&] {
                // Ranks in the sorted key set are the element ids.
                const std::vector<std::uint32_t> &keys =
                    datasetKeys(dataset);
                const std::size_t n =
                    idx.ids.empty() ? keys.size() : idx.ids.size();
                std::vector<std::pair<std::uint32_t, std::uint32_t>>
                    pairs;
                pairs.reserve(n);
                for (std::uint32_t i = 0; i < n; ++i) {
                    const std::uint32_t rank = idx.globalId(i);
                    pairs.emplace_back(keys[rank], rank);
                }
                return BTree::build(std::move(pairs), kBtreeOrder,
                                    kBtreeLeafFill);
            },
            [](std::ostream &os, const BTree &t) { saveBTree(os, t); }));
        idx.btreeKernel = std::make_unique<BtreeKernel>(*idx.btree);
        return;
    }

    // The whole dataset reads the store's points; a slice gathers its
    // own. Either way they stay put: the kernels built below hold
    // references into them.
    const PointSet &full = datasetPoints(dataset);
    if (info.kind == DatasetKind::Point3d)
        idx.radius = pickRadius(full);
    if (idx.ids.empty()) {
        idx.points = &full;
    } else {
        idx.slicePoints = PointSet(full.dim());
        idx.slicePoints.reserve(idx.ids.size());
        for (const std::uint32_t id : idx.ids)
            idx.slicePoints.add(full[id]);
        idx.points = &idx.slicePoints;
    }
    const PointSet &points = *idx.points;

    if (info.kind == DatasetKind::HighDim) {
        const HnswParams hp{};
        idx.graph = std::make_unique<HnswGraph>(cachedIndex<HnswGraph>(
            file("hnsw",
                 {static_cast<std::uint64_t>(info.metric), hp.degree,
                  hp.degreeLayer0, hp.efConstruction, hp.seed}),
            [&](std::istream &is) { return loadGraph(is, points); },
            [&] { return HnswGraph::build(points, info.metric, hp); },
            [](std::ostream &os, const HnswGraph &g) {
                saveGraph(os, g);
            }));
        idx.ggnn = std::make_unique<GgnnKernel>(*idx.graph, GgnnConfig{});
        return;
    }

    idx.bvh = std::make_unique<Lbvh>(cachedIndex<Lbvh>(
        file("lbvh", {std::bit_cast<std::uint32_t>(idx.radius)}),
        [](std::istream &is) { return loadLbvh(is); },
        [&] { return Lbvh::buildFromPoints(points, idx.radius); },
        [](std::ostream &os, const Lbvh &b) { saveLbvh(os, b); }));
    idx.bvhnn = std::make_unique<BvhnnKernel>(points, *idx.bvh,
                                              BvhnnConfig{idx.radius});
    idx.kdtree = std::make_unique<KdTree>(cachedIndex<KdTree>(
        file("kdtree", {kKdLeafSize}),
        [&](std::istream &is) { return loadKdTree(is, points); },
        [&] { return KdTree::build(points, kKdLeafSize); },
        [](std::ostream &os, const KdTree &t) { saveKdTree(os, t); }));
    idx.flann = std::make_unique<FlannKernel>(*idx.kdtree);
}

const DatasetIndex &
datasetIndex(DatasetId dataset)
{
    return cachedAssets<DatasetIndex>(dataset, [dataset](DatasetIndex &idx) {
        buildDatasetIndex(idx, dataset, DatasetSlice{}, {});
    });
}

const PointSet &
serveQueryPoints(DatasetId dataset, std::size_t pool_size)
{
    const ServePool &pool = servePool(dataset, pool_size);
    hsu_assert(datasetInfo(dataset).kind != DatasetKind::Keys,
               "serveQueryPoints on a Keys dataset");
    return pool.points;
}

const std::vector<std::uint32_t> &
serveQueryKeys(DatasetId dataset, std::size_t pool_size)
{
    const ServePool &pool = servePool(dataset, pool_size);
    hsu_assert(datasetInfo(dataset).kind == DatasetKind::Keys,
               "serveQueryKeys on a non-Keys dataset");
    return pool.keys;
}

const std::vector<std::uint64_t> &
serveQueryCoherenceKeys(DatasetId dataset, std::size_t pool_size)
{
    struct CoherenceKeys
    {
        std::vector<std::uint64_t> codes;
    };
    const auto key = std::make_pair(dataset, pool_size);
    return cachedAssets<CoherenceKeys>(
               key,
               [dataset, pool_size](CoherenceKeys &out) {
                   const ServePool &pool =
                       servePool(dataset, pool_size);
                   if (datasetInfo(dataset).kind == DatasetKind::Keys) {
                       out.codes.reserve(pool.keys.size());
                       for (const std::uint32_t k : pool.keys)
                           out.codes.push_back(k);
                       return;
                   }
                   out.codes = mortonCodes63(pool.points[0],
                                             pool.points.size(),
                                             pool.points.dim());
               })
        .codes;
}

namespace
{

/**
 * Debug-build emission hook: every kernel's semantic trace runs the
 * static linter at emission time; release builds (unless HSU_AUDIT)
 * compile the check out.
 */
void
maybeLintEmission([[maybe_unused]] const SemKernelTrace &sem,
                  [[maybe_unused]] Algo algo)
{
#if !defined(NDEBUG) || defined(HSU_AUDIT)
    lintSemTraceOrDie(sem, toString(algo).c_str());
#endif
}

} // namespace

SemKernelTrace
emitIndexSem(Algo algo, const DatasetIndex &idx,
             const std::vector<std::uint32_t> &query_ids,
             std::size_t pool_size, const ServeKnobs &knobs)
{
    hsu_assert(!query_ids.empty(), "empty query batch");
    SemKernelTrace sem = [&]() -> SemKernelTrace {
        const ScopedPhaseTimer timer(PipelinePhase::Emit);
        const ServePool &pool = servePool(idx.dataset, pool_size);
        const auto gather_points = [&] {
            PointSet batch(pool.points.dim());
            batch.reserve(query_ids.size());
            for (const std::uint32_t q : query_ids) {
                hsu_assert(q < pool.points.size(),
                           "query id out of pool: ", q);
                batch.add(pool.points[q]);
            }
            return batch;
        };
        switch (algo) {
          case Algo::Ggnn: {
            // Default-quality batches reuse the index's kernel (its
            // address layouts are identical to a freshly constructed
            // one — allocation is deterministic per kernel); degraded
            // batches instantiate one with the shrunk knobs, which is
            // cheap (address layouts only).
            if (knobs == ServeKnobs{})
                return idx.ggnn->emit(gather_points()).sem;
            GgnnConfig cfg;
            cfg.ef = knobs.ggnnEf;
            cfg.k = knobs.ggnnK;
            const GgnnKernel kernel(*idx.graph, cfg);
            return kernel.emit(gather_points()).sem;
          }
          case Algo::Flann:
            return idx.flann->emit(gather_points()).sem;
          case Algo::Bvhnn:
            return idx.bvhnn->emit(gather_points()).sem;
          case Algo::Btree: {
            std::vector<std::uint32_t> batch;
            batch.reserve(query_ids.size());
            for (const std::uint32_t q : query_ids) {
                hsu_assert(q < pool.keys.size(),
                           "query id out of pool: ", q);
                batch.push_back(pool.keys[q]);
            }
            return idx.btreeKernel->emit(batch).sem;
          }
        }
        hsu_panic("unknown algo");
    }();
    maybeLintEmission(sem, algo);
    return sem;
}

std::shared_ptr<const KernelTrace>
emitIndexTrace(Algo algo, const DatasetIndex &idx, KernelVariant variant,
               const DatapathConfig &dp,
               const std::vector<std::uint32_t> &query_ids,
               std::size_t pool_size, const ServeKnobs &knobs)
{
    return std::make_shared<const KernelTrace>(lowerTrace(
        emitIndexSem(algo, idx, query_ids, pool_size, knobs),
        loweringFor(variant, dp)));
}

SemKernelTrace
emitSemantic(Algo algo, DatasetId id, const RunnerOptions &opts)
{
    // The dataset's generated query set is its serving pool of that
    // size; emit all of it, in order.
    const unsigned n = algo == Algo::Ggnn    ? opts.ggnnQueries
                       : algo == Algo::Btree ? opts.keyQueries
                                             : opts.pointQueries;
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    return emitIndexSem(algo, datasetIndex(id), ids, n);
}

namespace
{

using SemKey =
    std::tuple<Algo, DatasetId, unsigned, unsigned, unsigned>;
using SemPtr = std::shared_ptr<const SemKernelTrace>;

/**
 * Memoized semantic emissions. A weak map provides sharing: every
 * requester of a key that is alive anywhere in the process gets the
 * same pointer. An in-flight table collapses concurrent first
 * requests onto one emission (waiters block on a shared_future
 * outside the lock). A tiny MRU strong list keeps the last few traces
 * alive *between* the back-to-back jobs of a sweep so peak RSS is
 * bounded by the working set, not by every workload ever touched.
 */
struct SemTraceCache
{
    // Two strong entries cover the fleet access patterns: a
    // workload's base/HSU pair and every sweep point share one key,
    // and concurrently running jobs pin their traces via their own
    // shared_ptr while they lower/simulate.
    static constexpr std::size_t kStrongCap = 2;

    std::mutex mutex;
    std::map<SemKey, std::weak_ptr<const SemKernelTrace>> live;
    std::map<SemKey, std::shared_future<SemPtr>> inflight;
    std::deque<std::pair<SemKey, SemPtr>> strong;

    void touch(const SemKey &key, const SemPtr &trace)
    {
        for (auto it = strong.begin(); it != strong.end(); ++it) {
            if (it->first == key) {
                strong.erase(it);
                break;
            }
        }
        strong.emplace_front(key, trace);
        if (strong.size() > kStrongCap)
            strong.pop_back();
    }
};

SemTraceCache &
semTraceCache()
{
    static SemTraceCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const SemKernelTrace>
emitSemanticShared(Algo algo, DatasetId id, const RunnerOptions &opts)
{
    const SemKey key{algo, id, opts.ggnnQueries, opts.pointQueries,
                     opts.keyQueries};
    SemTraceCache &cache = semTraceCache();
    std::promise<SemPtr> promise;
    std::shared_future<SemPtr> future;
    bool emitter = false;
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        if (auto it = cache.live.find(key); it != cache.live.end()) {
            if (SemPtr trace = it->second.lock()) {
                cache.touch(key, trace);
                notePipelineCacheHit();
                return trace;
            }
        }
        if (auto it = cache.inflight.find(key);
            it != cache.inflight.end()) {
            future = it->second;
        } else {
            emitter = true;
            future = promise.get_future().share();
            cache.inflight.emplace(key, future);
        }
    }
    if (!emitter) {
        // Another thread owns the emission; wait for its result.
        notePipelineCacheHit();
        return future.get();
    }
    // We own the emission: run it outside the lock so different
    // workloads still emit concurrently, then publish.
    SemPtr trace = std::make_shared<const SemKernelTrace>(
        emitSemantic(algo, id, opts));
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        cache.live[key] = trace;
        cache.touch(key, trace);
        cache.inflight.erase(key);
    }
    promise.set_value(trace);
    return trace;
}

std::shared_ptr<const KernelTrace>
emitBatchTrace(Algo algo, DatasetId dataset, KernelVariant variant,
               const DatapathConfig &dp,
               const std::vector<std::uint32_t> &query_ids,
               std::size_t pool_size, const ServeKnobs &knobs)
{
    return emitIndexTrace(algo, datasetIndex(dataset), variant, dp,
                          query_ids, pool_size, knobs);
}

namespace
{

/**
 * Simulate one (algorithm, dataset) experiment under an explicit
 * lowering. The GPU config is used as given: the caller enables the RT
 * unit when the lowering emits CISC instructions.
 */
RunResult
runLowered(Algo algo, DatasetId dataset, const GpuConfig &gpu,
           const RunnerOptions &opts, const Lowering &lowering,
           StatGroup &stats)
{
    // Emit once, lower many: the semantic trace comes from the shared
    // cache, so the base/HSU pair of a workload — and every sweep point
    // over this (algo, dataset, opts) — reuses one emission.
    const std::shared_ptr<const SemKernelTrace> sem =
        emitSemanticShared(algo, dataset, opts);
    const KernelTrace trace = lowerTrace(*sem, lowering);
    hsu_contract(trace.warps.size() == sem->warps.size(),
                 "lowering must preserve the warp count");
    return simulateKernel(gpu, trace, stats);
}

} // namespace

RunResult
runHsuOnly(Algo algo, DatasetId dataset, const GpuConfig &gpu,
           const RunnerOptions &opts, StatGroup &stats)
{
    GpuConfig cfg = gpu;
    cfg.rtUnitEnabled = true;
    return runLowered(algo, dataset, cfg, opts,
                      Lowering::hsu(cfg.datapath), stats);
}

RunResult
runBaseOnly(Algo algo, DatasetId dataset, const GpuConfig &gpu,
            const RunnerOptions &opts, StatGroup &stats)
{
    GpuConfig cfg = gpu;
    cfg.rtUnitEnabled = false;
    return runLowered(algo, dataset, cfg, opts,
                      Lowering::baseline(cfg.datapath), stats);
}

WorkloadResult
runWorkload(Algo algo, DatasetId dataset, const GpuConfig &gpu,
            const RunnerOptions &opts)
{
    WorkloadResult out;
    out.algo = algo;
    out.dataset = dataset;
    out.label = workloadLabel(algo, datasetInfo(dataset));
    out.base = runBaseOnly(algo, dataset, gpu, opts, out.baseStats);
    out.hsu = runHsuOnly(algo, dataset, gpu, opts, out.hsuStats);
    return out;
}

std::vector<WorkloadResult>
runWorkloadsParallel(const std::vector<std::pair<Algo, DatasetId>> &work,
                     const GpuConfig &gpu, double scale,
                     unsigned num_threads)
{
    return parallelMap(
        work.size(),
        [&](std::size_t i) {
            const auto &[algo, dataset] = work[i];
            return runWorkload(algo, dataset, gpu,
                               optionsFor(datasetInfo(dataset), scale));
        },
        num_threads);
}

} // namespace hsu
