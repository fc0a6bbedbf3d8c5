#include "structures/graph.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/threadpool.hh"

namespace hsu
{

float
metricDist(Metric metric, const float *a, const float *b, unsigned dim)
{
    if (metric == Metric::Euclidean)
        return pointDist2(a, b, dim);
    float dot = 0.0f, na = 0.0f, nb = 0.0f;
    for (unsigned i = 0; i < dim; ++i) {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    const float denom = std::sqrt(na) * std::sqrt(nb);
    if (denom == 0.0f)
        return 1.0f;
    return 1.0f - dot / denom;
}

float
metricNorm(const float *a, unsigned dim)
{
    float n = 0.0f;
    for (unsigned i = 0; i < dim; ++i)
        n += a[i] * a[i];
    return std::sqrt(n);
}

namespace
{

/** Four floats, one SIMD register: lane j holds candidate j's value. */
using Float4 = float __attribute__((vector_size(16)));

Float4
load4(const float *p)
{
    Float4 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Lane L of @p v in every lane. */
template <int L>
Float4
splat(Float4 v)
{
    return __builtin_shufflevector(v, v, L, L, L, L);
}

/** One dimension's step of a candidate's sum, metricDist's expression
 *  per lane: `sum += d * d` (Euclidean) or `dot += q * p` (Angular). */
template <Metric M>
Float4
accumulate(Float4 acc, Float4 q, Float4 p)
{
    if constexpr (M == Metric::Euclidean) {
        const Float4 d = q - p;
        return acc + d * d;
    } else {
        return acc + q * p;
    }
}

/**
 * Sums for 4 * sizeof...(G) candidates @p p against @p q, four per
 * SIMD register with one candidate per lane. Each lane adds its
 * candidate's terms for i = 0, 1, ..., dim - 1 in order, exactly as
 * metricDist does, so every sum rounds as metricDist's does: the
 * vector runs across candidates, never across dimensions. Four
 * dimensions of four candidates are loaded as rows and transposed so
 * that register t holds dimension i + t of each. The independent
 * lanes and groups give the CPU the parallel add chains that one
 * metricDist call, a single chain, cannot.
 */
template <Metric M, std::size_t... G>
void
sumBlock(const float *q, const float *const *p, unsigned dim,
         Float4 *sums, std::index_sequence<G...>)
{
    Float4 acc[] = {(static_cast<void>(G), Float4{})...};
    unsigned i = 0;
    for (; i + 4 <= dim; i += 4) {
        const Float4 qv = load4(q + i);
        const Float4 q0 = splat<0>(qv), q1 = splat<1>(qv);
        const Float4 q2 = splat<2>(qv), q3 = splat<3>(qv);
        const auto group = [&](Float4 a, const float *const *r) {
            const Float4 r0 = load4(r[0] + i), r1 = load4(r[1] + i);
            const Float4 r2 = load4(r[2] + i), r3 = load4(r[3] + i);
            const Float4 lo01 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
            const Float4 lo23 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
            const Float4 hi01 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
            const Float4 hi23 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
            a = accumulate<M>(
                a, q0, __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5));
            a = accumulate<M>(
                a, q1, __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7));
            a = accumulate<M>(
                a, q2, __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5));
            return accumulate<M>(
                a, q3, __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7));
        };
        ((acc[G] = group(acc[G], p + 4 * G)), ...);
    }
    for (; i < dim; ++i) {
        const Float4 qi = {q[i], q[i], q[i], q[i]};
        ((acc[G] = accumulate<M>(acc[G], qi,
                                 Float4{p[4 * G][i], p[4 * G + 1][i],
                                        p[4 * G + 2][i],
                                        p[4 * G + 3][i]})),
         ...);
    }
    ((sums[G] = acc[G]), ...);
}

/** Candidates per kernel call: two groups of four lanes. */
constexpr unsigned kBlock = 8;

/** metricDistBatch for metric @p M, kBlock candidates per sumBlock. */
template <Metric M>
void
distBatch(const float *query, float query_norm, const PointSet &points,
          const float *norms, const std::uint32_t *ids, unsigned count,
          float *out)
{
    for (unsigned j = 0; j < count; j += kBlock) {
        const unsigned m = std::min(kBlock, count - j);
        // Lanes past the last candidate repeat it; their sums are
        // dropped.
        const float *p[kBlock];
        for (unsigned k = 0; k < kBlock; ++k)
            p[k] = points[ids[j + std::min(k, m - 1)]];
        Float4 acc[2];
        if (m > 4) {
            sumBlock<M>(query, p, points.dim(), acc,
                        std::make_index_sequence<2>{});
        } else {
            sumBlock<M>(query, p, points.dim(), acc,
                        std::make_index_sequence<1>{});
        }
        float sums[kBlock];
        std::memcpy(sums, acc, sizeof(sums));
        for (unsigned k = 0; k < m; ++k) {
            if constexpr (M == Metric::Euclidean) {
                out[j + k] = sums[k];
            } else {
                const float denom = query_norm * norms[ids[j + k]];
                out[j + k] =
                    denom == 0.0f ? 1.0f : 1.0f - sums[k] / denom;
            }
        }
    }
}

/** Start fetching the cache lines of @p bytes bytes at @p p. */
void
prefetchRange(const void *p, std::size_t bytes)
{
    constexpr std::uintptr_t kLine = 64;
    const auto first = reinterpret_cast<std::uintptr_t>(p);
    for (std::uintptr_t a = first & ~(kLine - 1); a < first + bytes;
         a += kLine)
        __builtin_prefetch(reinterpret_cast<const void *>(a));
}

/** Marks a cached pair distance not yet evaluated. A distance that
 *  rounds below 0 reads as unevaluated too and is recomputed, to the
 *  same value. */
constexpr float kUnknown = -1.0f;

/**
 * View of one adjacency row's build-time sidecar block, allocated when
 * the row's node is inserted and kept until build() returns. The block
 * holds, in deg * (deg - 1) / 2 + ceil((deg + 2) / 4) floats:
 *
 *  - the strict upper triangle of pair distances among the occupants,
 *    indexed by physical slot (kUnknown until evaluated);
 *  - one byte per logical row slot: the physical slot of its occupant;
 *  - one byte: the length of the row's diverse run (see connect());
 *  - one byte: whether the row has never been re-selected.
 *
 * An occupant keeps its physical slot however the row's logical order
 * is re-selected, and a newcomer takes over the slot of the occupant it
 * evicts, so an overflow rewrites O(deg) entries instead of rebuilding
 * the triangle. Slot bytes limit rows to 255 slots.
 */
class RowPairs
{
  public:
    static constexpr unsigned kMaxDegree = 255;

    /** A fresh block: nothing evaluated, logical slot j at physical j,
     *  empty diverse run, never re-selected. */
    static std::unique_ptr<float[]>
    make(unsigned deg)
    {
        auto block = std::make_unique<float[]>(floats(deg));
        std::fill_n(block.get(), triSize(deg), kUnknown);
        RowPairs view(block.get(), deg);
        for (unsigned j = 0; j < deg; ++j)
            view.phys(j) = static_cast<unsigned char>(j);
        view.diverse() = 0;
        view.fresh() = 1;
        return block;
    }

    RowPairs(float *block, unsigned deg)
        : dist_(block),
          bytes_(reinterpret_cast<unsigned char *>(block + triSize(deg))),
          deg_(deg)
    {
    }

    /** Cached distance between physical slots @p a != @p b. */
    float &
    dist(unsigned a, unsigned b)
    {
        if (a > b)
            std::swap(a, b);
        return dist_[static_cast<std::size_t>(b) * (b - 1) / 2 + a];
    }

    /** Physical slot of logical slot @p j. */
    unsigned char &phys(unsigned j) { return bytes_[j]; }

    /** Length of the row's diverse run. */
    unsigned char &diverse() { return bytes_[deg_]; }

    /** Nonzero until the row's first re-selection: its occupants sit
     *  in arrival order and carry no verdicts yet. */
    unsigned char &fresh() { return bytes_[deg_ + 1]; }

    /** Size of a block for rows of @p deg slots, in floats. */
    static std::size_t
    floats(unsigned deg)
    {
        return triSize(deg) + (deg + 2 + 3) / 4;
    }

  private:
    static std::size_t
    triSize(unsigned deg)
    {
        return static_cast<std::size_t>(deg) * (deg - 1) / 2;
    }

    float *dist_;
    unsigned char *bytes_;
    unsigned deg_;
};

} // namespace

std::vector<float>
metricNorms(const PointSet &points, Metric metric)
{
    std::vector<float> norms;
    if (metric != Metric::Angular)
        return norms;
    norms.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        norms[i] = metricNorm(points[i], points.dim());
    return norms;
}

void
metricDistBatch(Metric metric, const float *query, float query_norm,
                const PointSet &points, const float *norms,
                const std::uint32_t *ids, unsigned count, float *out)
{
    if (metric == Metric::Euclidean) {
        distBatch<Metric::Euclidean>(query, query_norm, points, norms,
                                     ids, count, out);
    } else {
        distBatch<Metric::Angular>(query, query_norm, points, norms, ids,
                                   count, out);
    }
}

struct HnswGraph::SearchScratch
{
    /** With @p record, searchLayer keeps each visited node's distance
     *  to the query, and every search lists the rows it expands (build
     *  reads both back; a knn call does neither). */
    SearchScratch(std::size_t n, unsigned max_degree, bool record = false)
        : stamp(n, 0), seen(record ? n : 0), ids(max_degree),
          dist(max_degree)
    {
    }

    /** Note that this search read @p node's row at @p layer. */
    void
    expand(unsigned layer, std::uint32_t node)
    {
        if (!seen.empty())
            expanded.push_back(static_cast<std::size_t>(layer) *
                                   stamp.size() +
                               node);
    }

    /** Start a search: forget every visited mark in O(1). */
    void
    beginSearch()
    {
        if (++epoch == 0) { // wrapped: old stamps would alias
            std::fill(stamp.begin(), stamp.end(), 0u);
            epoch = 1;
        }
    }

    /** Mark @p id visited; false if this search already had. */
    bool
    visit(std::uint32_t id)
    {
        if (stamp[id] == epoch)
            return false;
        stamp[id] = epoch;
        return true;
    }

    /** Keep @p d as @p id's distance to this search's query. */
    void
    record(std::uint32_t id, float d)
    {
        if (!seen.empty())
            seen[id] = d;
    }

    /** The distance the last search recorded for @p id, or kUnknown if
     *  that search did not visit it. */
    float
    recorded(std::uint32_t id) const
    {
        return stamp[id] == epoch ? seen[id] : kUnknown;
    }

    using Cand = std::pair<float, std::uint32_t>;
    std::vector<std::uint32_t> stamp; //!< per node: epoch of last visit
    /** per node: distance to the query, valid while stamp == epoch */
    std::vector<float> seen;
    std::uint32_t epoch = 0;
    std::vector<Cand> open; //!< min-heap of candidates to expand
    std::vector<Cand> best; //!< max-heap of the ef best found
    std::vector<std::uint32_t> ids; //!< one row's unvisited neighbors
    std::vector<float> dist;        //!< ...and their distances
    std::vector<Neighbor> found;    //!< searchLayer's result
    /** Rows expanded since the owner last cleared this, each as
     *  layer * n + node (recording scratch only). */
    std::vector<std::size_t> expanded;
};

HnswGraph
HnswGraph::build(const PointSet &points, Metric metric,
                 const HnswParams &params)
{
    HnswGraph g;
    g.points_ = &points;
    g.metric_ = metric;
    g.params_ = params;

    const std::size_t n = points.size();
    if (n == 0) {
        g.layers_.emplace_back();
        return g;
    }

    // Geometric level assignment (HNSW): P(level >= l) = (1/degree)^l,
    // capped at kMaxLevel against pathological draws.
    constexpr unsigned kMaxLevel = 6;
    Rng rng(params.seed);
    const double ml = 1.0 / std::log(static_cast<double>(
        std::max(2u, params.degree)));
    std::vector<unsigned> level(n);
    unsigned max_level = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        level[i] = static_cast<unsigned>(-std::log(u) * ml);
        level[i] = std::min(level[i], kMaxLevel);
        max_level = std::max(max_level, level[i]);
    }
    // Make node 0 the top entry point.
    level[0] = max_level;

    g.layers_.resize(max_level + 1);
    for (unsigned l = 0; l <= max_level; ++l) {
        g.layers_[l].adjacency.assign(n * g.layerDegree(l), kNoNeighbor);
        for (std::size_t i = 0; i < n; ++i) {
            if (level[i] >= l)
                g.layers_[l].members.push_back(
                    static_cast<std::uint32_t>(i));
        }
    }
    g.entry_ = 0;
    g.norms_ = metricNorms(points, metric);

    auto normOf = [&g](std::uint32_t a) {
        return g.norms_.empty() ? 0.0f : g.norms_[a];
    };
    // out[j] = dist(a, ids[j]), through the kernel searches use.
    auto distsFrom = [&](std::uint32_t a, const std::uint32_t *ids,
                         unsigned count, float *out) {
        g.distances(points[a], normOf(a), ids, count, out);
    };

    auto row = [&g](unsigned l, std::uint32_t node) {
        return g.layers_[l].adjacency.data() +
               static_cast<std::size_t>(node) * g.layerDegree(l);
    };

    // Build-time distance sidecars, discarded when build() returns. A
    // full row overflows on nearly every backward edge, and each
    // re-selection compares its candidates pairwise, so distances are
    // cached, not recomputed: row_dist holds each row slot's distance
    // to its owner, row_pairs each row's RowPairs block (allocated when
    // the row's node is inserted; node 0 is there from the start), and
    // the search scratch each node's distance to the node being
    // inserted, as its layer search evaluated it. Reusing a float
    // computed once — including across the dist(a,b)/dist(b,a) swap,
    // which is exact for both metrics, and across batch positions,
    // which metricDistBatch never mixes — is bit-identical to
    // recomputing it, so the resulting graph is unchanged.
    std::vector<std::vector<float>> row_dist(max_level + 1);
    std::vector<std::vector<std::unique_ptr<float[]>>> row_pairs(
        max_level + 1);
    for (unsigned l = 0; l <= max_level; ++l) {
        row_dist[l].assign(n * g.layerDegree(l), 0.0f);
        row_pairs[l].resize(n);
        row_pairs[l][0] = RowPairs::make(g.layerDegree(l));
    }
    auto rowDist = [&](unsigned l, std::uint32_t node) {
        return row_dist[l].data() +
               static_cast<std::size_t>(node) * g.layerDegree(l);
    };

    // Diversity verdict of an overflow candidate.
    enum class Verdict : unsigned char
    {
        Unknown,
        Diverse,  //!< no selected candidate before it is closer to it
        Dominated //!< some selected candidate before it is closer
    };
    // One overflow candidate: distance to the row's owner, node,
    // physical slot (kNewSlot for the newcomer), verdict. Candidate
    // order is (distance, node).
    struct Cand
    {
        float d;
        std::uint32_t node;
        unsigned slot;
        Verdict verdict;

        bool
        operator<(const Cand &o) const
        {
            return d != o.d ? d < o.d : node < o.node;
        }
    };
    const unsigned max_deg = std::max(params.degree, params.degreeLayer0);
    hsu_assert(max_deg <= RowPairs::kMaxDegree, "HNSW degree ", max_deg,
               " above ", RowPairs::kMaxDegree);
    // Overflow scratch of one thread, reused by each connect() it runs.
    struct ConnectScratch
    {
        explicit ConnectScratch(unsigned deg)
            : occupants(deg), cands(deg + 1), sel(deg), chosen(deg + 1),
              new_pair(deg), miss_cell(deg), miss_node(deg), miss_d(deg)
        {
        }
        std::vector<Cand> occupants;
        std::vector<Cand> cands;
        std::vector<unsigned> sel; //!< chosen cands, in order
        std::vector<char> chosen;
        std::vector<float> new_pair; //!< newcomer's pairs by slot
        std::vector<float *> miss_cell; //!< uncached pairs...
        std::vector<std::uint32_t> miss_node;
        std::vector<float> miss_d; //!< ...and their distances
    };

    // Add the backward edge from -> to, where @p to is a node being
    // inserted (so not yet in from's row), @p dft = dist(from, to) and
    // @p record is to's search record. On overflow the row is
    // re-selected with the HNSW diversity heuristic over {existing +
    // new}, which preserves the long-range edges plain replace-farthest
    // would erode as the graph densifies. Reads only from's row, its
    // sidecar block, the points and @p record; writes only from's row
    // and block.
    auto connect = [&](ConnectScratch &cs, unsigned l, std::uint32_t from,
                       std::uint32_t to, float dft,
                       const SearchScratch &record) {
        std::vector<Cand> &occupants = cs.occupants;
        std::vector<Cand> &cands = cs.cands;
        std::vector<unsigned> &sel = cs.sel;
        std::vector<char> &chosen = cs.chosen;
        std::vector<float> &new_pair = cs.new_pair;
        std::vector<float *> &miss_cell = cs.miss_cell;
        std::vector<std::uint32_t> &miss_node = cs.miss_node;
        std::vector<float> &miss_d = cs.miss_d;
        std::uint32_t *r = row(l, from);
        const unsigned deg = g.layerDegree(l);
        float *rd = rowDist(l, from);
        for (unsigned j = 0; j < deg; ++j) {
            if (r[j] == kNoNeighbor) {
                r[j] = to;
                rd[j] = dft;
                return;
            }
        }

        // Overflow: keep deg of the deg + 1 candidates, in candidate
        // order: those the diversity pass selects (each is diverse with
        // respect to the ones selected before it), then the rest as
        // backfill until the row is full. A candidate the pass does not
        // select never affects another's verdict, so the verdicts of
        // the last re-selection, which the row's [diverse | backfill]
        // layout records, still hold for every occupant before the
        // newcomer and, if the newcomer is dominated, after it too.
        // Only the newcomer, and the candidates after it when it turns
        // out diverse, need evaluating.
        RowPairs pairs(row_pairs[l][from].get(), deg);
        const unsigned kNewSlot = deg;
        Cand *c = cands.data();
        if (pairs.fresh()) {
            // The row holds its edges in arrival order, occupant j at
            // physical slot j, with no verdicts yet; only the pairs its
            // owner's neighbour selection evaluated are cached.
            pairs.fresh() = 0;
            for (unsigned j = 0; j < deg; ++j)
                c[j] = {rd[j], r[j], j, Verdict::Unknown};
            c[deg] = {dft, to, kNewSlot, Verdict::Unknown};
            std::sort(c, c + deg + 1);
        } else {
            const unsigned nd = pairs.diverse();
            for (unsigned j = 0; j < deg; ++j) {
                occupants[j] = {rd[j], r[j], pairs.phys(j),
                                j < nd ? Verdict::Diverse
                                       : Verdict::Dominated};
            }
            std::merge(occupants.begin(), occupants.begin() + nd,
                       occupants.begin() + nd, occupants.begin() + deg, c);
            const Cand in{dft, to, kNewSlot, Verdict::Unknown};
            unsigned p = deg;
            for (; p > 0 && in < c[p - 1]; --p)
                c[p] = c[p - 1];
            c[p] = in;
        }
        // The newcomer's pairs, by the occupant's slot: those with the
        // occupants its last search visited are already known. That
        // search is at layer 0 whatever @p l is, and dist(to, x) is the
        // same float at every layer: the record is a pure cache.
        for (unsigned j = 0; j < deg; ++j)
            new_pair[pairs.phys(j)] = record.recorded(r[j]);
        // The cache cell of pair (x, o); the newcomer's pairs are in
        // new_pair, by the occupant's slot.
        auto cell = [&](const Cand &x, const Cand &o) -> float & {
            if (x.slot == kNewSlot)
                return new_pair[o.slot];
            if (o.slot == kNewSlot)
                return new_pair[x.slot];
            return pairs.dist(x.slot, o.slot);
        };

        // Whether no selected candidate is closer to @p x than the
        // owner is. The test does not depend on the order pairs are
        // examined in, so cached pairs are consulted first and only the
        // missing ones are evaluated, as one batch from x, then cached.
        unsigned nsel = 0;
        auto diverse = [&](const Cand &x) {
            unsigned missing = 0;
            for (unsigned s = 0; s < nsel; ++s) {
                const Cand &o = c[sel[s]];
                float &v = cell(x, o);
                if (v < 0.0f) {
                    miss_cell[missing] = &v;
                    miss_node[missing++] = o.node;
                } else if (v < x.d) {
                    return false;
                }
            }
            distsFrom(x.node, miss_node.data(), missing, miss_d.data());
            bool keep = true;
            for (unsigned u = 0; u < missing; ++u) {
                *miss_cell[u] = miss_d[u];
                keep = keep && !(miss_d[u] < x.d);
            }
            return keep;
        };

        // A newly selected candidate can dominate any later one, so
        // once one is selected the recorded verdicts after it no longer
        // hold: from `stale` on, every verdict is evaluated afresh.
        unsigned stale = deg + 1;
        std::fill_n(chosen.begin(), deg + 1, 0);
        for (unsigned k = 0; k <= deg && nsel < deg; ++k) {
            if (k >= stale || c[k].verdict == Verdict::Unknown) {
                if (diverse(c[k])) {
                    c[k].verdict = Verdict::Diverse;
                    stale = std::min(stale, k + 1);
                    if (c[k].slot == kNewSlot) {
                        // Every later candidate is now checked against
                        // the newcomer: evaluate the pairs not yet
                        // known together.
                        unsigned m = 0;
                        for (unsigned x = k + 1; x <= deg; ++x) {
                            float &v = new_pair[c[x].slot];
                            if (v < 0.0f) {
                                miss_cell[m] = &v;
                                miss_node[m++] = c[x].node;
                            }
                        }
                        distsFrom(to, miss_node.data(), m, miss_d.data());
                        for (unsigned u = 0; u < m; ++u)
                            *miss_cell[u] = miss_d[u];
                    }
                } else {
                    c[k].verdict = Verdict::Dominated;
                }
            }
            if (c[k].verdict == Verdict::Diverse) {
                sel[nsel++] = k;
                chosen[k] = 1;
            }
        }
        pairs.diverse() = static_cast<unsigned char>(nsel);
        for (unsigned k = 0; k <= deg && nsel < deg; ++k) {
            if (!chosen[k]) {
                sel[nsel++] = k;
                chosen[k] = 1;
            }
        }

        // Exactly one candidate was left out. If it was an occupant,
        // the newcomer takes over its physical slot, whose cached
        // pairs become the newcomer's.
        unsigned new_slot = kNewSlot;
        for (unsigned k = 0; k <= deg; ++k) {
            if (!chosen[k] && c[k].slot != kNewSlot)
                new_slot = c[k].slot;
        }
        if (new_slot != kNewSlot) {
            for (unsigned s = 0; s < deg; ++s) {
                if (s != new_slot)
                    pairs.dist(new_slot, s) = new_pair[s];
            }
        }
        for (unsigned j = 0; j < deg; ++j) {
            const Cand &x = c[sel[j]];
            r[j] = x.node;
            rd[j] = x.d;
            pairs.phys(j) = static_cast<unsigned char>(
                x.slot == kNewSlot ? new_slot : x.slot);
        }
    };

    // Everything one insertion decides, searched against the graph as
    // it stood: per layer, the node's neighbour selection, their
    // distances and its new row's sidecar block. Kept until the node's
    // backward edges are applied, which read its search record.
    constexpr unsigned kLevels = kMaxLevel + 1;
    struct Insertion
    {
        Insertion(std::size_t nodes, unsigned deg)
            : search(nodes, deg, true), selected(kLevels * deg),
              selected_d(kLevels * deg)
        {
        }
        std::uint32_t node = 0;
        /** Its searches: every row they expanded and, from the last
         *  (layer 0), its distance to each node that search visited. */
        SearchScratch search;
        unsigned nsel[kLevels] = {};
        std::vector<std::uint32_t> selected; //!< layer l's at l * max_deg
        std::vector<float> selected_d;       //!< dist(node, selected[j])
        std::unique_ptr<float[]> pairs[kLevels]; //!< new rows' blocks
        // Per candidate of the layer search's result: how many selected
        // candidates the diversity check compared it with, and those
        // distances (max_deg per candidate).
        std::vector<unsigned> checked;
        std::vector<float> checked_d;
    };

    // An insertion's search phase: its greedy descent, then at each
    // layer from its level down to 0 the layer search and the
    // neighbour selection, with the HNSW diversity heuristic (keep a
    // candidate only if it is closer to the new node than to any
    // already-selected neighbor) — without it, clustered data yields
    // short-range-only graphs with poor recall. Reads the graph and
    // writes only @p x, so insertions can search concurrently.
    auto search = [&](Insertion &x) {
        const std::uint32_t node = x.node;
        const float *q = points[node];
        const float qn = normOf(node);
        SearchScratch &scratch = x.search;
        scratch.expanded.clear();
        std::uint32_t cur = g.entry_;
        // Greedy descent through layers above the node's level.
        for (unsigned l = max_level; l > level[node]; --l)
            cur = g.greedyStep(l, cur, q, qn, scratch);
        for (int l = static_cast<int>(level[node]); l >= 0; --l) {
            const auto ul = static_cast<unsigned>(l);
            g.searchLayer(ul, cur, q, qn, params.efConstruction, scratch);
            const std::vector<Neighbor> &found = scratch.found;
            const unsigned target = g.layerDegree(ul);
            // The new row is empty: no row holds the node yet. It takes
            // its selection in order, selected[s] at physical slot s,
            // and keeps the pairs the selection evaluates among them.
            x.pairs[ul] = RowPairs::make(target);
            RowPairs pairs(x.pairs[ul].get(), target);
            std::uint32_t *selected = x.selected.data() + ul * max_deg;
            float *selected_d = x.selected_d.data() + ul * max_deg;
            x.checked.assign(found.size(), 0);
            x.checked_d.resize(found.size() * max_deg);
            unsigned nsel = 0;
            auto take = [&](std::size_t p) {
                const float *cd = x.checked_d.data() + p * max_deg;
                for (unsigned s = 0; s < x.checked[p]; ++s)
                    pairs.dist(nsel, s) = cd[s];
                selected[nsel] = found[p].index;
                selected_d[nsel] = found[p].dist2;
                ++nsel;
            };
            for (std::size_t p = 0; p < found.size() && nsel < target;
                 ++p) {
                const Neighbor &c = found[p];
                if (c.index == node)
                    continue;
                float *cd = x.checked_d.data() + p * max_deg;
                distsFrom(c.index, selected, nsel, cd);
                x.checked[p] = nsel;
                if (std::none_of(cd, cd + nsel,
                                 [&c](float d) { return d < c.dist2; }))
                    take(p);
            }
            // Backfill with skipped candidates if diversity pruned too
            // aggressively.
            for (std::size_t p = 0; p < found.size() && nsel < target;
                 ++p) {
                if (found[p].index != node &&
                    std::find(selected, selected + nsel, found[p].index) ==
                        selected + nsel)
                    take(p);
            }
            x.nsel[ul] = nsel;
            if (!found.empty())
                cur = found.front().index == node && found.size() > 1
                    ? found[1].index
                    : found.front().index;
        }
    };

    // The last round that wrote each (layer, row), at layer * n + row.
    std::vector<std::uint32_t> written((max_level + 1) * n, 0);
    std::uint32_t round = 0;
    auto key = [n](unsigned l, std::uint32_t node) {
        return static_cast<std::size_t>(l) * n + node;
    };

    // A backward edge waiting to be applied.
    struct Edge
    {
        std::uint32_t from;
        std::uint32_t to;
        float d; //!< dist(from, to)
        unsigned layer;
        const Insertion *newcomer; //!< to's insertion
    };
    std::vector<Edge> edges;

    // Commit an insertion: write its rows and queue its backward edges,
    // marking every row either writes as written this round.
    auto commit = [&](Insertion &x) {
        const std::uint32_t node = x.node;
        for (int l = static_cast<int>(level[node]); l >= 0; --l) {
            const auto ul = static_cast<unsigned>(l);
            const unsigned nsel = x.nsel[ul];
            const std::uint32_t *selected = x.selected.data() + ul * max_deg;
            const float *selected_d = x.selected_d.data() + ul * max_deg;
            std::copy_n(selected, nsel, row(ul, node));
            std::copy_n(selected_d, nsel, rowDist(ul, node));
            row_pairs[ul][node] = std::move(x.pairs[ul]);
            written[key(ul, node)] = round;
            for (unsigned s = 0; s < nsel; ++s) {
                written[key(ul, selected[s])] = round;
                edges.push_back({selected[s], node, selected_d[s], ul, &x});
            }
        }
    };

    // Apply the queued edges on the team, split by target row: the one
    // thread that owns a row applies its edges in queue order, which is
    // node order, so every row ends as the serial loop leaves it.
    HelperTeam team;
    std::deque<ConnectScratch> connectors;
    auto applyEdges = [&] {
        const unsigned threads = 1 + team.held();
        while (connectors.size() < threads)
            connectors.emplace_back(max_deg);
        auto owner = [&](const Edge &e) {
            const std::uint64_t h =
                key(e.layer, e.from) * 0x9e3779b97f4a7c15ull;
            return static_cast<unsigned>((h >> 32) % threads);
        };
        team.run([&](unsigned t) {
            // Each of the thread's rows takes an edge next: start
            // fetching them all.
            for (const Edge &e : edges) {
                if (owner(e) != t)
                    continue;
                const unsigned deg = g.layerDegree(e.layer);
                prefetchRange(row(e.layer, e.from),
                              deg * sizeof(std::uint32_t));
                prefetchRange(rowDist(e.layer, e.from),
                              deg * sizeof(float));
                prefetchRange(row_pairs[e.layer][e.from].get(),
                              RowPairs::floats(deg) * sizeof(float));
            }
            for (const Edge &e : edges) {
                if (owner(e) == t)
                    connect(connectors[t], e.layer, e.from, e.to, e.d,
                            e.newcomer->search);
            }
        });
        edges.clear();
    };

    // Incremental insertion, in rounds of one node per thread: the
    // caller plus the helpers the team holds, re-claimed every round
    // (a round of one node is the plain serial loop). Every node of a
    // round searches the graph as the round found it; then, in node
    // order, a node is searched again if an earlier node of the round
    // wrote a row its searches expanded, once the earlier nodes' edges
    // are applied, and committed. A search reads only the rows it
    // expands, so a node that passes saw the graph the serial loop
    // shows it and made the serial selection; and it selected no node
    // of its round, for it could only have reached one through a row
    // that node wrote.
    std::deque<Insertion> slots;
    for (std::size_t i = 1; i < n;) {
        const unsigned count =
            1 + team.claim(static_cast<unsigned>(std::min<std::size_t>(
                    n - i - 1, team.maxHelpers())));
        while (slots.size() < count)
            slots.emplace_back(n, max_deg);
        for (unsigned w = 0; w < count; ++w)
            slots[w].node = static_cast<std::uint32_t>(i + w);
        team.run([&](unsigned t) { search(slots[t]); });
        ++round;
        for (unsigned w = 0; w < count; ++w) {
            Insertion &x = slots[w];
            const std::vector<std::size_t> &read = x.search.expanded;
            if (w > 0 && std::any_of(read.begin(), read.end(),
                                     [&](std::size_t k) {
                                         return written[k] == round;
                                     })) {
                applyEdges();
                search(x);
            }
            commit(x);
        }
        applyEdges();
        i += count;
    }
    return g;
}

const std::uint32_t *
HnswGraph::neighbors(unsigned l, std::uint32_t node) const
{
    return layers_[l].adjacency.data() +
           static_cast<std::size_t>(node) * layerDegree(l);
}

float
HnswGraph::queryNorm(const float *query) const
{
    return metric_ == Metric::Angular ? metricNorm(query, points_->dim())
                                      : 0.0f;
}

void
HnswGraph::distances(const float *query, float query_norm,
                     const std::uint32_t *ids, unsigned count,
                     float *out) const
{
    metricDistBatch(metric_, query, query_norm, *points_, norms_.data(),
                    ids, count, out);
}

std::uint32_t
HnswGraph::greedyStep(unsigned layer, std::uint32_t start,
                      const float *query, float query_norm,
                      SearchScratch &s) const
{
    const unsigned deg = layerDegree(layer);
    std::uint32_t cur = start;
    float cur_d = 0.0f;
    distances(query, query_norm, &cur, 1, &cur_d);
    for (;;) {
        s.expand(layer, cur);
        const std::uint32_t *nbrs = neighbors(layer, cur);
        unsigned m = 0;
        while (m < deg && nbrs[m] != kNoNeighbor)
            ++m;
        distances(query, query_norm, nbrs, m, s.dist.data());
        bool improved = false;
        for (unsigned j = 0; j < m; ++j) {
            if (s.dist[j] < cur_d) {
                cur_d = s.dist[j];
                cur = nbrs[j];
                improved = true;
            }
        }
        if (!improved)
            return cur;
    }
}

void
HnswGraph::searchLayer(unsigned layer, std::uint32_t entry,
                       const float *query, float query_norm, unsigned ef,
                       SearchScratch &s) const
{
    // The heaps are plain vectors driven with the comparators
    // std::priority_queue would use, so pushes, pops and ties resolve
    // exactly as a priority_queue's would, without per-search
    // allocation.
    const std::greater<SearchScratch::Cand> nearest_first;
    auto &open = s.open;
    auto &best = s.best;
    open.clear();
    best.clear();
    s.beginSearch();

    float entry_d = 0.0f;
    distances(query, query_norm, &entry, 1, &entry_d);
    open.push_back({entry_d, entry});
    best.push_back({entry_d, entry});
    s.visit(entry);
    s.record(entry, entry_d);

    const unsigned deg = layerDegree(layer);
    while (!open.empty()) {
        std::pop_heap(open.begin(), open.end(), nearest_first);
        const auto [d, node] = open.back();
        open.pop_back();
        if (d > best.front().first && best.size() >= ef)
            break;
        s.expand(layer, node);
        const std::uint32_t *nbrs = neighbors(layer, node);
        unsigned m = 0;
        for (unsigned j = 0; j < deg && nbrs[j] != kNoNeighbor; ++j) {
            if (s.visit(nbrs[j]))
                s.ids[m++] = nbrs[j];
        }
        distances(query, query_norm, s.ids.data(), m, s.dist.data());
        for (unsigned j = 0; j < m; ++j) {
            const float nd = s.dist[j];
            s.record(s.ids[j], nd);
            if (best.size() < ef || nd < best.front().first) {
                open.push_back({nd, s.ids[j]});
                std::push_heap(open.begin(), open.end(), nearest_first);
                best.push_back({nd, s.ids[j]});
                std::push_heap(best.begin(), best.end());
                if (best.size() > ef) {
                    std::pop_heap(best.begin(), best.end());
                    best.pop_back();
                }
            }
        }
    }

    s.found.clear();
    while (!best.empty()) {
        s.found.push_back({best.front().second, best.front().first});
        std::pop_heap(best.begin(), best.end());
        best.pop_back();
    }
    std::sort(s.found.begin(), s.found.end());
}

std::vector<Neighbor>
HnswGraph::knn(const float *query, unsigned k,
               const HnswSearchParams &sp) const
{
    if (!points_ || points_->size() == 0)
        return {};

    SearchScratch s(points_->size(),
                    std::max(params_.degree, params_.degreeLayer0));
    const float qn = queryNorm(query);
    std::uint32_t cur = entry_;
    for (unsigned l = numLayers() - 1; l > 0; --l)
        cur = greedyStep(l, cur, query, qn, s);

    searchLayer(0, cur, query, qn, std::max(k, sp.ef), s);
    std::vector<Neighbor> found = std::move(s.found);
    if (found.size() > k)
        found.resize(k);
    return found;
}

bool
HnswGraph::validate() const
{
    if (!points_ || layers_.empty())
        return false;
    const std::size_t n = points_->size();
    // Search starts at the entry point on the top layer.
    if (n > 0 && (entry_ >= n || std::find(layers_.back().members.begin(),
                                           layers_.back().members.end(),
                                           entry_) ==
                                     layers_.back().members.end())) {
        return false;
    }
    for (unsigned l = 0; l < numLayers(); ++l) {
        // Every node id has a row of layerDegree(l) slots.
        if (layers_[l].adjacency.size() !=
            static_cast<std::uint64_t>(n) * layerDegree(l)) {
            return false;
        }
        std::vector<bool> member(n, false);
        for (const auto m : layers_[l].members) {
            if (m >= n)
                return false;
            member[m] = true;
        }
        // Members of layer l must be members of every lower layer.
        if (l > 0) {
            std::vector<bool> lower(n, false);
            for (const auto m : layers_[l - 1].members)
                lower[m] = true;
            for (const auto m : layers_[l].members) {
                if (!lower[m])
                    return false;
            }
        }
        for (std::size_t node = 0; node < n; ++node) {
            const std::uint32_t *nbrs =
                neighbors(l, static_cast<std::uint32_t>(node));
            for (unsigned j = 0; j < layerDegree(l); ++j) {
                const std::uint32_t nb = nbrs[j];
                if (nb == kNoNeighbor)
                    continue;
                if (nb >= n || nb == node)
                    return false;
                if (!member[nb])
                    return false;
                // Rows of non-members must be empty.
                if (!member[node])
                    return false;
            }
        }
    }
    return true;
}

} // namespace hsu

namespace hsu
{

HnswGraph
HnswGraph::fromParts(const PointSet &points, Metric metric,
                     const HnswParams &params,
                     std::vector<Layer> layers, std::uint32_t entry)
{
    HnswGraph g;
    g.points_ = &points;
    g.metric_ = metric;
    g.params_ = params;
    g.layers_ = std::move(layers);
    g.entry_ = entry;
    g.norms_ = metricNorms(points, metric);
    return g;
}

} // namespace hsu
