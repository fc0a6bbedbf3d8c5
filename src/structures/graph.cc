#include "structures/graph.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

#include "common/logging.hh"

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

/** metricNorm of every point for Metric::Angular; empty otherwise. */
std::vector<float>
pointNorms(const PointSet &points, Metric metric)
{
    std::vector<float> norms;
    if (metric != Metric::Angular)
        return norms;
    norms.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        norms[i] = metricNorm(points[i], points.dim());
    return norms;
}

/** Marks a cached pair distance not yet evaluated. A distance that
 *  rounds below 0 reads as unevaluated too and is recomputed, to the
 *  same value. */
constexpr float kUnknown = -1.0f;

/**
 * View of one adjacency row's build-time sidecar block, allocated on
 * the row's first overflow and kept until build() returns. The block
 * holds, in deg * (deg - 1) / 2 + ceil((deg + 1) / 4) floats:
 *
 *  - the strict upper triangle of pair distances among the occupants,
 *    indexed by physical slot (kUnknown until evaluated);
 *  - one byte per logical row slot: the physical slot of its occupant;
 *  - one byte: the length of the row's diverse run (see connect()).
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
     *  empty diverse run. */
    static std::unique_ptr<float[]>
    make(unsigned deg)
    {
        const std::size_t floats = triSize(deg) + (deg + 1 + 3) / 4;
        auto block = std::make_unique<float[]>(floats);
        std::fill_n(block.get(), triSize(deg), kUnknown);
        RowPairs view(block.get(), deg);
        for (unsigned j = 0; j < deg; ++j)
            view.phys(j) = static_cast<unsigned char>(j);
        view.diverse() = 0;
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
    SearchScratch(std::size_t n, unsigned max_degree)
        : stamp(n, 0), ids(max_degree), dist(max_degree)
    {
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

    using Cand = std::pair<float, std::uint32_t>;
    std::vector<std::uint32_t> stamp; //!< per node: epoch of last visit
    std::uint32_t epoch = 0;
    std::vector<Cand> open; //!< min-heap of candidates to expand
    std::vector<Cand> best; //!< max-heap of the ef best found
    std::vector<std::uint32_t> ids; //!< one row's unvisited neighbors
    std::vector<float> dist;        //!< ...and their distances
    std::vector<Neighbor> found;    //!< searchLayer's result
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

    // Geometric level assignment (HNSW): P(level >= l) = (1/degree)^l.
    Rng rng(params.seed);
    const double ml = 1.0 / std::log(static_cast<double>(
        std::max(2u, params.degree)));
    std::vector<unsigned> level(n);
    unsigned max_level = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        level[i] = static_cast<unsigned>(-std::log(u) * ml);
        level[i] = std::min(level[i], 6u); // cap pathological draws
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
    g.norms_ = pointNorms(points, metric);

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
    // to its owner, row_pairs each row's RowPairs block. Reusing a
    // float computed once — including across the dist(a,b)/dist(b,a)
    // swap, which is exact for both metrics — is bit-identical to
    // recomputing it, so the resulting graph is unchanged.
    std::vector<std::vector<float>> row_dist(max_level + 1);
    std::vector<std::vector<std::unique_ptr<float[]>>> row_pairs(
        max_level + 1);
    for (unsigned l = 0; l <= max_level; ++l) {
        row_dist[l].assign(n * g.layerDegree(l), 0.0f);
        row_pairs[l].resize(n);
    }

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
    // Overflow scratch, reused by every connect() call.
    std::vector<Cand> occupants(max_deg);
    std::vector<Cand> cands(max_deg + 1);
    std::vector<unsigned> sel(max_deg); //!< chosen cands, in order
    std::vector<char> chosen(max_deg + 1);
    std::vector<float> new_pair(max_deg); //!< newcomer's pairs by slot
    std::vector<float *> miss_cell(max_deg); //!< uncached pairs...
    std::vector<std::uint32_t> miss_node(max_deg);
    std::vector<float> miss_d(max_deg); //!< ...and their distances

    // Add a bidirectional edge (@p dft = dist(from, to), which every
    // caller has already evaluated). On overflow the row is re-selected
    // with the HNSW diversity heuristic over {existing + new}, which
    // preserves the long-range edges plain replace-farthest would
    // erode as the graph densifies.
    auto connect = [&](unsigned l, std::uint32_t from, std::uint32_t to,
                       float dft) {
        std::uint32_t *r = row(l, from);
        const unsigned deg = g.layerDegree(l);
        float *rd = row_dist[l].data() +
                    static_cast<std::size_t>(from) * deg;
        for (unsigned j = 0; j < deg; ++j) {
            if (r[j] == to)
                return;
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
        std::unique_ptr<float[]> &block = row_pairs[l][from];
        const bool first = !block;
        if (first)
            block = RowPairs::make(deg);
        RowPairs pairs(block.get(), deg);
        const unsigned kNewSlot = deg;
        Cand *c = cands.data();
        if (first) {
            // The row holds its edges in arrival order.
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
        std::fill_n(new_pair.begin(), deg, kUnknown);
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
                        // the newcomer: evaluate those pairs together.
                        unsigned m = 0;
                        for (unsigned x = k + 1; x <= deg; ++x)
                            miss_node[m++] = c[x].node;
                        distsFrom(to, miss_node.data(), m, miss_d.data());
                        for (unsigned x = k + 1; x <= deg; ++x)
                            new_pair[c[x].slot] = miss_d[x - k - 1];
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

    // Incremental insertion.
    SearchScratch scratch(n, max_deg);
    std::vector<std::uint32_t> selected(max_deg);
    std::vector<float> selected_d(max_deg); //!< dist(node, selected[j])
    std::vector<float> div_d(max_deg);
    for (std::size_t i = 1; i < n; ++i) {
        const auto node = static_cast<std::uint32_t>(i);
        const float *q = points[node];
        const float qn = normOf(node);
        std::uint32_t cur = g.entry_;
        // Greedy descent through layers above the node's level.
        for (unsigned l = max_level; l > level[i]; --l)
            cur = g.greedyStep(l, cur, q, qn, scratch);
        // Connect at each layer from level[i] down to 0, picking
        // neighbors with the HNSW diversity heuristic (keep a
        // candidate only if it is closer to the new node than to any
        // already-selected neighbor) — without it, clustered data
        // yields short-range-only graphs with poor recall.
        for (int l = static_cast<int>(level[i]); l >= 0; --l) {
            const auto ul = static_cast<unsigned>(l);
            g.searchLayer(ul, cur, q, qn, params.efConstruction, scratch);
            const std::vector<Neighbor> &found = scratch.found;
            const unsigned target = g.layerDegree(ul);
            unsigned nsel = 0;
            for (const auto &c : found) {
                if (c.index == node)
                    continue;
                if (nsel >= target)
                    break;
                distsFrom(c.index, selected.data(), nsel, div_d.data());
                if (std::none_of(div_d.begin(), div_d.begin() + nsel,
                                 [&c](float d) { return d < c.dist2; })) {
                    selected[nsel] = c.index;
                    selected_d[nsel] = c.dist2;
                    ++nsel;
                }
            }
            // Backfill with skipped candidates if diversity pruned too
            // aggressively.
            for (const auto &c : found) {
                if (nsel >= target)
                    break;
                if (c.index == node)
                    continue;
                if (std::find(selected.begin(), selected.begin() + nsel,
                              c.index) == selected.begin() + nsel) {
                    selected[nsel] = c.index;
                    selected_d[nsel] = c.dist2;
                    ++nsel;
                }
            }
            for (unsigned s = 0; s < nsel; ++s) {
                connect(ul, node, selected[s], selected_d[s]);
                connect(ul, selected[s], node, selected_d[s]);
            }
            if (!found.empty())
                cur = found.front().index == node && found.size() > 1
                    ? found[1].index
                    : found.front().index;
        }
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

    const unsigned deg = layerDegree(layer);
    while (!open.empty()) {
        std::pop_heap(open.begin(), open.end(), nearest_first);
        const auto [d, node] = open.back();
        open.pop_back();
        if (d > best.front().first && best.size() >= ef)
            break;
        const std::uint32_t *nbrs = neighbors(layer, node);
        unsigned m = 0;
        for (unsigned j = 0; j < deg && nbrs[j] != kNoNeighbor; ++j) {
            if (s.visit(nbrs[j]))
                s.ids[m++] = nbrs[j];
        }
        distances(query, query_norm, s.ids.data(), m, s.dist.data());
        for (unsigned j = 0; j < m; ++j) {
            const float nd = s.dist[j];
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
    if (!points_)
        return false;
    const std::size_t n = points_->size();
    for (unsigned l = 0; l < numLayers(); ++l) {
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
    g.norms_ = pointNorms(points, metric);
    return g;
}

} // namespace hsu
