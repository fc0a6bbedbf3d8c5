#include "search/ggnn.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "common/audit.hh"
#include "common/logging.hh"
#include "sim/lower.hh"

namespace hsu
{

namespace
{

[[maybe_unused]] HSU_AUDIT_NONDET_SOURCE(
    kVisitedAudit, audit::NondetKind::UnorderedIteration,
    "ggnn.cc:visited",
    "hash set used for membership tests only; candidate order comes "
    "from the sorted beam, never from set iteration");

} // namespace

GgnnKernel::GgnnKernel(const HnswGraph &graph, GgnnConfig cfg)
    : graph_(graph), cfg_(cfg)
{
    const PointSet &pts = graph.points();
    pointsLayout_ = PointArrayLayout(alloc_, pts);
    adjLayout_.reserve(graph.numLayers());
    for (unsigned l = 0; l < graph.numLayers(); ++l) {
        adjLayout_.emplace_back(alloc_, pts.size(),
                                graph.layerDegree(l) * 4u, 64);
    }
    queryLayout_ = PointArrayLayout(alloc_, 65536, pts.dim());
    resultBase_ = alloc_.allocate(65536ull * cfg_.k * 8, 128);
}

/** Per-query emission context. */
struct GgnnKernel::EmitCtx
{
    SemBuilder &sb;
    const float *query;
    std::uint64_t queryIdx;
    std::uint64_t distanceTests = 0;
};

void
GgnnKernel::emitDistanceBatch(EmitCtx &ctx,
                              const std::vector<std::uint32_t> &cands,
                              VirtToken consume,
                              std::vector<float> &dists_out) const
{
    const PointSet &pts = graph_.points();
    const unsigned dim = pts.dim();
    const Metric metric = graph_.metric();
    const unsigned m = static_cast<unsigned>(cands.size());
    hsu_assert(m >= 1 && m <= kWarpSize, "bad candidate batch size ", m);

    // Functional evaluation.
    dists_out.resize(m);
    for (unsigned i = 0; i < m; ++i) {
        dists_out[i] =
            metricDist(metric, ctx.query, pts[cands[i]], dim);
    }
    ctx.distanceTests += m;

    // One candidate per lane (the lowering serializes candidates for
    // the baseline expansion).
    std::uint64_t addrs[kWarpSize] = {};
    for (unsigned i = 0; i < m; ++i)
        addrs[i] = pointsLayout_.pointAddr(cands[i]);
    ctx.sb.distanceWarpCoop(metric, dim, addrs, m,
                            ggnnDistanceShape(metric, dim), {consume});
}

GgnnEmit
GgnnKernel::emit(const PointSet &queries) const
{
    const PointSet &pts = graph_.points();
    const unsigned dim = pts.dim();
    hsu_assert(queries.dim() == dim, "query dimensionality mismatch");
    hsu_assert(queries.size() <= 65536, "query region overflow");

    GgnnEmit out;
    out.results.reserve(queries.size());
    out.sem.warps.reserve(queries.size());

    const unsigned top = graph_.numLayers() - 1;

    for (std::size_t q = 0; q < queries.size(); ++q) {
        out.sem.warps.emplace_back();
        SemBuilder sb(out.sem.warps.back());
        EmitCtx ctx{sb, queries[q], q, 0};

        // Load the query point into registers (coalesced) and
        // precompute its squared norm for angular search.
        std::vector<VirtToken> qtoks;
        const unsigned qchunks = std::max(1u, (dim * 4 + 127) / 128);
        for (unsigned c = 0; c < qchunks; ++c) {
            qtoks.push_back(sb.loadPattern(
                queryLayout_.pointAddr(q) + c * 128ull, 4, 4));
        }
        sb.aluConsuming((dim + kWarpSize - 1) / kWarpSize + 6, kFullMask,
                        qtoks);

        // --- Greedy descent through the upper layers ---------------
        std::uint32_t cur = graph_.entryPoint();
        float cur_d = metricDist(graph_.metric(), ctx.query, pts[cur],
                                 dim);
        ++ctx.distanceTests;
        for (unsigned l = top; l >= 1; --l) {
            for (;;) {
                // Fetch the neighbor row.
                const unsigned deg = graph_.layerDegree(l);
                const VirtToken ntok = sb.loadPattern(
                    adjLayout_[l].at(cur), 4, 4,
                    SemBuilder::lowLanes(deg));
                const std::uint32_t *nbrs = graph_.neighbors(l, cur);
                std::vector<std::uint32_t> cands;
                for (unsigned j = 0; j < deg; ++j) {
                    if (nbrs[j] == HnswGraph::kNoNeighbor)
                        break;
                    cands.push_back(nbrs[j]);
                }
                if (cands.empty())
                    break;
                std::vector<float> dists;
                emitDistanceBatch(ctx, cands, ntok, dists);
                // Warp-wide min reduction + pointer update.
                sb.alu(6);
                unsigned best = 0;
                for (unsigned j = 1; j < dists.size(); ++j) {
                    if (dists[j] < dists[best])
                        best = j;
                }
                if (dists[best] < cur_d) {
                    cur_d = dists[best];
                    cur = cands[best];
                } else {
                    break;
                }
            }
        }

        // --- Layer-0 beam search (GGNN "parallel cache") ------------
        using Cand = std::pair<float, std::uint32_t>;
        std::priority_queue<Cand, std::vector<Cand>, std::greater<>>
            open;
        std::priority_queue<Cand> best;
        std::unordered_set<std::uint32_t> visited;
        const unsigned ef = std::max(cfg_.ef, cfg_.k);

        open.push({cur_d, cur});
        best.push({cur_d, cur});
        visited.insert(cur);
        // Initialize the shared-memory cache/priority queue.
        sb.shared(16);

        const unsigned deg0 = graph_.layerDegree(0);
        while (!open.empty()) {
            const auto [d, node] = open.top();
            open.pop();
            // Pop the best candidate from the shared-memory priority
            // queue + termination check: the warp-parallel cache
            // update is a multi-instruction sequence (GGNN's cache is
            // the dominant non-offloadable cost, Section VI-D).
            sb.shared(8);
            sb.alu(4);
            if (d > best.top().first && best.size() >= ef)
                break;

            const VirtToken ntok = sb.loadPattern(
                adjLayout_[0].at(node), 4, 4,
                SemBuilder::lowLanes(deg0));
            const std::uint32_t *nbrs = graph_.neighbors(0, node);
            std::vector<std::uint32_t> cands;
            for (unsigned j = 0; j < deg0; ++j) {
                if (nbrs[j] == HnswGraph::kNoNeighbor)
                    break;
                if (visited.insert(nbrs[j]).second)
                    cands.push_back(nbrs[j]);
            }
            // Visited-set filtering in shared memory.
            sb.shared(4, kFullMask, {ntok});
            sb.alu(3);
            if (cands.empty())
                continue;

            std::vector<float> dists;
            emitDistanceBatch(ctx, cands, kNoVirt, dists);

            // Insert the surviving candidates into the priority queue
            // and the K-best cache: this is the non-offloaded queue
            // maintenance the paper calls out as the limiter.
            unsigned inserted = 0;
            for (unsigned j = 0; j < cands.size(); ++j) {
                if (best.size() < ef || dists[j] < best.top().first) {
                    open.push({dists[j], cands[j]});
                    best.push({dists[j], cands[j]});
                    if (best.size() > ef)
                        best.pop();
                    ++inserted;
                }
            }
            sb.shared(4 + 5 * inserted);
            sb.alu(4 + static_cast<unsigned>(cands.size()));
        }

        // Extract and store the K best.
        std::vector<Neighbor> res;
        while (!best.empty()) {
            res.push_back({best.top().second, best.top().first});
            best.pop();
        }
        std::sort(res.begin(), res.end());
        if (res.size() > cfg_.k)
            res.resize(cfg_.k);
        sb.shared(2 * cfg_.k);
        sb.storePattern(
            resultBase_ + q * cfg_.k * 8, 8, 8,
            SemBuilder::lowLanes(std::min<unsigned>(cfg_.k, kWarpSize)));
        out.results.push_back(std::move(res));
        out.distanceTests += ctx.distanceTests;
    }
    return out;
}

} // namespace hsu
