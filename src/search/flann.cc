#include "search/flann.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "sim/lower.hh"

namespace hsu
{

namespace
{

/** Per-lane traversal state: DFS stack of (node, lower bound). */
struct Lane
{
    struct Frame
    {
        std::int32_t node;
        float bound;
    };
    std::vector<Frame> stack;
    Neighbor best{0, std::numeric_limits<float>::infinity()};
    const float *query = nullptr;
    bool hasQuery = false;
};

} // namespace

FlannKernel::FlannKernel(const KdTree &tree)
    : tree_(tree), pointsLayout_(alloc_, tree.points()),
      nodeLayout_(alloc_, tree.nodes().size(), 16, 16),
      queryLayout_(alloc_, 65536, tree.points().dim())
{
    resultBase_ = alloc_.allocate(65536ull * 8, 128);
}

FlannEmit
FlannKernel::emit(const PointSet &queries) const
{
    const PointSet &pts = tree_.points();
    const unsigned dim = pts.dim();
    hsu_assert(queries.dim() == dim, "query dimensionality mismatch");

    FlannEmit out;
    out.results.resize(queries.size());
    const auto &nodes = tree_.nodes();
    const auto &pindex = tree_.pointIndex();

    const std::size_t num_warps =
        (queries.size() + kWarpSize - 1) / kWarpSize;
    out.sem.warps.reserve(num_warps);

    for (std::size_t w = 0; w < num_warps; ++w) {
        out.sem.warps.emplace_back();
        SemBuilder sb(out.sem.warps.back());

        Lane lanes[kWarpSize];
        std::uint32_t alive = 0;
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const std::size_t q = w * kWarpSize + l;
            if (q >= queries.size())
                continue;
            lanes[l].query = queries[q];
            lanes[l].hasQuery = true;
            if (!nodes.empty())
                lanes[l].stack.push_back({tree_.root(), 0.0f});
            alive |= 1u << l;
        }

        // Load query points (float4-packed for 3-D).
        {
            std::uint64_t addrs[kWarpSize] = {};
            for (unsigned l = 0; l < kWarpSize; ++l) {
                const std::size_t q = w * kWarpSize + l;
                if (q < queries.size())
                    addrs[l] = queryLayout_.pointAddr(q);
            }
            sb.loadGather(addrs, dim * 4, alive);
            sb.shared(2, alive); // stack init
        }

        for (;;) {
            std::uint32_t m_int = 0, m_leaf = 0;
            std::int32_t cur[kWarpSize];
            for (unsigned l = 0; l < kWarpSize; ++l) {
                Lane &lane = lanes[l];
                // Pop until a frame survives the bound check (each
                // discarded frame still costs the warp a masked step,
                // but we fold that into the pop bookkeeping below).
                while (!lane.stack.empty() &&
                       lane.stack.back().bound >= lane.best.dist2) {
                    lane.stack.pop_back();
                }
                if (lane.stack.empty())
                    continue;
                cur[l] = lane.stack.back().node;
                lane.stack.pop_back();
                if (nodes[static_cast<std::size_t>(cur[l])].isLeaf())
                    m_leaf |= 1u << l;
                else
                    m_int |= 1u << l;
            }
            const std::uint32_t m_any = m_int | m_leaf;
            if (!m_any)
                break;

            // Stack pop + bound check.
            sb.shared(1, m_any);
            sb.alu(2, m_any);

            if (m_int) {
                // --- Internal: load split plane, scalar compare ------
                std::uint64_t addrs[kWarpSize] = {};
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (m_int & (1u << l)) {
                        addrs[l] = nodeLayout_.at(
                            static_cast<std::uint64_t>(cur[l]));
                    }
                }
                // The split test is NOT offloadable: single scalar
                // subtract + compare (Section VI-F), so it stays a
                // pass-through load, never a DistanceBatch.
                const VirtToken tok = sb.loadGather(addrs, 16, m_int);
                // Compare + select near/far + bound computation.
                sb.alu(6, m_int, {tok});
                sb.shared(3, m_int); // push far child

                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_int & (1u << l)))
                        continue;
                    Lane &lane = lanes[l];
                    const KdNode &node =
                        nodes[static_cast<std::size_t>(cur[l])];
                    const float diff =
                        lane.query[node.axis] - node.split;
                    const std::int32_t near =
                        diff < 0 ? node.left : node.right;
                    const std::int32_t far =
                        diff < 0 ? node.right : node.left;
                    const float far_bound = diff * diff;
                    // Push far first so near pops first.
                    if (far_bound < lane.best.dist2)
                        lane.stack.push_back({far, far_bound});
                    lane.stack.push_back({near, 0.0f});
                }
            }

            if (m_leaf) {
                // --- Leaf: distance test every stored point ----------
                // Leaves have up to leafSize points; lane j processes
                // its leaf's point j in sub-step j (lanes with shorter
                // leaves drop out of the mask).
                unsigned max_count = 0;
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (m_leaf & (1u << l)) {
                        max_count = std::max(
                            max_count,
                            nodes[static_cast<std::size_t>(cur[l])]
                                .count);
                    }
                }
                // The per-point tests are mutually independent, so the
                // compiler software-pipelines them: issue all tests,
                // then fold the results into the running best.
                std::vector<VirtToken> pending;
                std::uint32_t last_mask = 0;
                for (unsigned j = 0; j < max_count; ++j) {
                    std::uint32_t m_pt = 0;
                    std::uint64_t addrs[kWarpSize] = {};
                    for (unsigned l = 0; l < kWarpSize; ++l) {
                        if (!(m_leaf & (1u << l)))
                            continue;
                        const KdNode &leaf =
                            nodes[static_cast<std::size_t>(cur[l])];
                        if (j >= leaf.count)
                            continue;
                        m_pt |= 1u << l;
                        // Leaf buckets store their points contiguously
                        // (FLANN reorders the point array), so address
                        // by position, not original id.
                        addrs[l] = pointsLayout_.pointAddr(
                            leaf.first + j);
                    }
                    if (!m_pt)
                        break;
                    last_mask = m_pt;
                    pending.push_back(sb.distanceLanes(
                        dim, addrs, m_pt, flannDistanceShape(dim)));

                    for (unsigned l = 0; l < kWarpSize; ++l) {
                        if (!(m_pt & (1u << l)))
                            continue;
                        Lane &lane = lanes[l];
                        const KdNode &leaf =
                            nodes[static_cast<std::size_t>(cur[l])];
                        const std::uint32_t pt = pindex[leaf.first + j];
                        const float d2 =
                            pointDist2(lane.query, pts[pt], dim);
                        ++out.distanceTests;
                        if (d2 < lane.best.dist2 ||
                            (d2 == lane.best.dist2 &&
                             pt < lane.best.index)) {
                            lane.best = {pt, d2};
                        }
                    }
                }
                // Fold every test's result into the running best
                // (not offloaded).
                if (last_mask != 0)
                    sb.aluConsuming(2 * max_count, m_leaf, pending);
            }
            out.nodeSteps += 1;
        }

        sb.storePattern(resultBase_ + w * kWarpSize * 8, 8, 8, alive);
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const std::size_t q = w * kWarpSize + l;
            if (q < queries.size())
                out.results[q] = lanes[l].best;
        }
    }
    return out;
}

} // namespace hsu
