#include "search/bvhnn.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/lower.hh"

namespace hsu
{

namespace
{

/** Per-lane traversal state. */
struct Lane
{
    std::vector<std::int32_t> stack;
    std::int32_t best = -1;
    float bestD2 = 0.0f;
    const float *query = nullptr;
    bool active = false;
};

} // namespace

BvhnnKernel::BvhnnKernel(const PointSet &points, const Lbvh &bvh,
                         BvhnnConfig cfg)
    : points_(points), bvh_(bvh), cfg_(cfg),
      primPos_(bvh.primitivePositions()),
      pointsLayout_(alloc_, points),
      nodeLayout_(alloc_, bvh.size(),
                  cfg.useBvh4 ? BoxNode4::kBytes : 64,
                  cfg.useBvh4 ? 128 : 64),
      queryLayout_(alloc_, 65536, 3)
{
    hsu_assert(points.dim() == 3, "BVH-NN operates on 3-D points");
    if (cfg_.useBvh4)
        bvh4_ = Bvh4::fromBinary(bvh);
    resultBase_ = alloc_.allocate(65536ull * 8, 128);
}

BvhnnEmit
BvhnnKernel::emit(const PointSet &queries) const
{
    if (cfg_.useBvh4)
        return emitBvh4(queries);
    BvhnnEmit out;
    out.results.resize(queries.size());
    const float r2 = cfg_.radius * cfg_.radius;
    const auto &nodes = bvh_.nodes();

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
            lanes[l].best = -1;
            lanes[l].bestD2 = r2;
            lanes[l].active = true;
            if (bvh_.size() > 0)
                lanes[l].stack.push_back(bvh_.root());
            alive |= 1u << l;
        }

        // Load each lane's query point (float4-packed: one load).
        {
            std::uint64_t addrs[kWarpSize] = {};
            for (unsigned l = 0; l < kWarpSize; ++l) {
                const std::size_t q = w * kWarpSize + l;
                if (q < queries.size())
                    addrs[l] = queryLayout_.pointAddr(q);
            }
            sb.loadGather(addrs, 12, alive);
            sb.alu(4, alive); // prepare ray constants / bounds
            sb.shared(2, alive); // initialize the traversal stack
        }

        // Lockstep traversal: every iteration, active lanes pop one
        // node; internal and leaf lanes serialize as two sub-steps
        // (SIMT divergence).
        for (;;) {
            std::uint32_t m_int = 0, m_leaf = 0;
            std::int32_t popped[kWarpSize];
            for (unsigned l = 0; l < kWarpSize; ++l) {
                Lane &lane = lanes[l];
                if (!lane.active || lane.stack.empty())
                    continue;
                popped[l] = lane.stack.back();
                lane.stack.pop_back();
                if (nodes[static_cast<std::size_t>(popped[l])].isLeaf())
                    m_leaf |= 1u << l;
                else
                    m_int |= 1u << l;
            }
            const std::uint32_t m_any = m_int | m_leaf;
            if (!m_any)
                break;

            // Stack pop bookkeeping (shared memory).
            sb.shared(1, m_any);

            if (m_int) {
                // --- Internal step: fetch node, two slab tests -------
                std::uint64_t addrs[kWarpSize] = {};
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (m_int & (1u << l)) {
                        addrs[l] = nodeLayout_.at(
                            static_cast<std::uint64_t>(popped[l]));
                    }
                }
                const VirtToken tok =
                    sb.boxTest(addrs, m_int, bvhBoxShape());
                // Process results + push surviving children (not
                // offloaded: "processes the result ... to maintain a
                // per-thread traversal stack", Section VI-C).
                sb.alu(5, m_int, {tok});
                sb.shared(3, m_int);

                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_int & (1u << l)))
                        continue;
                    Lane &lane = lanes[l];
                    const LbvhNode &node =
                        nodes[static_cast<std::size_t>(popped[l])];
                    const Vec3 q{lane.query[0], lane.query[1],
                                 lane.query[2]};
                    // Visit near child last so it pops first.
                    const std::int32_t kids[2] = {node.left, node.right};
                    bool hit[2];
                    for (int c = 0; c < 2; ++c) {
                        const Aabb &b =
                            nodes[static_cast<std::size_t>(kids[c])]
                                .bounds;
                        // A point query hits a child iff it lies inside
                        // the (radius-inflated) child box.
                        hit[c] = b.contains(q);
                        out.boxTests++;
                    }
                    // Push right then left so the left child pops
                    // first (deterministic traversal order).
                    if (hit[1])
                        lane.stack.push_back(kids[1]);
                    if (hit[0])
                        lane.stack.push_back(kids[0]);
                }
            }

            if (m_leaf) {
                // --- Leaf step: fetch the point, distance test -------
                std::uint64_t addrs[kWarpSize] = {};
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (m_leaf & (1u << l)) {
                        const auto prim = static_cast<std::size_t>(
                            nodes[static_cast<std::size_t>(popped[l])]
                                .primitive);
                        // The device point array is Morton-sorted
                        // (RTNN), so address by sorted position.
                        addrs[l] =
                            pointsLayout_.pointAddr(primPos_[prim]);
                    }
                }
                const VirtToken tok = sb.distanceLanes(
                    3, addrs, m_leaf, bvhnnLeafShape());
                // Best-hit update.
                sb.alu(2, m_leaf, {tok});

                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_leaf & (1u << l)))
                        continue;
                    Lane &lane = lanes[l];
                    const auto prim =
                        nodes[static_cast<std::size_t>(popped[l])]
                            .primitive;
                    const float d2 = pointDist2(
                        lane.query,
                        points_[static_cast<std::size_t>(prim)], 3);
                    ++out.distanceTests;
                    if (d2 <= lane.bestD2 &&
                        (lane.best < 0 || d2 < lane.bestD2)) {
                        lane.bestD2 = d2;
                        lane.best = prim;
                    }
                }
            }
        }

        // Write results.
        std::uint32_t alive_now = alive;
        sb.storePattern(resultBase_ + w * kWarpSize * 8, 8, 8,
                        alive_now);
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const std::size_t q = w * kWarpSize + l;
            if (q >= queries.size())
                continue;
            out.results[q] =
                RadiusHit{lanes[l].best,
                          lanes[l].best >= 0 ? lanes[l].bestD2 : 0.0f};
        }
    }
    return out;
}

BvhnnEmit
BvhnnKernel::emitBvh4(const PointSet &queries) const
{
    // Same traversal as the binary path, but each RAY_INTERSECT
    // fetches a 128B 4-wide node and tests up to four children — the
    // configuration the paper conjectures would utilize the unit
    // better (Section VI-E).
    BvhnnEmit out;
    out.results.resize(queries.size());
    const float r2 = cfg_.radius * cfg_.radius;
    const auto &nodes = bvh4_.nodes();

    struct Lane4
    {
        std::vector<std::uint32_t> nodeStack; //!< inner node indices
        std::vector<std::uint32_t> leafQueue; //!< primitive indices
        std::int32_t best = -1;
        float bestD2 = 0.0f;
        const float *query = nullptr;
    };

    const std::size_t num_warps =
        (queries.size() + kWarpSize - 1) / kWarpSize;
    out.sem.warps.reserve(num_warps);

    for (std::size_t w = 0; w < num_warps; ++w) {
        out.sem.warps.emplace_back();
        SemBuilder sb(out.sem.warps.back());

        Lane4 lanes[kWarpSize];
        std::uint32_t alive = 0;
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const std::size_t q = w * kWarpSize + l;
            if (q >= queries.size())
                continue;
            lanes[l].query = queries[q];
            lanes[l].bestD2 = r2;
            if (!nodes.empty())
                lanes[l].nodeStack.push_back(bvh4_.root());
            alive |= 1u << l;
        }

        {
            std::uint64_t addrs[kWarpSize] = {};
            for (unsigned l = 0; l < kWarpSize; ++l) {
                const std::size_t q = w * kWarpSize + l;
                if (q < queries.size())
                    addrs[l] = queryLayout_.pointAddr(q);
            }
            sb.loadGather(addrs, 12, alive);
            sb.alu(4, alive);
            sb.shared(2, alive);
        }

        for (;;) {
            // Leaf sub-step first: drain one queued primitive per lane.
            std::uint32_t m_leaf = 0;
            std::uint64_t leaf_addrs[kWarpSize] = {};
            std::uint32_t leaf_prim[kWarpSize] = {};
            for (unsigned l = 0; l < kWarpSize; ++l) {
                Lane4 &lane = lanes[l];
                if (lane.leafQueue.empty())
                    continue;
                m_leaf |= 1u << l;
                leaf_prim[l] = lane.leafQueue.back();
                lane.leafQueue.pop_back();
                leaf_addrs[l] =
                    pointsLayout_.pointAddr(primPos_[leaf_prim[l]]);
            }
            if (m_leaf) {
                const VirtToken tok = sb.distanceLanes(
                    3, leaf_addrs, m_leaf, bvhnnLeafShape());
                sb.alu(2, m_leaf, {tok});
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_leaf & (1u << l)))
                        continue;
                    Lane4 &lane = lanes[l];
                    const float d2 = pointDist2(
                        lane.query, points_[leaf_prim[l]], 3);
                    ++out.distanceTests;
                    if (d2 <= lane.bestD2 &&
                        (lane.best < 0 || d2 < lane.bestD2)) {
                        lane.bestD2 = d2;
                        lane.best = static_cast<std::int32_t>(
                            leaf_prim[l]);
                    }
                }
            }

            // Inner sub-step: pop one 4-wide node per lane.
            std::uint32_t m_int = 0;
            std::uint64_t addrs[kWarpSize] = {};
            std::uint32_t popped[kWarpSize] = {};
            for (unsigned l = 0; l < kWarpSize; ++l) {
                Lane4 &lane = lanes[l];
                if (!lane.leafQueue.empty() || lane.nodeStack.empty())
                    continue;
                popped[l] = lane.nodeStack.back();
                lane.nodeStack.pop_back();
                m_int |= 1u << l;
                addrs[l] = nodeLayout_.at(popped[l]);
            }
            if (!m_int && !m_leaf)
                break;
            if (!m_int)
                continue;

            sb.shared(1, m_int);
            const VirtToken tok =
                sb.boxTest(addrs, m_int, bvh4BoxShape());
            sb.alu(5, m_int, {tok});
            sb.shared(3, m_int);

            for (unsigned l = 0; l < kWarpSize; ++l) {
                if (!(m_int & (1u << l)))
                    continue;
                Lane4 &lane = lanes[l];
                const BoxNode4 &node = nodes[popped[l]];
                const Vec3 q{lane.query[0], lane.query[1],
                             lane.query[2]};
                for (int c = 3; c >= 0; --c) {
                    const std::uint32_t ref =
                        node.child[static_cast<unsigned>(c)];
                    if (ref == kInvalidNode)
                        continue;
                    ++out.boxTests;
                    if (!node.bounds[static_cast<unsigned>(c)]
                             .contains(q)) {
                        continue;
                    }
                    if (childIsLeaf(ref))
                        lane.leafQueue.push_back(childIndex(ref));
                    else
                        lane.nodeStack.push_back(childIndex(ref));
                }
            }
        }

        sb.storePattern(resultBase_ + w * kWarpSize * 8, 8, 8, alive);
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const std::size_t q = w * kWarpSize + l;
            if (q >= queries.size())
                continue;
            out.results[q] =
                RadiusHit{lanes[l].best,
                          lanes[l].best >= 0 ? lanes[l].bestD2 : 0.0f};
        }
    }
    return out;
}

} // namespace hsu
