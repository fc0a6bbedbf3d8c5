#include "structures/lbvh.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/logging.hh"
#include "geom/morton.hh"

namespace hsu
{

namespace
{

/** Sort keys: Morton code with the original index appended so keys are
 *  unique even when codes collide (Karras 2012, section 4). */
struct SortedPrim
{
    std::uint64_t code;
    std::uint32_t index;
};

/** Length of the common prefix between keys i and j; -1 out of range. */
int
deltaFn(const std::vector<SortedPrim> &keys, int i, int j)
{
    const int n = static_cast<int>(keys.size());
    if (j < 0 || j >= n)
        return -1;
    const std::uint64_t ci = keys[i].code;
    const std::uint64_t cj = keys[j].code;
    if (ci != cj)
        return std::countl_zero(ci ^ cj);
    // Identical codes: extend the key with the index bits.
    const std::uint32_t xi = keys[i].index ^ keys[j].index;
    return 64 + std::countl_zero(static_cast<std::uint64_t>(xi));
}

} // namespace

Lbvh
Lbvh::buildFromPoints(const PointSet &points, float leaf_half_extent)
{
    hsu_assert(points.dim() == 3, "LBVH over points requires 3-D data");
    std::vector<Aabb> boxes;
    boxes.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        boxes.push_back(Aabb::centered(points.vec3(i), leaf_half_extent));
    return buildImpl(boxes);
}

Lbvh
Lbvh::buildFromTriangles(const std::vector<Triangle> &tris)
{
    std::vector<Aabb> boxes;
    boxes.reserve(tris.size());
    for (const auto &t : tris) {
        Aabb b;
        b.expand(t.v0);
        b.expand(t.v1);
        b.expand(t.v2);
        boxes.push_back(b);
    }
    return buildImpl(boxes);
}

Lbvh
Lbvh::buildFromBoxes(const std::vector<Aabb> &boxes)
{
    return buildImpl(boxes);
}

Lbvh
Lbvh::buildImpl(const std::vector<Aabb> &leaf_boxes)
{
    Lbvh bvh;
    const int n = static_cast<int>(leaf_boxes.size());
    bvh.numLeaves_ = leaf_boxes.size();
    if (n == 0)
        return bvh;

    if (n == 1) {
        LbvhNode leaf;
        leaf.bounds = leaf_boxes[0];
        leaf.primitive = 0;
        bvh.nodes_.push_back(leaf);
        bvh.root_ = 0;
        return bvh;
    }

    // Morton-sort the primitives by centroid.
    Aabb centroid_bounds;
    for (const auto &b : leaf_boxes)
        centroid_bounds.expand(b.center());
    std::vector<SortedPrim> keys(leaf_boxes.size());
    for (std::size_t i = 0; i < leaf_boxes.size(); ++i) {
        keys[i].code = mortonCode63(leaf_boxes[i].center(),
                                    centroid_bounds);
        keys[i].index = static_cast<std::uint32_t>(i);
    }
    std::sort(keys.begin(), keys.end(),
              [](const SortedPrim &a, const SortedPrim &b) {
                  return a.code != b.code ? a.code < b.code
                                          : a.index < b.index;
              });

    // Layout: internal nodes [0, n-1), leaves [n-1, 2n-1).
    bvh.nodes_.assign(2 * static_cast<std::size_t>(n) - 1, LbvhNode{});
    const int leaf_base = n - 1;
    for (int i = 0; i < n; ++i) {
        LbvhNode &leaf = bvh.nodes_[static_cast<std::size_t>(
            leaf_base + i)];
        leaf.bounds = leaf_boxes[keys[static_cast<std::size_t>(i)].index];
        leaf.primitive = static_cast<std::int32_t>(
            keys[static_cast<std::size_t>(i)].index);
    }

    auto delta = [&keys](int i, int j) { return deltaFn(keys, i, j); };

    // Karras 2012: determine each internal node's range and split.
    for (int i = 0; i < n - 1; ++i) {
        const int d = delta(i, i + 1) - delta(i, i - 1) > 0 ? 1 : -1;
        const int delta_min = delta(i, i - d);

        int lmax = 2;
        while (delta(i, i + lmax * d) > delta_min)
            lmax *= 2;

        int l = 0;
        for (int t = lmax / 2; t >= 1; t /= 2) {
            if (delta(i, i + (l + t) * d) > delta_min)
                l += t;
        }
        const int j = i + l * d;
        const int delta_node = delta(i, j);

        int s = 0;
        for (int t = (l + 1) / 2;; t = (t + 1) / 2) {
            if (delta(i, i + (s + t) * d) > delta_node)
                s += t;
            if (t == 1)
                break;
        }
        const int gamma = i + s * d + std::min(d, 0);

        const int left = std::min(i, j) == gamma
            ? leaf_base + gamma
            : gamma;
        const int right = std::max(i, j) == gamma + 1
            ? leaf_base + gamma + 1
            : gamma + 1;

        LbvhNode &node = bvh.nodes_[static_cast<std::size_t>(i)];
        node.left = left;
        node.right = right;
        bvh.nodes_[static_cast<std::size_t>(left)].parent = i;
        bvh.nodes_[static_cast<std::size_t>(right)].parent = i;
    }
    bvh.root_ = 0;

    // Fit internal AABBs bottom-up: walk up from each leaf; a node is
    // processed the second time it is reached (both children done).
    std::vector<std::uint8_t> visits(static_cast<std::size_t>(n - 1), 0);
    for (int i = 0; i < n; ++i) {
        int cur = bvh.nodes_[static_cast<std::size_t>(leaf_base + i)]
                      .parent;
        while (cur >= 0) {
            if (++visits[static_cast<std::size_t>(cur)] < 2)
                break;
            LbvhNode &node = bvh.nodes_[static_cast<std::size_t>(cur)];
            node.bounds = Aabb{};
            node.bounds.expand(
                bvh.nodes_[static_cast<std::size_t>(node.left)].bounds);
            node.bounds.expand(
                bvh.nodes_[static_cast<std::size_t>(node.right)].bounds);
            cur = node.parent;
        }
    }
    return bvh;
}

bool
Lbvh::validate() const
{
    if (nodes_.empty())
        return numLeaves_ == 0;

    // Every node is reached exactly once (no cycles, no shared
    // subtrees), through in-range root and child indices only.
    const auto in_range = [this](std::int32_t idx) {
        return idx >= 0 && static_cast<std::size_t>(idx) < nodes_.size();
    };
    if (!in_range(root_))
        return false;
    std::vector<std::uint32_t> seen;
    std::vector<bool> reached(nodes_.size(), false);
    std::vector<std::int32_t> stack{root_};
    std::size_t visited = 0;
    while (!stack.empty()) {
        const std::int32_t idx = stack.back();
        stack.pop_back();
        if (reached[static_cast<std::size_t>(idx)])
            return false;
        reached[static_cast<std::size_t>(idx)] = true;
        ++visited;
        const LbvhNode &node = nodes_[static_cast<std::size_t>(idx)];
        if (node.isLeaf()) {
            seen.push_back(static_cast<std::uint32_t>(node.primitive));
            continue;
        }
        if (!in_range(node.left) || !in_range(node.right))
            return false;
        for (const std::int32_t c : {node.left, node.right}) {
            const LbvhNode &child = nodes_[static_cast<std::size_t>(c)];
            if (child.parent != idx)
                return false;
            // Containment must be exact: parents are unions of children.
            if (child.bounds.lo.x < node.bounds.lo.x ||
                child.bounds.lo.y < node.bounds.lo.y ||
                child.bounds.lo.z < node.bounds.lo.z ||
                child.bounds.hi.x > node.bounds.hi.x ||
                child.bounds.hi.y > node.bounds.hi.y ||
                child.bounds.hi.z > node.bounds.hi.z) {
                return false;
            }
            stack.push_back(c);
        }
    }
    if (visited != nodes_.size())
        return false;
    std::sort(seen.begin(), seen.end());
    if (seen.size() != numLeaves_)
        return false;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        if (seen[i] != i)
            return false;
    }
    return true;
}

std::vector<std::uint32_t>
Lbvh::pointQuery(const Vec3 &p) const
{
    std::vector<std::uint32_t> hits;
    if (nodes_.empty())
        return hits;
    std::vector<std::int32_t> stack{root_};
    while (!stack.empty()) {
        const std::int32_t idx = stack.back();
        stack.pop_back();
        const LbvhNode &node = nodes_[static_cast<std::size_t>(idx)];
        if (!node.bounds.contains(p))
            continue;
        if (node.isLeaf()) {
            hits.push_back(static_cast<std::uint32_t>(node.primitive));
        } else {
            stack.push_back(node.left);
            stack.push_back(node.right);
        }
    }
    std::sort(hits.begin(), hits.end());
    return hits;
}

namespace
{

/** Recursive binned-SAH splitter used by Lbvh::buildSah. */
struct SahBuilder
{
    const std::vector<Aabb> &boxes;
    unsigned numBins;
    std::vector<LbvhNode> nodes;
    std::vector<std::uint32_t> order; // primitive ids, partitioned

    std::int32_t
    build(std::uint32_t first, std::uint32_t count)
    {
        const auto idx = static_cast<std::int32_t>(nodes.size());
        nodes.emplace_back();

        Aabb bounds, centroid_bounds;
        for (std::uint32_t i = first; i < first + count; ++i) {
            bounds.expand(boxes[order[i]]);
            centroid_bounds.expand(boxes[order[i]].center());
        }
        nodes[static_cast<std::size_t>(idx)].bounds = bounds;

        if (count == 1) {
            nodes[static_cast<std::size_t>(idx)].primitive =
                static_cast<std::int32_t>(order[first]);
            return idx;
        }

        // Pick the centroid-extent axis and scan SAH bins along it.
        const Vec3 ext = centroid_bounds.extent();
        int axis = 0;
        if (ext.y > ext[axis])
            axis = 1;
        if (ext.z > ext[axis])
            axis = 2;

        std::uint32_t mid = first + count / 2;
        if (ext[axis] > 0.0f) {
            struct Bin
            {
                Aabb bounds;
                unsigned count = 0;
            };
            std::vector<Bin> bins(numBins);
            const float lo = centroid_bounds.lo[axis];
            const float scale =
                static_cast<float>(numBins) / ext[axis];
            auto bin_of = [&](std::uint32_t prim) {
                const float c = boxes[prim].center()[axis];
                const auto b = static_cast<unsigned>((c - lo) * scale);
                return std::min(b, numBins - 1);
            };
            for (std::uint32_t i = first; i < first + count; ++i) {
                Bin &b = bins[bin_of(order[i])];
                b.bounds.expand(boxes[order[i]]);
                ++b.count;
            }
            // Sweep to find the cheapest split boundary.
            std::vector<double> right_cost(numBins, 0.0);
            Aabb acc;
            unsigned n = 0;
            for (unsigned b = numBins - 1; b >= 1; --b) {
                acc.expand(bins[b].bounds);
                n += bins[b].count;
                right_cost[b] = static_cast<double>(n) *
                                acc.surfaceArea();
            }
            acc = Aabb{};
            n = 0;
            double best_cost = -1.0;
            unsigned best_split = 0;
            for (unsigned b = 0; b + 1 < numBins; ++b) {
                acc.expand(bins[b].bounds);
                n += bins[b].count;
                if (n == 0 || n == count)
                    continue;
                const double cost = static_cast<double>(n) *
                                        acc.surfaceArea() +
                                    right_cost[b + 1];
                if (best_cost < 0 || cost < best_cost) {
                    best_cost = cost;
                    best_split = b;
                }
            }
            if (best_cost >= 0) {
                auto *begin = order.data() + first;
                auto *split = std::partition(
                    begin, begin + count,
                    [&](std::uint32_t prim) {
                        return bin_of(prim) <= best_split;
                    });
                const auto left =
                    static_cast<std::uint32_t>(split - begin);
                if (left > 0 && left < count)
                    mid = first + left;
            }
        }

        const std::int32_t left = build(first, mid - first);
        const std::int32_t right = build(mid, first + count - mid);
        nodes[static_cast<std::size_t>(idx)].left = left;
        nodes[static_cast<std::size_t>(idx)].right = right;
        nodes[static_cast<std::size_t>(left)].parent = idx;
        nodes[static_cast<std::size_t>(right)].parent = idx;
        return idx;
    }
};

} // namespace

Lbvh
Lbvh::buildSah(const std::vector<Aabb> &boxes, unsigned num_bins)
{
    Lbvh bvh;
    bvh.numLeaves_ = boxes.size();
    if (boxes.empty())
        return bvh;

    SahBuilder builder{boxes, std::max(2u, num_bins), {}, {}};
    builder.order.resize(boxes.size());
    for (std::size_t i = 0; i < boxes.size(); ++i)
        builder.order[i] = static_cast<std::uint32_t>(i);
    builder.nodes.reserve(2 * boxes.size());
    builder.build(0, static_cast<std::uint32_t>(boxes.size()));

    bvh.nodes_ = std::move(builder.nodes);
    bvh.root_ = 0;
    return bvh;
}

Lbvh
Lbvh::buildSahFromPoints(const PointSet &points, float leaf_half_extent,
                         unsigned num_bins)
{
    hsu_assert(points.dim() == 3, "SAH BVH over points requires 3-D");
    std::vector<Aabb> boxes;
    boxes.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        boxes.push_back(Aabb::centered(points.vec3(i), leaf_half_extent));
    return buildSah(boxes, num_bins);
}

double
Lbvh::sahCost() const
{
    if (nodes_.empty())
        return 0.0;
    const double root_area =
        nodes_[static_cast<std::size_t>(root_)].bounds.surfaceArea();
    if (root_area <= 0.0)
        return 0.0;
    double cost = 0.0;
    for (const auto &node : nodes_) {
        if (!node.isLeaf())
            cost += node.bounds.surfaceArea() / root_area;
    }
    return cost;
}

void
Lbvh::refit(const std::vector<Aabb> &new_boxes)
{
    hsu_assert(new_boxes.size() == numLeaves_,
               "refit box count mismatch");
    if (nodes_.empty())
        return;
    // Set leaves, then fix inner nodes children-before-parents: inner
    // nodes were appended before their leaves in both builders, but
    // parents always precede children in neither — walk up from leaves
    // with visit counting, as in the builder.
    std::vector<std::uint8_t> visits(nodes_.size(), 0);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        LbvhNode &node = nodes_[i];
        if (!node.isLeaf())
            continue;
        node.bounds =
            new_boxes[static_cast<std::size_t>(node.primitive)];
        std::int32_t cur = node.parent;
        while (cur >= 0) {
            if (++visits[static_cast<std::size_t>(cur)] < 2)
                break;
            LbvhNode &inner = nodes_[static_cast<std::size_t>(cur)];
            inner.bounds = Aabb{};
            inner.bounds.expand(
                nodes_[static_cast<std::size_t>(inner.left)].bounds);
            inner.bounds.expand(
                nodes_[static_cast<std::size_t>(inner.right)].bounds);
            cur = inner.parent;
        }
    }
}

std::vector<std::uint32_t>
Lbvh::primitivePositions() const
{
    // In-order (left-to-right) leaf rank: for the Morton builder this
    // is the Morton-sorted order; for the SAH builder it is the
    // builder's spatial partitioning order. Either way, storing the
    // device point array in this order gives traversal locality.
    std::vector<std::uint32_t> pos(numLeaves_);
    if (nodes_.empty())
        return pos;
    std::uint32_t next = 0;
    std::vector<std::int32_t> stack{root_};
    while (!stack.empty()) {
        const std::int32_t idx = stack.back();
        stack.pop_back();
        const LbvhNode &node = nodes_[static_cast<std::size_t>(idx)];
        if (node.isLeaf()) {
            pos[static_cast<std::size_t>(node.primitive)] = next++;
            continue;
        }
        stack.push_back(node.right);
        stack.push_back(node.left); // left pops first
    }
    return pos;
}

Bvh4
Bvh4::fromBinary(const Lbvh &bvh)
{
    Bvh4 out;
    const auto &nodes = bvh.nodes();
    if (nodes.empty())
        return out;

    out.primBounds_.resize(bvh.numLeaves());
    for (const auto &node : nodes) {
        if (node.isLeaf()) {
            out.primBounds_[static_cast<std::size_t>(node.primitive)] =
                node.bounds;
        }
    }

    // Special case: a single-leaf tree becomes one box node whose only
    // child is the primitive.
    if (nodes.size() == 1) {
        BoxNode4 root;
        root.bounds[0] = nodes[0].bounds;
        root.child[0] = makeChildRef(
            static_cast<std::uint32_t>(nodes[0].primitive), true);
        out.nodes_.push_back(root);
        return out;
    }

    // Collapse: each BVH4 node adopts up to four binary descendants by
    // repeatedly expanding the internal slot with the largest surface
    // area (a standard greedy widening).
    struct WorkItem
    {
        std::int32_t binaryNode;
        std::uint32_t slot; // BVH4 node index to fill
    };
    std::vector<WorkItem> work;
    out.nodes_.emplace_back();
    work.push_back({bvh.root(), 0});

    while (!work.empty()) {
        const WorkItem item = work.back();
        work.pop_back();

        std::vector<std::int32_t> slots;
        const LbvhNode &root = nodes[static_cast<std::size_t>(
            item.binaryNode)];
        slots.push_back(root.left);
        slots.push_back(root.right);
        while (slots.size() < 4) {
            int expand = -1;
            float best_area = -1.0f;
            for (std::size_t i = 0; i < slots.size(); ++i) {
                const LbvhNode &cand = nodes[static_cast<std::size_t>(
                    slots[i])];
                if (cand.isLeaf())
                    continue;
                const float area = cand.bounds.surfaceArea();
                if (area > best_area) {
                    best_area = area;
                    expand = static_cast<int>(i);
                }
            }
            if (expand < 0)
                break;
            const LbvhNode &chosen = nodes[static_cast<std::size_t>(
                slots[static_cast<std::size_t>(expand)])];
            slots[static_cast<std::size_t>(expand)] = chosen.left;
            slots.push_back(chosen.right);
        }

        // Build into a local first: emplace_back below may reallocate
        // the node vector and would invalidate a held reference.
        BoxNode4 box;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const LbvhNode &child = nodes[static_cast<std::size_t>(
                slots[i])];
            box.bounds[i] = child.bounds;
            if (child.isLeaf()) {
                box.child[i] = makeChildRef(
                    static_cast<std::uint32_t>(child.primitive), true);
            } else {
                const auto new_idx = static_cast<std::uint32_t>(
                    out.nodes_.size());
                out.nodes_.emplace_back();
                box.child[i] = makeChildRef(new_idx, false);
                work.push_back({slots[i], new_idx});
            }
        }
        out.nodes_[item.slot] = box;
    }
    return out;
}

bool
Bvh4::validate() const
{
    if (nodes_.empty())
        return primBounds_.empty();

    std::vector<bool> prim_seen(primBounds_.size(), false);
    std::vector<bool> node_seen(nodes_.size(), false);
    std::vector<std::uint32_t> stack{0};
    node_seen[0] = true;
    while (!stack.empty()) {
        const std::uint32_t idx = stack.back();
        stack.pop_back();
        const BoxNode4 &node = nodes_[idx];
        bool tail = false;
        for (unsigned i = 0; i < 4; ++i) {
            if (node.child[i] == kInvalidNode) {
                tail = true;
                continue;
            }
            if (tail)
                return false; // valid slots must be packed first
            const std::uint32_t ref = node.child[i];
            if (childIsLeaf(ref)) {
                const std::uint32_t prim = childIndex(ref);
                if (prim >= primBounds_.size() || prim_seen[prim])
                    return false;
                prim_seen[prim] = true;
            } else {
                const std::uint32_t ni = childIndex(ref);
                if (ni >= nodes_.size() || node_seen[ni])
                    return false;
                node_seen[ni] = true;
                stack.push_back(ni);
            }
        }
    }
    for (const bool seen : prim_seen) {
        if (!seen)
            return false;
    }
    for (const bool seen : node_seen) {
        if (!seen)
            return false;
    }
    return true;
}

} // namespace hsu

namespace hsu
{

Lbvh
Lbvh::fromParts(std::vector<LbvhNode> nodes, std::int32_t root,
                std::size_t num_leaves)
{
    Lbvh bvh;
    bvh.nodes_ = std::move(nodes);
    bvh.root_ = root;
    bvh.numLeaves_ = num_leaves;
    return bvh;
}

} // namespace hsu
