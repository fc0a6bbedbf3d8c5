#include "structures/kdtree.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.hh"

namespace hsu
{

KdTree
KdTree::build(const PointSet &points, unsigned leaf_size)
{
    hsu_assert(leaf_size >= 1, "leaf size must be positive");
    KdTree tree;
    tree.points_ = &points;
    tree.pointIndex_.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        tree.pointIndex_[i] = static_cast<std::uint32_t>(i);
    if (!points.size())
        return tree;
    tree.nodes_.reserve(2 * points.size() / leaf_size + 2);
    tree.buildRange(0, static_cast<std::uint32_t>(points.size()),
                    leaf_size);
    return tree;
}

std::int32_t
KdTree::buildRange(std::uint32_t first, std::uint32_t count,
                   unsigned leaf_size)
{
    const auto idx = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();

    if (count <= leaf_size) {
        nodes_[static_cast<std::size_t>(idx)].first = first;
        nodes_[static_cast<std::size_t>(idx)].count = count;
        return idx;
    }

    // Split the axis with the largest spread at its median.
    const unsigned dim = points_->dim();
    unsigned best_axis = 0;
    float best_spread = -1.0f;
    for (unsigned axis = 0; axis < dim; ++axis) {
        float lo = (*points_)[pointIndex_[first]][axis];
        float hi = lo;
        for (std::uint32_t i = 1; i < count; ++i) {
            const float v = (*points_)[pointIndex_[first + i]][axis];
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        if (hi - lo > best_spread) {
            best_spread = hi - lo;
            best_axis = axis;
        }
    }

    const std::uint32_t mid = count / 2;
    auto begin = pointIndex_.begin() + first;
    std::nth_element(begin, begin + mid, begin + count,
                     [this, best_axis](std::uint32_t a, std::uint32_t b) {
                         return (*points_)[a][best_axis] <
                                (*points_)[b][best_axis];
                     });
    const float split_value =
        (*points_)[pointIndex_[first + mid]][best_axis];

    const std::int32_t left = buildRange(first, mid, leaf_size);
    const std::int32_t right =
        buildRange(first + mid, count - mid, leaf_size);

    KdNode &node = nodes_[static_cast<std::size_t>(idx)];
    node.axis = static_cast<std::int32_t>(best_axis);
    node.split = split_value;
    node.left = left;
    node.right = right;
    return idx;
}

std::vector<Neighbor>
KdTree::knn(const float *query, unsigned k, unsigned max_checks) const
{
    std::vector<Neighbor> best; // max-heap by dist2
    if (nodes_.empty() || k == 0)
        return best;
    const unsigned dim = points_->dim();

    auto worst = [&best, k]() {
        return best.size() < k ? std::numeric_limits<float>::infinity()
                               : best.front().dist2;
    };
    auto offer = [&best, k](std::uint32_t index, float d2) {
        if (best.size() < k) {
            best.push_back({index, d2});
            std::push_heap(best.begin(), best.end());
        } else if (d2 < best.front().dist2) {
            std::pop_heap(best.begin(), best.end());
            best.back() = {index, d2};
            std::push_heap(best.begin(), best.end());
        }
    };

    // Best-bin-first: a min-heap of (lower-bound distance, node).
    using Entry = std::pair<float, std::int32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
    open.push({0.0f, 0});
    unsigned checked = 0;

    while (!open.empty()) {
        const auto [bound, idx] = open.top();
        open.pop();
        if (bound >= worst())
            continue;
        std::int32_t cur = idx;
        float cur_bound = bound;
        // Descend to a leaf, queueing the far sides.
        while (!nodes_[static_cast<std::size_t>(cur)].isLeaf()) {
            const KdNode &node = nodes_[static_cast<std::size_t>(cur)];
            const float diff =
                query[node.axis] - node.split;
            const std::int32_t near = diff < 0 ? node.left : node.right;
            const std::int32_t far = diff < 0 ? node.right : node.left;
            const float far_bound =
                std::max(cur_bound, diff * diff);
            if (far_bound < worst())
                open.push({far_bound, far});
            cur = near;
        }
        const KdNode &leaf = nodes_[static_cast<std::size_t>(cur)];
        for (std::uint32_t i = 0; i < leaf.count; ++i) {
            const std::uint32_t pt = pointIndex_[leaf.first + i];
            offer(pt, pointDist2(query, (*points_)[pt], dim));
        }
        checked += leaf.count;
        if (max_checks != 0 && checked >= max_checks)
            break;
    }

    std::sort_heap(best.begin(), best.end());
    return best;
}

std::vector<Neighbor>
KdTree::radiusSearch(const float *query, float radius2) const
{
    std::vector<Neighbor> out;
    if (nodes_.empty())
        return out;
    const unsigned dim = points_->dim();

    // Depth-first with split-plane pruning: a subtree is skipped when
    // the query's squared distance to the splitting plane exceeds the
    // radius on the far side.
    struct Frame
    {
        std::int32_t node;
        float bound;
    };
    std::vector<Frame> stack{{0, 0.0f}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.bound > radius2)
            continue;
        const KdNode &node = nodes_[static_cast<std::size_t>(f.node)];
        if (node.isLeaf()) {
            for (std::uint32_t i = 0; i < node.count; ++i) {
                const std::uint32_t pt = pointIndex_[node.first + i];
                const float d2 = pointDist2(query, (*points_)[pt], dim);
                if (d2 <= radius2)
                    out.push_back({pt, d2});
            }
            continue;
        }
        const float diff = query[node.axis] - node.split;
        const std::int32_t near = diff < 0 ? node.left : node.right;
        const std::int32_t far = diff < 0 ? node.right : node.left;
        stack.push_back({far, diff * diff});
        stack.push_back({near, f.bound});
    }
    std::sort(out.begin(), out.end());
    return out;
}

unsigned
KdTree::depth() const
{
    return nodes_.empty() ? 0 : depthFrom(0);
}

unsigned
KdTree::depthFrom(std::int32_t idx) const
{
    const KdNode &node = nodes_[static_cast<std::size_t>(idx)];
    if (node.isLeaf())
        return 1;
    return 1 + std::max(depthFrom(node.left), depthFrom(node.right));
}

bool
KdTree::validate() const
{
    if (nodes_.empty())
        return pointIndex_.empty();

    // Every point appears exactly once across leaves, and every node
    // is reached at most once (no cycles, no shared subtrees), through
    // in-range child indices only.
    std::vector<bool> seen(points_->size(), false);
    std::vector<bool> reached(nodes_.size(), false);
    std::vector<std::int32_t> stack{0};
    while (!stack.empty()) {
        const std::int32_t idx = stack.back();
        stack.pop_back();
        if (idx < 0 || static_cast<std::size_t>(idx) >= nodes_.size() ||
            reached[static_cast<std::size_t>(idx)]) {
            return false;
        }
        reached[static_cast<std::size_t>(idx)] = true;
        const KdNode &node = nodes_[static_cast<std::size_t>(idx)];
        if (node.isLeaf()) {
            if (node.first > pointIndex_.size() ||
                node.count > pointIndex_.size() - node.first) {
                return false;
            }
            for (std::uint32_t i = 0; i < node.count; ++i) {
                const std::uint32_t pt = pointIndex_[node.first + i];
                if (pt >= seen.size() || seen[pt])
                    return false;
                seen[pt] = true;
            }
            continue;
        }
        // Search reads the query's coordinate on the split axis.
        if (static_cast<unsigned>(node.axis) >= points_->dim())
            return false;
        stack.push_back(node.left);
        stack.push_back(node.right);
    }
    for (const bool s : seen) {
        if (!s)
            return false;
    }
    return true;
}

} // namespace hsu

namespace hsu
{

KdTree
KdTree::fromParts(const PointSet &points, std::vector<KdNode> nodes,
                  std::vector<std::uint32_t> point_index)
{
    KdTree tree;
    tree.points_ = &points;
    tree.nodes_ = std::move(nodes);
    tree.pointIndex_ = std::move(point_index);
    return tree;
}

} // namespace hsu
