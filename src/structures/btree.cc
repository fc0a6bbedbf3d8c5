#include "structures/btree.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu
{

BTree
BTree::build(std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs,
             unsigned order, double leaf_fill)
{
    hsu_assert(order >= 3, "B+tree order must be at least 3");
    hsu_assert(leaf_fill > 0.0 && leaf_fill <= 1.0, "bad leaf fill");

    BTree tree;
    tree.order_ = order;

    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end(),
                            [](const auto &a, const auto &b) {
                                return a.first == b.first;
                            }),
                pairs.end());

    if (pairs.empty()) {
        BTreeNode leaf;
        leaf.leaf = true;
        tree.nodes_.push_back(std::move(leaf));
        tree.root_ = 0;
        return tree;
    }

    // Pack leaves at the target fill factor.
    const unsigned leaf_cap = std::max(
        1u, static_cast<unsigned>((order - 1) * leaf_fill));
    std::vector<std::int32_t> level;   // node ids of the current level
    std::vector<std::uint32_t> lowest; // smallest key under each node
    for (std::size_t i = 0; i < pairs.size(); i += leaf_cap) {
        BTreeNode leaf;
        leaf.leaf = true;
        const std::size_t end = std::min(pairs.size(), i + leaf_cap);
        for (std::size_t j = i; j < end; ++j) {
            leaf.keys.push_back(pairs[j].first);
            leaf.values.push_back(pairs[j].second);
        }
        level.push_back(static_cast<std::int32_t>(tree.nodes_.size()));
        lowest.push_back(leaf.keys.front());
        tree.nodes_.push_back(std::move(leaf));
    }

    // Build internal levels until a single root remains.
    while (level.size() > 1) {
        std::vector<std::int32_t> next;
        std::vector<std::uint32_t> next_lowest;
        const unsigned fanout = order;
        for (std::size_t i = 0; i < level.size(); i += fanout) {
            BTreeNode node;
            const std::size_t end = std::min(level.size(), i + fanout);
            for (std::size_t j = i; j < end; ++j) {
                node.children.push_back(level[j]);
                if (j > i)
                    node.keys.push_back(lowest[j]);
            }
            next.push_back(static_cast<std::int32_t>(
                tree.nodes_.size()));
            next_lowest.push_back(lowest[i]);
            tree.nodes_.push_back(std::move(node));
        }
        level = std::move(next);
        lowest = std::move(next_lowest);
    }
    tree.root_ = level.front();
    return tree;
}

unsigned
BTree::childSlot(const BTreeNode &node, std::uint32_t key)
{
    // Number of separators <= key. Separator semantics match the
    // KEY_COMPARE bit vector: bit i is 1 iff key >= keys[i].
    unsigned slot = 0;
    while (slot < node.keys.size() && key >= node.keys[slot])
        ++slot;
    return slot;
}

std::optional<std::uint32_t>
BTree::lookup(std::uint32_t key) const
{
    if (root_ < 0)
        return std::nullopt;
    const BTreeNode *node = &nodes_[static_cast<std::size_t>(root_)];
    while (!node->leaf) {
        const unsigned slot = childSlot(*node, key);
        node = &nodes_[static_cast<std::size_t>(node->children[slot])];
    }
    const auto it =
        std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it == node->keys.end() || *it != key)
        return std::nullopt;
    return node->values[static_cast<std::size_t>(
        it - node->keys.begin())];
}

namespace
{

/** A node is full when it holds order-1 keys. */
bool
nodeFull(const BTreeNode &node, unsigned order)
{
    return node.keys.size() >= order - 1;
}

} // namespace

void
BTree::insert(std::uint32_t key, std::uint32_t value)
{
    hsu_assert(root_ >= 0, "insert into uninitialized tree");

    // Preemptive split on the way down (single pass): splitting a
    // child of a non-full parent never cascades upward.
    auto split_child = [this](std::int32_t parent_idx, unsigned slot) {
        const auto right_idx =
            static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back(); // may invalidate references: reindex!
        BTreeNode &child = nodes_[static_cast<std::size_t>(
            nodes_[static_cast<std::size_t>(parent_idx)]
                .children[slot])];
        BTreeNode &right = nodes_.back();
        right.leaf = child.leaf;
        const std::size_t mid = child.keys.size() / 2;
        std::uint32_t separator;
        if (child.leaf) {
            // B+tree: the separator is COPIED up; the right leaf keeps
            // its first key.
            right.keys.assign(child.keys.begin() +
                                  static_cast<std::ptrdiff_t>(mid),
                              child.keys.end());
            right.values.assign(child.values.begin() +
                                    static_cast<std::ptrdiff_t>(mid),
                                child.values.end());
            child.keys.resize(mid);
            child.values.resize(mid);
            separator = right.keys.front();
        } else {
            // Internal: the middle key MOVES up.
            separator = child.keys[mid];
            right.keys.assign(child.keys.begin() +
                                  static_cast<std::ptrdiff_t>(mid) + 1,
                              child.keys.end());
            right.children.assign(
                child.children.begin() +
                    static_cast<std::ptrdiff_t>(mid) + 1,
                child.children.end());
            child.keys.resize(mid);
            child.children.resize(mid + 1);
        }
        BTreeNode &parent =
            nodes_[static_cast<std::size_t>(parent_idx)];
        parent.keys.insert(parent.keys.begin() + slot, separator);
        parent.children.insert(parent.children.begin() + slot + 1,
                               right_idx);
    };

    // Grow the root first if it is full.
    if (nodeFull(nodes_[static_cast<std::size_t>(root_)], order_)) {
        const auto new_root =
            static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
        nodes_.back().leaf = false;
        nodes_.back().children.push_back(root_);
        root_ = new_root;
        split_child(root_, 0);
    }

    std::int32_t cur = root_;
    while (!nodes_[static_cast<std::size_t>(cur)].leaf) {
        unsigned slot =
            childSlot(nodes_[static_cast<std::size_t>(cur)], key);
        const std::int32_t child =
            nodes_[static_cast<std::size_t>(cur)].children[slot];
        if (nodeFull(nodes_[static_cast<std::size_t>(child)], order_)) {
            split_child(cur, slot);
            slot = childSlot(nodes_[static_cast<std::size_t>(cur)],
                             key);
        }
        cur = nodes_[static_cast<std::size_t>(cur)].children[slot];
    }

    BTreeNode &leaf = nodes_[static_cast<std::size_t>(cur)];
    const auto it =
        std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
    const auto pos = it - leaf.keys.begin();
    if (it != leaf.keys.end() && *it == key) {
        leaf.values[static_cast<std::size_t>(pos)] = value;
        return;
    }
    leaf.keys.insert(it, key);
    leaf.values.insert(leaf.values.begin() + pos, value);
}

bool
BTree::erase(std::uint32_t key)
{
    if (root_ < 0)
        return false;
    BTreeNode *node = &nodes_[static_cast<std::size_t>(root_)];
    while (!node->leaf) {
        node = &nodes_[static_cast<std::size_t>(
            node->children[childSlot(*node, key)])];
    }
    const auto it =
        std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it == node->keys.end() || *it != key)
        return false;
    const auto pos = it - node->keys.begin();
    node->keys.erase(it);
    node->values.erase(node->values.begin() + pos);
    return true;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
BTree::range(std::uint32_t lo, std::uint32_t hi) const
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    if (root_ < 0 || lo > hi)
        return out;

    // DFS visiting only children whose key range intersects [lo, hi],
    // pushed in reverse so results stream out in ascending key order.
    std::vector<std::int32_t> work{root_};
    while (!work.empty()) {
        const std::int32_t idx = work.back();
        work.pop_back();
        const BTreeNode &node = nodes_[static_cast<std::size_t>(idx)];
        if (node.leaf) {
            const auto first = std::lower_bound(node.keys.begin(),
                                                node.keys.end(), lo);
            for (auto it = first;
                 it != node.keys.end() && *it <= hi; ++it) {
                out.emplace_back(
                    *it, node.values[static_cast<std::size_t>(
                             it - node.keys.begin())]);
            }
            continue;
        }
        const unsigned first = childSlot(node, lo);
        const unsigned last = childSlot(node, hi);
        for (unsigned c = last + 1; c-- > first;)
            work.push_back(node.children[c]);
    }
    return out;
}

std::size_t
BTree::size() const
{
    std::size_t n = 0;
    for (const auto &node : nodes_) {
        if (node.leaf)
            n += node.keys.size();
    }
    return n;
}

unsigned
BTree::height() const
{
    if (root_ < 0)
        return 0;
    unsigned h = 1;
    const BTreeNode *node = &nodes_[static_cast<std::size_t>(root_)];
    while (!node->leaf) {
        node = &nodes_[static_cast<std::size_t>(node->children[0])];
        ++h;
    }
    return h;
}

bool
BTree::validate() const
{
    struct Item
    {
        std::int32_t node;
        unsigned depth;
    };
    std::vector<Item> stack{{root_, 1}};
    std::vector<bool> reached(nodes_.size(), false);
    int leaf_depth = -1;
    std::uint32_t last_leaf_key = 0;
    bool have_last = false;

    // Depth-first, children in order, so leaf keys stream in sorted
    // order if the tree is correct. Every node is reached at most once
    // (no cycles, no shared subtrees), through in-range indices only.
    while (!stack.empty()) {
        const Item item = stack.back();
        stack.pop_back();
        if (item.node < 0 ||
            static_cast<std::size_t>(item.node) >= nodes_.size() ||
            reached[static_cast<std::size_t>(item.node)]) {
            return false;
        }
        reached[static_cast<std::size_t>(item.node)] = true;
        const BTreeNode &node =
            nodes_[static_cast<std::size_t>(item.node)];

        if (!std::is_sorted(node.keys.begin(), node.keys.end()))
            return false;

        if (node.leaf) {
            if (leaf_depth < 0)
                leaf_depth = static_cast<int>(item.depth);
            if (static_cast<int>(item.depth) != leaf_depth)
                return false;
            if (node.keys.size() != node.values.size())
                return false;
            for (const auto key : node.keys) {
                if (have_last && key <= last_leaf_key)
                    return false;
                last_leaf_key = key;
                have_last = true;
            }
            continue;
        }

        if (node.children.size() != node.keys.size() + 1)
            return false;
        if (node.children.size() > order_)
            return false;
        // Push in reverse so the leftmost child is visited first.
        for (auto it = node.children.rbegin();
             it != node.children.rend(); ++it) {
            stack.push_back({*it, item.depth + 1});
        }
    }
    return true;
}

} // namespace hsu

namespace hsu
{

BTree
BTree::fromParts(std::vector<BTreeNode> nodes, std::int32_t root,
                 unsigned order)
{
    BTree tree;
    tree.nodes_ = std::move(nodes);
    tree.root_ = root;
    tree.order_ = order;
    return tree;
}

} // namespace hsu
