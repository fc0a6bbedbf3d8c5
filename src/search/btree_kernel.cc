#include "search/btree_kernel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu
{

BtreeKernel::BtreeKernel(const BTree &tree)
    : tree_(tree),
      // Each node gets a fixed-size slot: up to order-1 u32 separators
      // (1020B for order 256), order u32 children, and leaf key/value
      // pairs. Fixed slots keep addressing trivial, as Rodinia does.
      sepLayout_(alloc_, tree.nodes().size(),
                 ((tree.order() - 1) * 4 + 127) / 128 * 128, 128),
      childLayout_(alloc_, tree.nodes().size(),
                   (tree.order() * 4 + 127) / 128 * 128, 128),
      leafLayout_(alloc_, tree.nodes().size(),
                  ((tree.order() - 1) * 8 + 127) / 128 * 128, 128)
{
    queryBase_ = alloc_.allocate(1u << 20, 128);
    resultBase_ = alloc_.allocate(1u << 20, 128);
}

BtreeEmit
BtreeKernel::emit(const std::vector<std::uint32_t> &keys) const
{
    // Rodinia's findK assigns a thread block per query and scans each
    // node's separators with all threads in parallel; we model the
    // dominant warp: one warp per query, lanes striding the separator
    // array. Each internal-node scan is one semantic KeyCompareBatch;
    // the lowering picks the load+compare loop or KEY_COMPARE.
    BtreeEmit out;
    out.results.resize(keys.size());
    const auto &nodes = tree_.nodes();
    out.sem.warps.reserve(keys.size());

    for (std::size_t q = 0; q < keys.size(); ++q) {
        out.sem.warps.emplace_back();
        SemBuilder sb(out.sem.warps.back());
        const std::uint32_t key = keys[q];

        // Kernel prologue: load the query key, compute node offsets,
        // initialize the output record (non-offloadable overhead).
        sb.loadPattern(queryBase_ + q * 4, 0, 4, 1u);
        sb.alu(12);
        sb.shared(6);

        std::int32_t cur = tree_.root();
        while (!nodes[static_cast<std::size_t>(cur)].leaf) {
            const BTreeNode &node = nodes[static_cast<std::size_t>(cur)];
            const auto nkeys = static_cast<unsigned>(node.keys.size());
            out.keyCompares += nkeys;

            sb.keyCompareScan(
                sepLayout_.at(static_cast<std::uint64_t>(cur)), nkeys);

            // Fetch the chosen child pointer.
            const unsigned slot = BTree::childSlot(node, key);
            sb.loadPattern(childLayout_.at(
                               static_cast<std::uint64_t>(cur)) +
                               slot * 4ull,
                           0, 4, 1u);
            sb.alu(2);
            cur = node.children[slot];
        }

        // Leaf probe: parallel scan over keys, then the value fetch.
        // Identical in both variants (not offloaded).
        const BTreeNode &leaf = nodes[static_cast<std::size_t>(cur)];
        const auto nkeys = static_cast<unsigned>(leaf.keys.size());
        const std::uint64_t la =
            leafLayout_.at(static_cast<std::uint64_t>(cur));
        const unsigned chunks =
            std::max(1u, (nkeys + kWarpSize - 1) / kWarpSize);
        std::vector<VirtToken> toks;
        for (unsigned c = 0; c < chunks; ++c) {
            toks.push_back(
                sb.loadPattern(la + c * kWarpSize * 4ull, 4, 4));
            sb.alu(2);
        }
        sb.aluConsuming(6, kFullMask, toks);
        sb.loadPattern(la + 4096, 0, 4, 1u); // matched value
        // Output record assembly (Rodinia writes back per block).
        sb.alu(8);
        sb.shared(4);
        sb.storePattern(resultBase_ + q * 4, 0, 4, 1u);

        const auto it =
            std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
        if (it != leaf.keys.end() && *it == key) {
            out.results[q] = leaf.values[static_cast<std::size_t>(
                it - leaf.keys.begin())];
        }
    }
    return out;
}

} // namespace hsu
