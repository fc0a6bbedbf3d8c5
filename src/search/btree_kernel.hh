/**
 * @file
 * B+tree lookup kernel (Rodinia-style, thread per query).
 *
 * Each thread walks its key from the root to a leaf. At internal nodes
 * the baseline linearly scans separator keys (the Rodinia kernel's
 * `while (key > node->keys[i]) i++` loop); the HSU variant issues
 * KEY_COMPARE instructions covering 36 separators each and derives the
 * child slot from the returned bit vector's popcount. Leaf probing is
 * identical in both variants (not offloaded).
 */

#ifndef HSU_SEARCH_BTREE_KERNEL_HH
#define HSU_SEARCH_BTREE_KERNEL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "search/layout.hh"
#include "sim/ir.hh"
#include "structures/btree.hh"

namespace hsu
{

/** Emission artifacts: functional results + the semantic trace. */
struct BtreeEmit
{
    SemKernelTrace sem;
    std::vector<std::optional<std::uint32_t>> results;
    std::uint64_t keyCompares = 0; //!< separator comparisons executed
};

/** The lookup kernel bound to a prebuilt B+tree. */
class BtreeKernel
{
  public:
    explicit BtreeKernel(const BTree &tree);

    /** Look up all @p keys (32 per warp) and emit semantic traces. */
    BtreeEmit emit(const std::vector<std::uint32_t> &keys) const;

  private:
    const BTree &tree_;
    AddressAllocator alloc_;
    RecordArrayLayout sepLayout_;   //!< per-node separator arrays
    RecordArrayLayout childLayout_; //!< per-node child-pointer arrays
    RecordArrayLayout leafLayout_;  //!< per-node key+value arrays
    std::uint64_t queryBase_ = 0;
    std::uint64_t resultBase_ = 0;
};

} // namespace hsu

#endif // HSU_SEARCH_BTREE_KERNEL_HH
