/**
 * @file
 * RTIndeX re-implementation (Section VI-G of the paper).
 *
 * RTIndeX (Henneberg & Schuhknecht, VLDB'23) indexes integer keys with
 * the GPU RT unit by representing each key as a triangle primitive
 * (3x3 floats = 288 bits per 32-bit key) and casting rays at lookup
 * positions. The paper re-implements it over the same LBVH used for
 * the HSU evaluation and compares:
 *
 *  - the baseline RT unit form: triangle leaves, RAY_INTERSECT ray-tri
 *    tests at the leaves, and
 *  - the HSU form: keys stored natively (4 bytes), leaves probed with
 *    KEY_COMPARE — a 9:1 leaf memory advantage.
 *
 * Both variants traverse the same internal BVH with ray-box tests on
 * the unit. The paper reports a 36.6% lookup speedup for the native
 * form at 163,840 lookups.
 */

#ifndef HSU_SEARCH_RTINDEX_HH
#define HSU_SEARCH_RTINDEX_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "search/layout.hh"
#include "sim/ir.hh"
#include "structures/lbvh.hh"

namespace hsu
{

/**
 * Which key representation the index probes. Unlike the other kernels,
 * this is a DATA-STRUCTURE choice, not a lowering: both forms run
 * their box and leaf tests on the RT unit (the experiment isolates the
 * leaf representation on RT hardware), so every semantic op emitted
 * here is unit-resident and lowers identically under every Lowering.
 */
enum class RtindexForm : std::uint8_t
{
    Tri,    //!< RTIndeX triangle primitives, ray-tri leaf tests
    Native, //!< native 4B keys, KEY_COMPARE leaf probes
};

/** Emission artifacts: functional results + the semantic trace. */
struct RtindexEmit
{
    SemKernelTrace sem;
    std::vector<bool> found;
    std::uint64_t leafBytesPerKey = 0; //!< 36 (triangle) or 4 (native)
};

/** RTIndeX-style key index over the LBVH. */
class RtindexKernel
{
  public:
    /** Build the index over sorted unique @p keys. */
    explicit RtindexKernel(std::vector<std::uint32_t> keys);

    /** Look up @p probes (32 per warp) against the @p form index and
     *  emit semantic traces. */
    RtindexEmit emit(const std::vector<std::uint32_t> &probes,
                     RtindexForm form) const;

    const Lbvh &bvh() const { return bvh_; }

  public:
    /** Keys per native-index leaf (KEY_COMPARE covers them in one
     *  instruction; the triangle index stays one key per primitive). */
    static constexpr unsigned kKeysPerLeaf = 3;

  private:
    std::vector<std::uint32_t> keys_;
    /**
     * Native-key index: keys embed on a line, so the BVH is tight and
     * adjacent keys stay adjacent in memory.
     */
    Lbvh bvh_;
    /**
     * Triangle-key index: RTIndeX maps each 32-bit key into 3-D by
     * splitting its bits across the axes, which "no longer aligns
     * adjacent keys in a direct line in space" (Section VI-G) — the
     * BVH over these positions is looser and leaf accesses lose
     * spatial locality.
     */
    Lbvh triBvh_;
    AddressAllocator alloc_;
    RecordArrayLayout nodeLayout_;    //!< 64B box nodes (native index)
    RecordArrayLayout triNodeLayout_; //!< 64B box nodes (tri index)
    RecordArrayLayout triLeafLayout_; //!< 48B triangle nodes
    RecordArrayLayout keyLeafLayout_; //!< 4B native keys
    std::uint64_t queryBase_ = 0;
    std::uint64_t resultBase_ = 0;
};

} // namespace hsu

#endif // HSU_SEARCH_RTINDEX_HH
