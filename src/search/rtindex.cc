#include "search/rtindex.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/lower.hh"

namespace hsu
{

namespace
{

/** Native embedding: keys on a line — adjacent keys stay adjacent. */
Vec3
keyPos(std::uint32_t key)
{
    return {static_cast<float>(key) * (1.0f / 16.0f), 0.0f, 0.0f};
}

/** RTIndeX triangle embedding: the 32-bit key's bits are split across
 *  the three axes (low 10 -> x, next 10 -> y, rest -> z), so adjacent
 *  keys scatter through space (Section VI-G). */
Vec3
triKeyPos(std::uint32_t key)
{
    return {static_cast<float>(key & 0x3ff),
            static_cast<float>((key >> 10) & 0x3ff),
            static_cast<float>(key >> 20)};
}

} // namespace

RtindexKernel::RtindexKernel(std::vector<std::uint32_t> keys)
    : keys_(std::move(keys))
{
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());

    // Native index: KEY_COMPARE probes up to 36 separators per
    // instruction, so leaves can hold a whole key *range* (8 keys) —
    // something the one-key-per-triangle representation cannot
    // express. The tree is both shallower and denser.
    std::vector<Aabb> boxes;
    boxes.reserve((keys_.size() + kKeysPerLeaf - 1) / kKeysPerLeaf);
    for (std::size_t g = 0; g < keys_.size(); g += kKeysPerLeaf) {
        Aabb b;
        const std::size_t end =
            std::min(keys_.size(), g + kKeysPerLeaf);
        for (std::size_t i = g; i < end; ++i)
            b.expand(Aabb::centered(keyPos(keys_[i]), 0.02f));
        boxes.push_back(b);
    }
    bvh_ = Lbvh::buildFromBoxes(boxes);

    std::vector<Aabb> tri_boxes;
    tri_boxes.reserve(keys_.size());
    for (const auto k : keys_)
        tri_boxes.push_back(Aabb::centered(triKeyPos(k), 0.02f));
    triBvh_ = Lbvh::buildFromBoxes(tri_boxes);

    nodeLayout_ = RecordArrayLayout(alloc_, bvh_.size(), 64, 64);
    triNodeLayout_ = RecordArrayLayout(alloc_, triBvh_.size(), 64, 64);
    triLeafLayout_ = RecordArrayLayout(alloc_, keys_.size(), 48, 16);
    keyLeafLayout_ = RecordArrayLayout(
        alloc_, (keys_.size() + kKeysPerLeaf - 1) / kKeysPerLeaf,
        kKeysPerLeaf * 4, 4);
    queryBase_ = alloc_.allocate(1u << 22, 128);
    resultBase_ = alloc_.allocate(1u << 22, 128);
}

RtindexEmit
RtindexKernel::emit(const std::vector<std::uint32_t> &probes,
                    RtindexForm form) const
{
    RtindexEmit out;
    out.found.resize(probes.size(), false);
    const bool tri_form = form == RtindexForm::Tri;
    out.leafBytesPerKey = tri_form ? 36 : 4;
    const Lbvh &index = tri_form ? triBvh_ : bvh_;
    const RecordArrayLayout &node_layout =
        tri_form ? triNodeLayout_ : nodeLayout_;
    const auto &nodes = index.nodes();

    const std::size_t num_warps =
        (probes.size() + kWarpSize - 1) / kWarpSize;
    out.sem.warps.reserve(num_warps);

    for (std::size_t w = 0; w < num_warps; ++w) {
        out.sem.warps.emplace_back();
        SemBuilder sb(out.sem.warps.back());

        struct Lane
        {
            std::vector<std::int32_t> stack;
            std::uint32_t key = 0;
        };
        Lane lanes[kWarpSize];
        std::uint32_t alive = 0;
        for (unsigned l = 0; l < kWarpSize; ++l) {
            const std::size_t q = w * kWarpSize + l;
            if (q >= probes.size())
                continue;
            lanes[l].key = probes[q];
            if (index.size() > 0)
                lanes[l].stack.push_back(index.root());
            alive |= 1u << l;
        }

        // Load probe keys and derive ray origins.
        sb.loadPattern(queryBase_ + w * kWarpSize * 4, 4, 4, alive);
        sb.alu(6, alive); // key -> ray origin/direction constants
        sb.shared(2, alive);

        for (;;) {
            std::uint32_t m_int = 0, m_leaf = 0;
            std::int32_t curn[kWarpSize];
            for (unsigned l = 0; l < kWarpSize; ++l) {
                Lane &lane = lanes[l];
                if (lane.stack.empty())
                    continue;
                curn[l] = lane.stack.back();
                lane.stack.pop_back();
                if (nodes[static_cast<std::size_t>(curn[l])].isLeaf())
                    m_leaf |= 1u << l;
                else
                    m_int |= 1u << l;
            }
            const std::uint32_t m_any = m_int | m_leaf;
            if (!m_any)
                break;
            sb.shared(1, m_any);

            if (m_int) {
                // Box tests run on the unit in BOTH forms: the
                // comparison isolates the leaf representation.
                std::uint64_t addrs[kWarpSize] = {};
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (m_int & (1u << l)) {
                        addrs[l] = node_layout.at(
                            static_cast<std::uint64_t>(curn[l]));
                    }
                }
                const VirtToken tok =
                    sb.boxTest(addrs, m_int, rtindexBoxShape());
                sb.alu(3, m_int, {tok});
                sb.shared(2, m_int);

                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_int & (1u << l)))
                        continue;
                    Lane &lane = lanes[l];
                    const LbvhNode &node =
                        nodes[static_cast<std::size_t>(curn[l])];
                    const Vec3 q = tri_form ? triKeyPos(lane.key)
                                            : keyPos(lane.key);
                    for (const std::int32_t kid :
                         {node.right, node.left}) {
                        if (nodes[static_cast<std::size_t>(kid)]
                                .bounds.contains(q)) {
                            lane.stack.push_back(kid);
                        }
                    }
                }
            }

            if (m_leaf) {
                std::uint64_t addrs[kWarpSize] = {};
                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_leaf & (1u << l)))
                        continue;
                    const auto prim = static_cast<std::uint64_t>(
                        nodes[static_cast<std::size_t>(curn[l])]
                            .primitive);
                    addrs[l] = tri_form ? triLeafLayout_.at(prim)
                                        : keyLeafLayout_.at(prim);
                }
                VirtToken tok;
                if (tri_form) {
                    // Ray-triangle exact-match test on the unit.
                    tok = sb.triTest(addrs, 48, m_leaf);
                } else {
                    // Native key probe: one KEY_COMPARE covers the
                    // whole leaf's key range.
                    tok = sb.keyCompareProbe(addrs, kKeysPerLeaf * 4,
                                             m_leaf);
                }
                sb.alu(2, m_leaf, {tok});

                for (unsigned l = 0; l < kWarpSize; ++l) {
                    if (!(m_leaf & (1u << l)))
                        continue;
                    const std::size_t q = w * kWarpSize + l;
                    const auto prim = static_cast<std::size_t>(
                        nodes[static_cast<std::size_t>(curn[l])]
                            .primitive);
                    if (tri_form) {
                        if (keys_[prim] == lanes[l].key)
                            out.found[q] = true;
                    } else {
                        const std::size_t g = prim * kKeysPerLeaf;
                        const std::size_t end = std::min(
                            keys_.size(), g + kKeysPerLeaf);
                        for (std::size_t i = g; i < end; ++i) {
                            if (keys_[i] == lanes[l].key)
                                out.found[q] = true;
                        }
                    }
                }
            }
        }
        sb.storePattern(resultBase_ + w * kWarpSize * 4, 4, 4, alive);
    }
    return out;
}

} // namespace hsu
