#include "structures/serialize.hh"

#include <algorithm>
#include <istream>
#include <ostream>

namespace hsu
{

namespace
{

constexpr std::uint32_t kMagic = 0x48535531; // "HSU1"

enum class BlobKind : std::uint32_t
{
    Lbvh = 1,
    KdTree = 2,
    Graph = 3,
    BTree = 4,
};

void
writeU32(std::ostream &os, std::uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
void
writeVec(std::ostream &os, const std::vector<T> &v)
{
    writeU64(os, v.size());
    os.write(reinterpret_cast<const char *>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

bool
readU32(std::istream &is, std::uint32_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return is.good();
}

bool
readU64(std::istream &is, std::uint64_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return is.good();
}

template <typename T>
bool
readVec(std::istream &is, std::vector<T> &v,
        std::uint64_t max_elems = 1ull << 32)
{
    std::uint64_t n = 0;
    if (!readU64(is, n) || n > max_elems)
        return false;
    // The length is untrusted: grow the vector one bounded chunk at a
    // time as its bytes arrive, so a header that claims more than the
    // stream holds fails after at most one chunk instead of allocating
    // its claim up front.
    constexpr std::size_t kChunk = std::max<std::size_t>(
        1, (std::size_t{1} << 20) / sizeof(T));
    v.clear();
    while (v.size() < n) {
        const std::size_t have = v.size();
        const auto take = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - have, kChunk));
        v.resize(have + take);
        is.read(reinterpret_cast<char *>(v.data() + have),
                static_cast<std::streamsize>(take * sizeof(T)));
        if (!is.good())
            return false;
    }
    return true;
}

bool
readHeader(std::istream &is, BlobKind expected)
{
    std::uint32_t magic = 0, kind = 0;
    if (!readU32(is, magic) || magic != kMagic)
        return false;
    if (!readU32(is, kind) ||
        kind != static_cast<std::uint32_t>(expected)) {
        return false;
    }
    return true;
}

void
writeHeader(std::ostream &os, BlobKind kind)
{
    writeU32(os, kMagic);
    writeU32(os, static_cast<std::uint32_t>(kind));
}

} // namespace

void
saveLbvh(std::ostream &os, const Lbvh &bvh)
{
    writeHeader(os, BlobKind::Lbvh);
    writeU32(os, static_cast<std::uint32_t>(bvh.root()));
    writeU64(os, bvh.numLeaves());
    writeVec(os, bvh.nodes());
}

std::optional<Lbvh>
loadLbvh(std::istream &is)
{
    if (!readHeader(is, BlobKind::Lbvh))
        return std::nullopt;
    std::uint32_t root = 0;
    std::uint64_t leaves = 0;
    std::vector<LbvhNode> nodes;
    if (!readU32(is, root) || !readU64(is, leaves) ||
        !readVec(is, nodes)) {
        return std::nullopt;
    }
    Lbvh bvh = Lbvh::fromParts(std::move(nodes),
                               static_cast<std::int32_t>(root),
                               leaves);
    if (!bvh.validate())
        return std::nullopt;
    return bvh;
}

void
saveKdTree(std::ostream &os, const KdTree &tree)
{
    writeHeader(os, BlobKind::KdTree);
    writeU64(os, tree.points().size());
    writeU32(os, tree.points().dim());
    writeVec(os, tree.nodes());
    writeVec(os, tree.pointIndex());
}

std::optional<KdTree>
loadKdTree(std::istream &is, const PointSet &points)
{
    if (!readHeader(is, BlobKind::KdTree))
        return std::nullopt;
    std::uint64_t n = 0;
    std::uint32_t dim = 0;
    if (!readU64(is, n) || !readU32(is, dim))
        return std::nullopt;
    if (n != points.size() || dim != points.dim())
        return std::nullopt;
    std::vector<KdNode> nodes;
    std::vector<std::uint32_t> index;
    if (!readVec(is, nodes) || !readVec(is, index))
        return std::nullopt;
    KdTree tree = KdTree::fromParts(points, std::move(nodes),
                                    std::move(index));
    if (!tree.validate())
        return std::nullopt;
    return tree;
}

void
saveGraph(std::ostream &os, const HnswGraph &graph)
{
    writeHeader(os, BlobKind::Graph);
    writeU64(os, graph.points().size());
    writeU32(os, graph.points().dim());
    writeU32(os, graph.metric() == Metric::Angular ? 1 : 0);
    writeU32(os, graph.entryPoint());
    writeU32(os, graph.numLayers());
    writeU32(os, graph.layerDegree(0));
    writeU32(os, graph.numLayers() > 1 ? graph.layerDegree(1)
                                       : graph.layerDegree(0));
    for (const auto &layer : graph.layers()) {
        writeVec(os, layer.members);
        writeVec(os, layer.adjacency);
    }
}

std::optional<HnswGraph>
loadGraph(std::istream &is, const PointSet &points)
{
    if (!readHeader(is, BlobKind::Graph))
        return std::nullopt;
    std::uint64_t n = 0;
    std::uint32_t dim = 0, metric_raw = 0, entry = 0, num_layers = 0;
    std::uint32_t deg0 = 0, deg = 0;
    if (!readU64(is, n) || !readU32(is, dim) ||
        !readU32(is, metric_raw) || !readU32(is, entry) ||
        !readU32(is, num_layers) || !readU32(is, deg0) ||
        !readU32(is, deg)) {
        return std::nullopt;
    }
    if (n != points.size() || dim != points.dim() || num_layers == 0)
        return std::nullopt;

    HnswParams params;
    params.degreeLayer0 = deg0;
    params.degree = deg;
    // Grown as layers arrive: num_layers is untrusted.
    std::vector<HnswGraph::Layer> layers;
    for (std::uint32_t l = 0; l < num_layers; ++l) {
        HnswGraph::Layer &layer = layers.emplace_back();
        if (!readVec(is, layer.members) ||
            !readVec(is, layer.adjacency)) {
            return std::nullopt;
        }
    }
    HnswGraph g = HnswGraph::fromParts(
        points, metric_raw ? Metric::Angular : Metric::Euclidean,
        params, std::move(layers), entry);
    if (!g.validate())
        return std::nullopt;
    return g;
}

void
saveBTree(std::ostream &os, const BTree &tree)
{
    writeHeader(os, BlobKind::BTree);
    writeU32(os, static_cast<std::uint32_t>(tree.root()));
    writeU32(os, tree.order());
    writeU64(os, tree.nodes().size());
    for (const auto &node : tree.nodes()) {
        writeU32(os, node.leaf ? 1 : 0);
        writeVec(os, node.keys);
        writeVec(os, node.children);
        writeVec(os, node.values);
    }
}

std::optional<BTree>
loadBTree(std::istream &is)
{
    if (!readHeader(is, BlobKind::BTree))
        return std::nullopt;
    std::uint32_t root = 0, order = 0;
    std::uint64_t count = 0;
    if (!readU32(is, root) || !readU32(is, order) ||
        !readU64(is, count) || order < 3) {
        return std::nullopt;
    }
    // Grown as nodes arrive: count is untrusted.
    std::vector<BTreeNode> nodes;
    for (std::uint64_t i = 0; i < count; ++i) {
        BTreeNode &node = nodes.emplace_back();
        std::uint32_t leaf = 0;
        if (!readU32(is, leaf) || !readVec(is, node.keys) ||
            !readVec(is, node.children) || !readVec(is, node.values)) {
            return std::nullopt;
        }
        node.leaf = leaf != 0;
    }
    BTree tree = BTree::fromParts(std::move(nodes),
                                  static_cast<std::int32_t>(root),
                                  order);
    if (!tree.validate())
        return std::nullopt;
    return tree;
}

} // namespace hsu
