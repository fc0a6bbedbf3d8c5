/**
 * @file
 * Serialization round-trip tests for every index type, including
 * malformed-stream rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include <sys/resource.h>

#include "../test_util.hh"
#include "structures/serialize.hh"

namespace hsu
{
namespace
{

TEST(Serialize, LbvhRoundTrip)
{
    const PointSet pts = test::randomCloud(300, 3, 81);
    const Lbvh original = Lbvh::buildFromPoints(pts, 0.2f);

    std::stringstream ss;
    saveLbvh(ss, original);
    const auto loaded = loadLbvh(ss);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->validate());
    EXPECT_EQ(loaded->size(), original.size());

    Rng rng(82);
    for (int i = 0; i < 30; ++i) {
        const Vec3 q{rng.uniform(-11, 11), rng.uniform(-11, 11),
                     rng.uniform(-11, 11)};
        EXPECT_EQ(loaded->pointQuery(q), original.pointQuery(q));
    }
}

TEST(Serialize, KdTreeRoundTrip)
{
    const PointSet pts = test::randomCloud(500, 5, 83);
    const KdTree original = KdTree::build(pts, 8);

    std::stringstream ss;
    saveKdTree(ss, original);
    const auto loaded = loadKdTree(ss, pts);
    ASSERT_TRUE(loaded.has_value());

    const PointSet queries = test::randomCloud(20, 5, 84);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto a = original.knn(queries[q], 5);
        const auto b = loaded->knn(queries[q], 5);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].index, b[i].index);
    }
}

TEST(Serialize, KdTreeRejectsWrongPointSet)
{
    const PointSet pts = test::randomCloud(100, 3, 85);
    const KdTree tree = KdTree::build(pts, 8);
    std::stringstream ss;
    saveKdTree(ss, tree);

    const PointSet other = test::randomCloud(101, 3, 86);
    EXPECT_FALSE(loadKdTree(ss, other).has_value());
}

TEST(Serialize, GraphRoundTrip)
{
    const PointSet pts = test::randomCloud(400, 8, 87);
    const HnswGraph original = HnswGraph::build(pts, Metric::Euclidean);

    std::stringstream ss;
    saveGraph(ss, original);
    const auto loaded = loadGraph(ss, pts);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->validate());
    EXPECT_EQ(loaded->numLayers(), original.numLayers());

    const PointSet queries = test::randomCloud(10, 8, 88);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto a = original.knn(queries[q], 5);
        const auto b = loaded->knn(queries[q], 5);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].index, b[i].index);
    }
}

TEST(Serialize, BTreeRoundTripSelfContained)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    Rng rng(89);
    for (int i = 0; i < 5000; ++i) {
        pairs.emplace_back(
            static_cast<std::uint32_t>(rng.nextBounded(1u << 24)),
            static_cast<std::uint32_t>(i));
    }
    const BTree original = BTree::build(pairs, 64);
    std::stringstream ss;
    saveBTree(ss, original);
    const auto loaded = loadBTree(ss);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), original.size());
    for (int i = 0; i < 200; ++i) {
        const auto k =
            static_cast<std::uint32_t>(rng.nextBounded(1u << 24));
        EXPECT_EQ(loaded->lookup(k), original.lookup(k));
    }
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream empty;
    EXPECT_FALSE(loadLbvh(empty).has_value());

    std::stringstream junk("this is not an index");
    EXPECT_FALSE(loadBTree(junk).has_value());

    // Wrong blob kind: a BTree stream fed to the BVH loader.
    const BTree tree = BTree::build({{1, 2}}, 8);
    std::stringstream ss;
    saveBTree(ss, tree);
    EXPECT_FALSE(loadLbvh(ss).has_value());
}

/** Native-endian field writer for hand-made (corrupt) blobs. */
template <typename T>
void
put(std::string &blob, T v)
{
    blob.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Peak resident set size of this process so far, in MiB. */
long
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024;
}

// Lengths in a blob are untrusted: a header that claims far more than
// the stream holds must fail on the missing bytes, not first allocate
// what it claims (here 8 GiB of members, 2^32 layers, 2^40 nodes).
TEST(Serialize, HugeClaimedLengthsFailWithoutAllocating)
{
    const PointSet pts = test::randomCloud(4, 2, 91);
    const long rss_before = peakRssMiB();

    std::string graph;
    put<std::uint32_t>(graph, 0x48535531); // "HSU1"
    put<std::uint32_t>(graph, 3);          // graph blob
    put<std::uint64_t>(graph, pts.size());
    put<std::uint32_t>(graph, pts.dim());
    put<std::uint32_t>(graph, 0);  // metric
    put<std::uint32_t>(graph, 0);  // entry
    put<std::uint32_t>(graph, 1);  // layers
    put<std::uint32_t>(graph, 24); // degree, layer 0
    put<std::uint32_t>(graph, 16); // degree, upper layers
    std::string members = graph;
    put<std::uint64_t>(members, 1ull << 31); // claimed member count
    put<std::uint32_t>(members, 0);          // ...over 4 bytes
    std::stringstream members_in(members);
    EXPECT_FALSE(loadGraph(members_in, pts).has_value());

    std::string layers = graph;
    layers.replace(layers.size() - 12, 4, "\xff\xff\xff\xff");
    std::stringstream layers_in(layers);
    EXPECT_FALSE(loadGraph(layers_in, pts).has_value());

    std::string btree;
    put<std::uint32_t>(btree, 0x48535531);
    put<std::uint32_t>(btree, 4); // B+tree blob
    put<std::uint32_t>(btree, 0); // root
    put<std::uint32_t>(btree, 8); // order
    put<std::uint64_t>(btree, 1ull << 40);
    put<std::uint32_t>(btree, 1);
    std::stringstream btree_in(btree);
    EXPECT_FALSE(loadBTree(btree_in).has_value());

    EXPECT_LT(peakRssMiB() - rss_before, 64) << "a claimed length was "
                                                "allocated up front";
}

/** A graph blob in saveGraph's layout, with @p entry and @p layers in
 *  place of @p g's own. */
std::string
graphBlob(const HnswGraph &g, std::uint32_t entry,
          const std::vector<HnswGraph::Layer> &layers)
{
    std::string blob;
    put<std::uint32_t>(blob, 0x48535531); // "HSU1"
    put<std::uint32_t>(blob, 3);          // graph blob
    put<std::uint64_t>(blob, g.points().size());
    put<std::uint32_t>(blob, g.points().dim());
    put<std::uint32_t>(blob, 0); // Euclidean
    put<std::uint32_t>(blob, entry);
    put<std::uint32_t>(blob, static_cast<std::uint32_t>(layers.size()));
    put<std::uint32_t>(blob, g.layerDegree(0));
    put<std::uint32_t>(blob, g.layerDegree(1));
    for (const HnswGraph::Layer &layer : layers) {
        for (const auto *v : {&layer.members, &layer.adjacency}) {
            put<std::uint64_t>(blob, v->size());
            for (const std::uint32_t x : *v)
                put(blob, x);
        }
    }
    return blob;
}

std::optional<HnswGraph>
loadGraphBlob(const std::string &blob, const PointSet &pts)
{
    std::stringstream in(blob);
    return loadGraph(in, pts);
}

// A cache file whose layer rows do not cover every node, or whose
// entry point is not on the top layer, must be refused: the first read
// past the short adjacency, and a search from an entry point outside
// the point set read out of bounds.
TEST(Serialize, GraphRejectsBadAdjacencySizeAndEntryPoint)
{
    const PointSet pts = test::randomCloud(400, 8, 87);
    const HnswGraph g = HnswGraph::build(pts, Metric::Euclidean);
    ASSERT_GE(g.numLayers(), 2u);
    const std::vector<HnswGraph::Layer> &layers = g.layers();
    ASSERT_TRUE(loadGraphBlob(graphBlob(g, g.entryPoint(), layers), pts)
                    .has_value());

    std::vector<HnswGraph::Layer> short_rows = layers;
    short_rows[0].adjacency.resize(10);
    EXPECT_FALSE(loadGraphBlob(graphBlob(g, g.entryPoint(), short_rows),
                               pts)
                     .has_value());

    std::vector<HnswGraph::Layer> long_rows = layers;
    long_rows[0].adjacency.resize(
        long_rows[0].adjacency.size() + g.layerDegree(0),
        HnswGraph::kNoNeighbor);
    EXPECT_FALSE(loadGraphBlob(graphBlob(g, g.entryPoint(), long_rows),
                               pts)
                     .has_value());

    EXPECT_FALSE(loadGraphBlob(graphBlob(g, 100000, layers), pts)
                     .has_value());
    // A node of layer 0 only: in range, but not where search starts.
    const std::vector<std::uint32_t> &top = layers.back().members;
    std::uint32_t low = 0;
    while (std::find(top.begin(), top.end(), low) != top.end())
        ++low;
    EXPECT_FALSE(loadGraphBlob(graphBlob(g, low, layers), pts).has_value());
}

// A kd-tree blob's child indices, split axes and leaf ranges index the
// loaded arrays and the query: each must be checked before it is used.
TEST(Serialize, KdTreeRejectsOutOfRangeChildrenAndLeafRanges)
{
    const PointSet pts = test::randomCloud(200, 3, 92);
    const KdTree tree = KdTree::build(pts, 8);
    ASSERT_FALSE(tree.nodes()[0].isLeaf());
    const auto blob = [&](const std::vector<KdNode> &nodes) {
        std::string b;
        put<std::uint32_t>(b, 0x48535531); // "HSU1"
        put<std::uint32_t>(b, 2);          // k-d tree blob
        put<std::uint64_t>(b, pts.size());
        put<std::uint32_t>(b, pts.dim());
        put<std::uint64_t>(b, nodes.size());
        for (const KdNode &node : nodes)
            put(b, node);
        put<std::uint64_t>(b, tree.pointIndex().size());
        for (const std::uint32_t i : tree.pointIndex())
            put(b, i);
        return b;
    };
    const auto loads = [&](const std::vector<KdNode> &nodes) {
        std::stringstream in(blob(nodes));
        return loadKdTree(in, pts).has_value();
    };
    ASSERT_TRUE(loads(tree.nodes()));

    for (const std::int32_t child : {100000, -2, 0}) {
        std::vector<KdNode> nodes = tree.nodes();
        nodes[0].right = child;
        EXPECT_FALSE(loads(nodes)) << "right child " << child;
    }
    std::vector<KdNode> bad_axis = tree.nodes();
    bad_axis[0].axis = static_cast<std::int32_t>(pts.dim());
    EXPECT_FALSE(loads(bad_axis)) << "split axis past the last dimension";
    std::size_t leaf = 0;
    while (!tree.nodes()[leaf].isLeaf())
        ++leaf;
    for (const std::uint32_t first : {0xfffffff0u, 0xffffffffu}) {
        std::vector<KdNode> nodes = tree.nodes();
        nodes[leaf].first = first;
        EXPECT_FALSE(loads(nodes)) << "leaf first " << first;
    }
}

// An LBVH blob's root and child indices index the loaded node array:
// each must be in range, and no node may be reached twice, or the
// validation walk itself reads out of bounds or never ends.
TEST(Serialize, LbvhRejectsOutOfRangeAndCyclicNodes)
{
    const PointSet pts = test::randomCloud(100, 3, 93);
    const Lbvh bvh = Lbvh::buildFromPoints(pts, 0.1f);
    const std::int32_t root = bvh.root();
    ASSERT_FALSE(bvh.nodes()[static_cast<std::size_t>(root)].isLeaf());
    const auto loads = [&](std::int32_t r,
                           const std::vector<LbvhNode> &nodes) {
        std::string b;
        put<std::uint32_t>(b, 0x48535531); // "HSU1"
        put<std::uint32_t>(b, 1);          // LBVH blob
        put(b, static_cast<std::uint32_t>(r));
        put<std::uint64_t>(b, bvh.numLeaves());
        put<std::uint64_t>(b, nodes.size());
        for (const LbvhNode &node : nodes)
            put(b, node);
        std::stringstream in(b);
        return loadLbvh(in).has_value();
    };
    ASSERT_TRUE(loads(root, bvh.nodes()));

    for (const std::int32_t r : {100000, -2})
        EXPECT_FALSE(loads(r, bvh.nodes())) << "root " << r;
    for (const std::int32_t child : {100000, -2}) {
        std::vector<LbvhNode> nodes = bvh.nodes();
        nodes[static_cast<std::size_t>(root)].right = child;
        EXPECT_FALSE(loads(root, nodes)) << "right child " << child;
    }
    // A cycle through the root that every parent link and box agrees
    // with: the root's left child names the root as its own left child.
    std::vector<LbvhNode> cyclic = bvh.nodes();
    LbvhNode &top = cyclic[static_cast<std::size_t>(root)];
    LbvhNode &left = cyclic[static_cast<std::size_t>(top.left)];
    ASSERT_FALSE(left.isLeaf());
    top.parent = top.left;
    left.left = root;
    left.bounds = top.bounds;
    EXPECT_FALSE(loads(root, cyclic)) << "cycle through the root";
}

// The same for a B+tree blob's root and child indices.
TEST(Serialize, BTreeRejectsOutOfRangeAndCyclicChildren)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t i = 0; i < 1000; ++i)
        pairs.emplace_back(i * 7, i);
    const BTree tree = BTree::build(pairs, 8);
    const std::int32_t root = tree.root();
    ASSERT_FALSE(tree.nodes()[static_cast<std::size_t>(root)].leaf);
    const auto loads = [&](std::int32_t r,
                           const std::vector<BTreeNode> &nodes) {
        std::string b;
        put<std::uint32_t>(b, 0x48535531); // "HSU1"
        put<std::uint32_t>(b, 4);          // B+tree blob
        put(b, static_cast<std::uint32_t>(r));
        put<std::uint32_t>(b, tree.order());
        put<std::uint64_t>(b, nodes.size());
        for (const BTreeNode &node : nodes) {
            put<std::uint32_t>(b, node.leaf ? 1 : 0);
            put<std::uint64_t>(b, node.keys.size());
            for (const std::uint32_t k : node.keys)
                put(b, k);
            put<std::uint64_t>(b, node.children.size());
            for (const std::int32_t c : node.children)
                put(b, c);
            put<std::uint64_t>(b, node.values.size());
            for (const std::uint32_t v : node.values)
                put(b, v);
        }
        std::stringstream in(b);
        return loadBTree(in).has_value();
    };
    ASSERT_TRUE(loads(root, tree.nodes()));

    EXPECT_FALSE(loads(100000, tree.nodes())) << "root out of range";
    for (const std::int32_t child : {100000, -2}) {
        std::vector<BTreeNode> nodes = tree.nodes();
        nodes[static_cast<std::size_t>(root)].children.back() = child;
        EXPECT_FALSE(loads(root, nodes)) << "last child " << child;
    }
    std::vector<BTreeNode> cyclic = tree.nodes();
    cyclic[static_cast<std::size_t>(root)].children.front() = root;
    EXPECT_FALSE(loads(root, cyclic)) << "root is its own first child";
}

TEST(Serialize, TruncatedStreamRejected)
{
    const PointSet pts = test::randomCloud(100, 3, 90);
    const Lbvh bvh = Lbvh::buildFromPoints(pts, 0.1f);
    std::stringstream ss;
    saveLbvh(ss, bvh);
    std::string blob = ss.str();
    blob.resize(blob.size() / 2);
    std::stringstream cut(blob);
    EXPECT_FALSE(loadLbvh(cut).has_value());
}

} // namespace
} // namespace hsu
