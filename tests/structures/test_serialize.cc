/**
 * @file
 * Serialization round-trip tests for every index type, including
 * malformed-stream rejection.
 */

#include <gtest/gtest.h>

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
