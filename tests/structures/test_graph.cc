/**
 * @file
 * Hierarchical graph (GGNN/HNSW-style) tests: structural invariants,
 * recall against brute force, determinism, and both metrics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <thread>

#include "../test_util.hh"
#include "structures/graph.hh"
#include "workloads/datasets.hh"

namespace hsu
{
namespace
{

TEST(HnswGraph, ValidatesOnRandomData)
{
    const PointSet pts = test::randomCloud(500, 8, 31);
    const HnswGraph g = HnswGraph::build(pts, Metric::Euclidean);
    EXPECT_TRUE(g.validate());
    EXPECT_GE(g.numLayers(), 1u);
    EXPECT_EQ(g.layerNodes(0).size(), 500u);
}

TEST(HnswGraph, EmptyAndTiny)
{
    const PointSet empty(4);
    const HnswGraph g0 = HnswGraph::build(empty, Metric::Euclidean);
    EXPECT_TRUE(g0.knn(nullptr, 3).empty());

    PointSet one(2);
    const float p[2] = {1, 2};
    one.add(p);
    const HnswGraph g1 = HnswGraph::build(one, Metric::Euclidean);
    const float q[2] = {0, 0};
    const auto r = g1.knn(q, 3);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].index, 0u);
}

TEST(HnswGraph, RecallAtTenEuclidean)
{
    const PointSet pts = test::randomCloud(2000, 16, 91);
    const HnswGraph g = HnswGraph::build(pts, Metric::Euclidean);
    const PointSet queries = test::randomCloud(40, 16, 92);

    double recall = 0;
    const unsigned k = 10;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto got = g.knn(queries[q], k, {64});
        const auto want = test::bruteKnn(pts, queries[q], k);
        std::size_t hits = 0;
        for (const auto &w : want) {
            for (const auto &got_n : got) {
                if (got_n.index == w.index) {
                    ++hits;
                    break;
                }
            }
        }
        recall += static_cast<double>(hits) / k;
    }
    recall /= static_cast<double>(queries.size());
    EXPECT_GE(recall, 0.85) << "ANN recall collapsed";
}

TEST(HnswGraph, RecallAtTenAngular)
{
    const PointSet pts = test::randomCloud(1500, 12, 93);
    const HnswGraph g = HnswGraph::build(pts, Metric::Angular);
    const PointSet queries = test::randomCloud(30, 12, 94);

    double recall = 0;
    const unsigned k = 10;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto got = g.knn(queries[q], k, {64});
        // Brute force under the angular metric.
        std::vector<Neighbor> all;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            all.push_back({static_cast<std::uint32_t>(i),
                           metricDist(Metric::Angular, queries[q],
                                      pts[i], 12)});
        }
        std::sort(all.begin(), all.end());
        std::size_t hits = 0;
        for (unsigned w = 0; w < k; ++w) {
            for (const auto &got_n : got) {
                if (got_n.index == all[w].index) {
                    ++hits;
                    break;
                }
            }
        }
        recall += static_cast<double>(hits) / k;
    }
    recall /= static_cast<double>(queries.size());
    EXPECT_GE(recall, 0.8);
}

TEST(HnswGraph, DeterministicBuild)
{
    const PointSet pts = test::randomCloud(300, 6, 95);
    const HnswGraph a = HnswGraph::build(pts, Metric::Euclidean);
    const HnswGraph b = HnswGraph::build(pts, Metric::Euclidean);
    ASSERT_EQ(a.numLayers(), b.numLayers());
    for (unsigned l = 0; l < a.numLayers(); ++l) {
        for (std::uint32_t n = 0; n < pts.size(); ++n) {
            for (unsigned j = 0; j < a.layerDegree(l); ++j) {
                EXPECT_EQ(a.neighbors(l, n)[j], b.neighbors(l, n)[j]);
            }
        }
    }
}

TEST(HnswGraph, MetricDistReference)
{
    const float a[3] = {1, 0, 0};
    const float b[3] = {0, 1, 0};
    EXPECT_FLOAT_EQ(metricDist(Metric::Euclidean, a, b, 3), 2.0f);
    EXPECT_FLOAT_EQ(metricDist(Metric::Angular, a, b, 3), 1.0f);
    EXPECT_FLOAT_EQ(metricDist(Metric::Angular, a, a, 3), 0.0f);
}

/**
 * Order-sensitive FNV-1a digest of everything a build decides: the
 * entry point, each layer's members and adjacency, and the (index,
 * distance bits) of 10-NN answers for @p queries.
 */
std::uint64_t
graphDigest(const HnswGraph &g, const PointSet &queries)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(g.entryPoint());
    mix(g.numLayers());
    for (const HnswGraph::Layer &layer : g.layers()) {
        mix(static_cast<std::uint32_t>(layer.members.size()));
        for (const std::uint32_t m : layer.members)
            mix(m);
        for (const std::uint32_t a : layer.adjacency)
            mix(a);
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
        for (const Neighbor &n : g.knn(queries[q], 10)) {
            mix(n.index);
            mix(std::bit_cast<std::uint32_t>(n.dist2));
        }
    }
    return h;
}

/** The first @p count points of a generated dataset and 4 queries. */
std::pair<PointSet, PointSet>
datasetPrefix(DatasetId id, std::size_t count)
{
    DatasetInfo info = datasetInfo(id);
    info.simPoints = count;
    return {generatePoints(info), generateQueries(info, 4)};
}

// Digests pinned from a build that evaluated every distance with one
// metricDist call: a construction speedup must leave each graph, and
// each answer, bit-identical. A changed value means the builder changed
// a distance or a tie-break, not just its speed.
TEST(HnswGraph, BuildIsBitIdenticalToReference)
{
    struct Case
    {
        const char *name;
        PointSet points;
        PointSet queries;
        Metric metric;
        std::uint64_t digest;
    };
    auto [d1b, d1b_q] = datasetPrefix(DatasetId::Deep1b, 3000);
    auto [mnist, mnist_q] = datasetPrefix(DatasetId::Mnist, 1500);
    Case cases[] = {
        {"D1B[:3000] angular 96-d", std::move(d1b), std::move(d1b_q),
         Metric::Angular, 0x084bc1c216473716ull},
        {"MNT[:1500] euclidean 784-d", std::move(mnist),
         std::move(mnist_q), Metric::Euclidean,
         0x0aaf11df35228725ull},
        {"cloud 500x8 euclidean", test::randomCloud(500, 8, 31),
         test::randomCloud(4, 8, 32), Metric::Euclidean,
         0x5e80b605473fc348ull},
        {"cloud 1500x12 angular", test::randomCloud(1500, 12, 93),
         test::randomCloud(4, 12, 94), Metric::Angular,
         0xc467e72d44e64ba4ull},
    };
    for (const Case &c : cases) {
        const HnswGraph g = HnswGraph::build(c.points, c.metric);
        const std::uint64_t got = graphDigest(g, c.queries);
        EXPECT_EQ(got, c.digest) << c.name << ": 0x" << std::hex << got;
    }
}

// metricDistBatch must equal metricDist bit for bit. The uint32
// comparison (not FLOAT_EQ) catches a compiler that contracts a sum to
// FMA or reassociates it on another target. The dims cover the vector
// tail (65, 3, 1) and the generated datasets' sizes; counts 0-9 cover
// one and two lane groups, padded lanes and a second block; the zero
// vectors cover angular's zero-denominator case.
TEST(HnswGraph, BatchedDistancesMatchMetricDistBitForBit)
{
    for (const unsigned dim : {1u, 3u, 16u, 65u, 96u, 128u, 784u, 960u}) {
        PointSet pts = test::randomCloud(10, dim, 200 + dim);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            // Spread magnitudes over 1e-3..1e3, and zero two points.
            const float scale = i == 3 || i == 7
                                    ? 0.0f
                                    : std::pow(10.0f, static_cast<float>(
                                                          i % 7) - 3.0f);
            for (unsigned d = 0; d < dim; ++d)
                pts.mutablePoint(i)[d] *= scale;
        }
        const PointSet queries = test::randomCloud(1, dim, 300 + dim);
        const std::vector<float> zero(dim, 0.0f);
        // Candidates in scrambled order, so ids index the set.
        const std::uint32_t ids[10] = {4, 9, 3, 0, 7, 1, 8, 2, 6, 5};
        for (const Metric metric : {Metric::Euclidean, Metric::Angular}) {
            std::vector<float> norms(pts.size());
            for (std::size_t i = 0; i < pts.size(); ++i)
                norms[i] = metricNorm(pts[i], dim);
            for (const float *q : {queries[0], zero.data()}) {
                for (unsigned count = 0; count <= 9; ++count) {
                    float out[10];
                    std::fill_n(out, 10, -7.0f);
                    metricDistBatch(metric, q, metricNorm(q, dim), pts,
                                    norms.data(), ids, count, out);
                    for (unsigned j = 0; j < count; ++j) {
                        const float want =
                            metricDist(metric, q, pts[ids[j]], dim);
                        EXPECT_EQ(std::bit_cast<std::uint32_t>(out[j]),
                                  std::bit_cast<std::uint32_t>(want))
                            << "dim " << dim << " count " << count
                            << " lane " << j << ": " << out[j]
                            << " vs " << want;
                    }
                    EXPECT_EQ(out[count], -7.0f) << "wrote past count";
                }
            }
        }
    }
}

// knn is const and keeps its search scratch per call, so concurrent
// queries on one graph must neither race (run under TSan) nor change
// any answer.
TEST(HnswGraph, ConcurrentKnnMatchesSerial)
{
    const PointSet pts = test::randomCloud(1000, 12, 97);
    const HnswGraph g = HnswGraph::build(pts, Metric::Angular);
    const PointSet queries = test::randomCloud(64, 12, 98);
    std::vector<std::vector<Neighbor>> serial(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        serial[q] = g.knn(queries[q], 10);

    constexpr unsigned kThreads = 4;
    std::vector<std::vector<std::vector<Neighbor>>> got(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t q = 0; q < queries.size(); ++q)
                got[t].push_back(g.knn(queries[q], 10));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), serial.size());
        for (std::size_t q = 0; q < serial.size(); ++q) {
            ASSERT_EQ(got[t][q].size(), serial[q].size());
            for (std::size_t i = 0; i < serial[q].size(); ++i) {
                EXPECT_EQ(got[t][q][i].index, serial[q][i].index);
                EXPECT_EQ(std::bit_cast<std::uint32_t>(got[t][q][i].dist2),
                          std::bit_cast<std::uint32_t>(serial[q][i].dist2));
            }
        }
    }
}

TEST(HnswGraph, UpperLayersAreSparser)
{
    const PointSet pts = test::randomCloud(2000, 4, 96);
    const HnswGraph g = HnswGraph::build(pts, Metric::Euclidean);
    for (unsigned l = 1; l < g.numLayers(); ++l)
        EXPECT_LT(g.layerNodes(l).size(), g.layerNodes(l - 1).size());
}

} // namespace
} // namespace hsu
