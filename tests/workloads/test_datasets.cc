/**
 * @file
 * Dataset registry and generator tests: Table II metadata fidelity,
 * determinism, basic statistical character of the stand-ins, and the
 * per-process dataset store.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "workloads/datasets.hh"

namespace hsu
{
namespace
{

TEST(Datasets, RegistryMatchesTable2)
{
    const auto &all = allDatasets();
    ASSERT_EQ(all.size(), 16u);

    // Spot-check the paper's rows: dimensions and metric.
    EXPECT_EQ(datasetInfo(DatasetId::Deep1b).dim, 96u);
    EXPECT_EQ(datasetInfo(DatasetId::Deep1b).metric, Metric::Angular);
    EXPECT_EQ(datasetInfo(DatasetId::Mnist).dim, 784u);
    EXPECT_EQ(datasetInfo(DatasetId::Mnist).metric, Metric::Euclidean);
    EXPECT_EQ(datasetInfo(DatasetId::Gist).dim, 960u);
    EXPECT_EQ(datasetInfo(DatasetId::Glove).dim, 200u);
    EXPECT_EQ(datasetInfo(DatasetId::LastFm).dim, 65u);
    EXPECT_EQ(datasetInfo(DatasetId::NyTimes).dim, 256u);
    EXPECT_EQ(datasetInfo(DatasetId::Sift1m).dim, 128u);
    EXPECT_EQ(datasetInfo(DatasetId::Bunny).dim, 3u);
    EXPECT_EQ(datasetInfo(DatasetId::BTree1m).kind, DatasetKind::Keys);
    EXPECT_EQ(datasetInfo(DatasetId::Sift10k).simPoints, 10000u);
    EXPECT_EQ(datasetInfo(DatasetId::Random10k).simPoints, 10000u);
    // Paper point counts preserved in the registry.
    EXPECT_EQ(datasetInfo(DatasetId::Deep1b).paperPoints, 9'900'000u);
    EXPECT_EQ(datasetInfo(DatasetId::Buddha).paperPoints, 543'000u);
}

TEST(Datasets, KindPartitions)
{
    EXPECT_EQ(datasetsOfKind(DatasetKind::HighDim).size(), 9u);
    EXPECT_EQ(datasetsOfKind(DatasetKind::Point3d).size(), 5u);
    EXPECT_EQ(datasetsOfKind(DatasetKind::Keys).size(), 2u);
}

TEST(Datasets, GenerationIsDeterministic)
{
    const auto &info = datasetInfo(DatasetId::Sift10k);
    const PointSet a = generatePoints(info);
    const PointSet b = generatePoints(info);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < 50; ++i) {
        for (unsigned d = 0; d < info.dim; ++d)
            EXPECT_EQ(a[i][d], b[i][d]);
    }
}

TEST(Datasets, SizesAndDims)
{
    for (const auto &info : allDatasets()) {
        if (info.kind == DatasetKind::Keys)
            continue;
        const PointSet pts = generatePoints(info);
        EXPECT_EQ(pts.size(), info.simPoints) << info.abbr;
        EXPECT_EQ(pts.dim(), info.dim) << info.abbr;
        // All finite.
        for (std::size_t i = 0; i < std::min<std::size_t>(100,
                                                          pts.size());
             ++i) {
            for (unsigned d = 0; d < info.dim; ++d)
                EXPECT_TRUE(std::isfinite(pts[i][d])) << info.abbr;
        }
    }
}

TEST(Datasets, QueriesDifferFromPoints)
{
    const auto &info = datasetInfo(DatasetId::Random10k);
    const PointSet pts = generatePoints(info);
    const PointSet queries = generateQueries(info, 64);
    EXPECT_EQ(queries.size(), 64u);
    // Query stream uses a different seed: first query != first point.
    bool any_diff = false;
    for (unsigned d = 0; d < 3; ++d)
        any_diff |= queries[0][d] != pts[0][d];
    EXPECT_TRUE(any_diff);
}

TEST(Datasets, KeysSortedUnique)
{
    for (const auto id : {DatasetId::BTree1m, DatasetId::BTree10k}) {
        const auto keys = generateKeys(datasetInfo(id));
        EXPECT_EQ(keys.size(), datasetInfo(id).simPoints);
        for (std::size_t i = 1; i < keys.size(); ++i)
            ASSERT_LT(keys[i - 1], keys[i]);
    }
}

TEST(Datasets, KeyQueriesMostlyHit)
{
    const auto &info = datasetInfo(DatasetId::BTree10k);
    const auto keys = generateKeys(info);
    const auto probes = generateKeyQueries(info, 2000);
    std::size_t hits = 0;
    for (const auto p : probes) {
        hits += std::binary_search(keys.begin(), keys.end(), p);
    }
    // ~80% of probes target present keys.
    EXPECT_GT(hits, 1400u);
    EXPECT_LT(hits, 1950u);
}

TEST(Datasets, CosmosIsClustered)
{
    // The cosmology stand-in must be far more clustered than uniform:
    // compare mean nearest-neighbor distance against uniform random.
    const PointSet cosmos = generatePoints(datasetInfo(DatasetId::Cosmos));
    const PointSet uniform =
        generatePoints(datasetInfo(DatasetId::Random10k));
    auto mean_nn = [](const PointSet &pts, float scale) {
        double sum = 0;
        const std::size_t samples = 64;
        for (std::size_t s = 0; s < samples; ++s) {
            const std::size_t i = s * (pts.size() / samples);
            float best = 1e30f;
            for (std::size_t j = 0; j < pts.size(); ++j) {
                if (j != i)
                    best = std::min(best, pointDist2(pts[i], pts[j], 3));
            }
            sum += std::sqrt(best) / scale;
        }
        return sum / samples;
    };
    // Normalize by domain size (cosmos ~22 units, uniform 1 unit).
    EXPECT_LT(mean_nn(cosmos, 22.0f), mean_nn(uniform, 1.0f) * 0.8);
}

/**
 * Four threads race on the store's first use of @p get (nothing in
 * this process has read the dataset yet): all get one address, whose
 * contents are bit-equal to a fresh generation.
 */
template <typename Get>
auto
raceOnFirstUse(Get get)
{
    std::vector<decltype(&get())> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&got, &get, t] { got[t] = &get(); });
    for (std::thread &t : threads)
        t.join();
    for (const auto *p : got)
        EXPECT_EQ(p, got[0]);
    return got[0];
}

TEST(DatasetStore, PointsAreGeneratedOnceAndBitEqual)
{
    const DatasetId id = DatasetId::Sift10k;
    const PointSet *stored =
        raceOnFirstUse([id]() -> const PointSet & {
            return datasetPoints(id);
        });
    const PointSet fresh = generatePoints(datasetInfo(id));
    ASSERT_EQ(stored->size(), fresh.size());
    ASSERT_EQ(stored->dim(), fresh.dim());
    EXPECT_EQ(std::memcmp((*stored)[0], fresh[0],
                          fresh.size() * fresh.strideBytes()),
              0);
    EXPECT_EQ(&datasetPoints(id), stored);
}

TEST(DatasetStore, KeysAreGeneratedOnceAndEqual)
{
    const DatasetId id = DatasetId::BTree10k;
    const std::vector<std::uint32_t> *stored =
        raceOnFirstUse([id]() -> const std::vector<std::uint32_t> & {
            return datasetKeys(id);
        });
    EXPECT_EQ(*stored, generateKeys(datasetInfo(id)));
    EXPECT_EQ(&datasetKeys(id), stored);
}

TEST(Datasets, AngularSetsHaveSpread)
{
    const auto &info = datasetInfo(DatasetId::Glove);
    const PointSet pts = generatePoints(info);
    // Angular distance between random pairs should span a range
    // (clustered but not degenerate).
    float min_d = 1e9f, max_d = -1e9f;
    for (std::size_t i = 0; i < 50; ++i) {
        const float d = metricDist(Metric::Angular, pts[i],
                                   pts[i + 200], info.dim);
        min_d = std::min(min_d, d);
        max_d = std::max(max_d, d);
    }
    EXPECT_LT(min_d, 0.5f);
    EXPECT_GT(max_d, 0.5f);
}

} // namespace
} // namespace hsu
