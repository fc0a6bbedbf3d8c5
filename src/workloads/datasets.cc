#include "workloads/datasets.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/memo.hh"
#include "common/rng.hh"

namespace hsu
{

const std::vector<DatasetInfo> &
allDatasets()
{
    static const std::vector<DatasetInfo> registry = {
        {DatasetId::Deep1b, "D1B", "deep1b", 96, 9'900'000, 40'000,
         Metric::Angular, DatasetKind::HighDim, 101},
        {DatasetId::FashionMnist, "FMNT", "fashion-mnist", 784, 60'000,
         8'000, Metric::Euclidean, DatasetKind::HighDim, 102},
        {DatasetId::Mnist, "MNT", "mnist", 784, 60'000, 8'000,
         Metric::Euclidean, DatasetKind::HighDim, 103},
        {DatasetId::Gist, "GST", "gist", 960, 1'000'000, 6'000,
         Metric::Euclidean, DatasetKind::HighDim, 104},
        {DatasetId::Glove, "GLV", "glove", 200, 1'180'000, 16'000,
         Metric::Angular, DatasetKind::HighDim, 105},
        {DatasetId::LastFm, "LFM", "last-fm", 65, 292'000, 16'000,
         Metric::Angular, DatasetKind::HighDim, 106},
        {DatasetId::NyTimes, "NYT", "nytimes", 256, 290'000, 12'000,
         Metric::Angular, DatasetKind::HighDim, 107},
        {DatasetId::Sift1m, "S1M", "sift1m", 128, 1'000'000, 16'000,
         Metric::Euclidean, DatasetKind::HighDim, 108},
        {DatasetId::Sift10k, "S10K", "sift10k", 128, 10'000, 10'000,
         Metric::Euclidean, DatasetKind::HighDim, 109},
        {DatasetId::Random10k, "R10K", "random10k", 3, 10'000, 10'000,
         Metric::Euclidean, DatasetKind::Point3d, 110},
        {DatasetId::Bunny, "BUN", "bunny", 3, 35'900, 9'000,
         Metric::Euclidean, DatasetKind::Point3d, 111},
        {DatasetId::Dragon, "DRG", "dragon", 3, 437'000, 20'000,
         Metric::Euclidean, DatasetKind::Point3d, 112},
        {DatasetId::Buddha, "BUD", "buddha", 3, 543'000, 24'000,
         Metric::Euclidean, DatasetKind::Point3d, 113},
        {DatasetId::Cosmos, "COS", "cosmos", 3, 100'000, 15'000,
         Metric::Euclidean, DatasetKind::Point3d, 114},
        {DatasetId::BTree1m, "B+1M", "B-Tree 1M", 1, 1'000'000, 200'000,
         Metric::Euclidean, DatasetKind::Keys, 115},
        {DatasetId::BTree10k, "B+10K", "B-Tree 10k", 1, 10'000, 10'000,
         Metric::Euclidean, DatasetKind::Keys, 116},
    };
    return registry;
}

const DatasetInfo &
datasetInfo(DatasetId id)
{
    for (const auto &info : allDatasets()) {
        if (info.id == id)
            return info;
    }
    hsu_panic("unknown dataset id ", static_cast<int>(id));
}

std::vector<DatasetInfo>
datasetsOfKind(DatasetKind kind)
{
    std::vector<DatasetInfo> out;
    for (const auto &info : allDatasets()) {
        if (info.kind == kind)
            out.push_back(info);
    }
    return out;
}

namespace
{

/**
 * Clustered high-dimensional features: a Gaussian mixture with a
 * low-rank "natural image/text" correlation structure, heavy tails for
 * embedding-style sets.
 */
void
appendHighDim(PointSet &out, const DatasetInfo &info, std::size_t count,
              Rng &rng)
{
    const unsigned dim = info.dim;
    const unsigned clusters = 32;
    const unsigned rank = std::min(dim, 24u);
    // Heavy-tailed scale for word-embedding-style corpora.
    const bool heavy = info.metric == Metric::Angular;

    // Shared low-rank basis + cluster centers (regenerated
    // deterministically from the dataset seed on every call).
    Rng basis_rng(info.seed * 0x9e37u + 1);
    std::vector<float> basis(static_cast<std::size_t>(rank) * dim);
    for (auto &v : basis)
        v = basis_rng.gaussian();
    std::vector<float> centers(static_cast<std::size_t>(clusters) * rank);
    for (auto &v : centers)
        v = basis_rng.gaussian(0.0f, 3.0f);

    std::vector<float> p(dim);
    std::vector<float> latent(rank);
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned c =
            static_cast<unsigned>(rng.nextBounded(clusters));
        float scale = 1.0f;
        if (heavy) {
            // Log-normal per-point scale: a few far-out points.
            scale = std::exp(rng.gaussian(0.0f, 0.6f));
        }
        for (unsigned r = 0; r < rank; ++r)
            latent[r] = centers[c * rank + r] + rng.gaussian();
        for (unsigned d = 0; d < dim; ++d) {
            float v = 0.0f;
            for (unsigned r = 0; r < rank; ++r)
                v += latent[r] * basis[static_cast<std::size_t>(r) * dim +
                                       d];
            v = v / std::sqrt(static_cast<float>(rank)) +
                0.3f * rng.gaussian();
            p[d] = v * scale;
        }
        out.add(p.data());
    }
}

/** Bumpy-sphere surface sampler (bunny stand-in). */
Vec3
bumpySphere(float u, float v)
{
    const float theta = u * 2.0f * 3.14159265f;
    const float phi = std::acos(2.0f * v - 1.0f);
    const float r = 1.0f + 0.18f * std::sin(3.0f * theta) *
                               std::sin(5.0f * phi) +
                    0.08f * std::cos(7.0f * theta);
    return {r * std::sin(phi) * std::cos(theta),
            r * std::sin(phi) * std::sin(theta), r * std::cos(phi)};
}

/** Swept-spiral surface sampler (dragon stand-in: long thin body). */
Vec3
sweptSpiral(float u, float v, Rng &rng)
{
    const float t = u * 4.0f * 3.14159265f;
    const float body_r = 0.25f * (1.0f + 0.3f * std::sin(9.0f * t));
    const float ring = v * 2.0f * 3.14159265f;
    const Vec3 center{1.5f * std::cos(t) * (1.0f + 0.15f * t / 12.0f),
                      1.5f * std::sin(t), 0.35f * t};
    return center + Vec3{body_r * std::cos(ring),
                         body_r * std::sin(ring),
                         0.05f * rng.gaussian()};
}

/** Layered-blob sampler (buddha stand-in: stacked lobes). */
Vec3
layeredBlob(float u, float v, Rng &rng)
{
    const int lobe = static_cast<int>(u * 4.0f);
    const float lz = static_cast<float>(lobe) * 0.8f;
    const float lr = 1.0f - 0.18f * static_cast<float>(lobe);
    const float theta = v * 2.0f * 3.14159265f;
    const float phi = std::acos(2.0f * std::fmod(u * 4.0f, 1.0f) - 1.0f);
    return {lr * std::sin(phi) * std::cos(theta) +
                0.02f * rng.gaussian(),
            lr * std::sin(phi) * std::sin(theta) +
                0.02f * rng.gaussian(),
            lz + lr * 0.6f * std::cos(phi)};
}

void
appendSurface(PointSet &out, const DatasetInfo &info, std::size_t count,
              Rng &rng)
{
    for (std::size_t i = 0; i < count; ++i) {
        const float u = rng.nextFloat();
        const float v = rng.nextFloat();
        Vec3 p;
        switch (info.id) {
          case DatasetId::Bunny:
            p = bumpySphere(u, v);
            break;
          case DatasetId::Dragon:
            p = sweptSpiral(u, v, rng);
            break;
          case DatasetId::Buddha:
            p = layeredBlob(u, v, rng);
            break;
          default:
            hsu_panic("not a surface dataset");
        }
        out.add(p);
    }
}

/** Soneira-Peebles-style hierarchical clustering (cosmology stand-in). */
void
appendCosmos(PointSet &out, std::size_t count, Rng &rng)
{
    // Three levels of clustering: superclusters -> groups -> halos.
    const unsigned super = 12, groups = 6, halos = 8;
    std::vector<Vec3> super_c(super), group_c;
    for (auto &c : super_c)
        c = {rng.uniform(-10, 10), rng.uniform(-10, 10),
             rng.uniform(-10, 10)};
    for (const auto &s : super_c) {
        for (unsigned g = 0; g < groups; ++g) {
            group_c.push_back(s + Vec3{rng.gaussian(0, 1.5f),
                                       rng.gaussian(0, 1.5f),
                                       rng.gaussian(0, 1.5f)});
        }
    }
    std::vector<Vec3> halo_c;
    for (const auto &g : group_c) {
        for (unsigned h = 0; h < halos; ++h) {
            halo_c.push_back(g + Vec3{rng.gaussian(0, 0.4f),
                                      rng.gaussian(0, 0.4f),
                                      rng.gaussian(0, 0.4f)});
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        // 85% of points in halos, 15% smooth background.
        if (rng.nextFloat() < 0.85f) {
            const auto &h = halo_c[rng.nextBounded(halo_c.size())];
            out.add(h + Vec3{rng.gaussian(0, 0.08f),
                             rng.gaussian(0, 0.08f),
                             rng.gaussian(0, 0.08f)});
        } else {
            out.add(Vec3{rng.uniform(-11, 11), rng.uniform(-11, 11),
                         rng.uniform(-11, 11)});
        }
    }
}

void
appendPoints(PointSet &out, const DatasetInfo &info, std::size_t count,
             Rng &rng)
{
    switch (info.kind) {
      case DatasetKind::HighDim:
        appendHighDim(out, info, count, rng);
        return;
      case DatasetKind::Point3d:
        switch (info.id) {
          case DatasetId::Random10k:
            for (std::size_t i = 0; i < count; ++i) {
                out.add(Vec3{rng.nextFloat(), rng.nextFloat(),
                             rng.nextFloat()});
            }
            return;
          case DatasetId::Cosmos:
            appendCosmos(out, count, rng);
            return;
          default:
            appendSurface(out, info, count, rng);
            return;
        }
      case DatasetKind::Keys:
        hsu_panic("generatePoints on a key dataset");
    }
}

} // namespace

PointSet
generatePoints(const DatasetInfo &info)
{
    hsu_assert(info.kind != DatasetKind::Keys,
               "key datasets have no points");
    PointSet out(info.dim);
    out.reserve(info.simPoints);
    Rng rng(info.seed);
    appendPoints(out, info, info.simPoints, rng);
    return out;
}

PointSet
generateQueries(const DatasetInfo &info, std::size_t count)
{
    hsu_assert(info.kind != DatasetKind::Keys,
               "key datasets have no point queries");
    PointSet out(info.dim);
    out.reserve(count);
    Rng rng(info.seed ^ 0x5eedULL);
    appendPoints(out, info, count, rng);
    return out;
}

std::vector<std::uint32_t>
generateKeys(const DatasetInfo &info)
{
    hsu_assert(info.kind == DatasetKind::Keys, "not a key dataset");
    Rng rng(info.seed);
    std::vector<std::uint32_t> keys;
    keys.reserve(info.simPoints);
    // Dense-ish key space with random gaps, like a populated index.
    std::uint32_t cur = 1000;
    for (std::size_t i = 0; i < info.simPoints; ++i) {
        cur += 1 + static_cast<std::uint32_t>(rng.nextBounded(7));
        keys.push_back(cur);
    }
    return keys;
}

std::vector<std::uint32_t>
generateKeyQueries(const DatasetInfo &info, std::size_t count)
{
    const auto keys = generateKeys(info);
    Rng rng(info.seed ^ 0xbeefULL);
    std::vector<std::uint32_t> out;
    out.reserve(count);
    const std::uint32_t hi = keys.back() + 100;
    for (std::size_t i = 0; i < count; ++i) {
        if (rng.nextFloat() < 0.8f) {
            out.push_back(keys[rng.nextBounded(keys.size())]);
        } else {
            out.push_back(
                static_cast<std::uint32_t>(rng.nextBounded(hi)));
        }
    }
    return out;
}

const PointSet &
datasetPoints(DatasetId id)
{
    return cachedAssets<PointSet>(id, [id](PointSet &points) {
        points = generatePoints(datasetInfo(id));
    });
}

const std::vector<std::uint32_t> &
datasetKeys(DatasetId id)
{
    return cachedAssets<std::vector<std::uint32_t>>(
        id, [id](std::vector<std::uint32_t> &keys) {
            keys = generateKeys(datasetInfo(id));
        });
}

} // namespace hsu
