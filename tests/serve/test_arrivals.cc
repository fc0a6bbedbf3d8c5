/**
 * @file
 * Arrival-generator determinism and distribution sanity.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "serve/arrivals.hh"

namespace hsu::serve
{
namespace
{

bool
sameRequest(const Request &a, const Request &b)
{
    return a.id == b.id && a.arrivalCycle == b.arrivalCycle &&
           a.algo == b.algo && a.dataset == b.dataset &&
           a.queryId == b.queryId && a.deadlineCycle == b.deadlineCycle;
}

TEST(Arrivals, DeterministicAcrossInstances)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-4;
    cfg.deadlineCycles = 500'000;
    cfg.seed = 42;
    ArrivalGenerator a(cfg, Algo::Ggnn, DatasetId::Sift10k);
    ArrivalGenerator b(cfg, Algo::Ggnn, DatasetId::Sift10k);
    const auto sa = a.generate(256);
    const auto sb = b.generate(256);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
        EXPECT_TRUE(sameRequest(sa[i], sb[i])) << "request " << i;
}

TEST(Arrivals, IndependentOfJobsEnv)
{
    // The generator never consults HSU_JOBS or any thread state; the
    // stream must be identical whatever the env says.
    ArrivalConfig cfg;
    cfg.ratePerCycle = 2.0e-5;
    cfg.seed = 7;
    setenv("HSU_JOBS", "1", 1);
    const auto s1 =
        ArrivalGenerator(cfg, Algo::Btree, DatasetId::BTree10k)
            .generate(128);
    setenv("HSU_JOBS", "8", 1);
    const auto s8 =
        ArrivalGenerator(cfg, Algo::Btree, DatasetId::BTree10k)
            .generate(128);
    unsetenv("HSU_JOBS");
    ASSERT_EQ(s1.size(), s8.size());
    for (std::size_t i = 0; i < s1.size(); ++i)
        EXPECT_TRUE(sameRequest(s1[i], s8[i])) << "request " << i;
}

TEST(Arrivals, SeedsProduceDistinctStreams)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-4;
    cfg.seed = 1;
    ArrivalConfig cfg2 = cfg;
    cfg2.seed = 2;
    const auto sa =
        ArrivalGenerator(cfg, Algo::Flann, DatasetId::Bunny)
            .generate(64);
    const auto sb =
        ArrivalGenerator(cfg2, Algo::Flann, DatasetId::Bunny)
            .generate(64);
    bool any_diff = false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
        if (sa[i].arrivalCycle != sb[i].arrivalCycle ||
            sa[i].queryId != sb[i].queryId) {
            any_diff = true;
            break;
        }
    }
    EXPECT_TRUE(any_diff);
}

TEST(Arrivals, StreamInvariants)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 5.0e-5;
    cfg.queryPoolSize = 100;
    cfg.deadlineCycles = 123'456;
    cfg.seed = 3;
    ArrivalGenerator gen(cfg, Algo::Bvhnn, DatasetId::Random10k);
    Cycle prev = 0;
    std::uint64_t prev_id = 0;
    for (unsigned i = 0; i < 512; ++i) {
        const Request r = gen.next();
        EXPECT_GE(r.arrivalCycle, prev);
        EXPECT_GT(r.arrivalCycle, 0u);
        if (i > 0) {
            EXPECT_EQ(r.id, prev_id + 1);
        }
        EXPECT_LT(r.queryId, cfg.queryPoolSize);
        EXPECT_EQ(r.deadlineCycle, r.arrivalCycle + cfg.deadlineCycles);
        prev = r.arrivalCycle;
        prev_id = r.id;
    }
}

TEST(Arrivals, HugeDeadlineSaturatesInsteadOfWrapping)
{
    // A deadline near 2^64 cycles must read as "never", not wrap to a
    // cycle before the arrival, which would expire every request.
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-4;
    cfg.deadlineCycles = kNeverCycle - 1;
    cfg.seed = 3;
    for (const Request &r :
         ArrivalGenerator(cfg, Algo::Flann, DatasetId::Bunny).generate(64)) {
        EXPECT_EQ(r.deadlineCycle, kNeverCycle) << "request " << r.id;
    }
}

TEST(Arrivals, PoissonMeanRateApproximate)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-3; // mean gap 1000 cycles
    cfg.seed = 11;
    const auto stream =
        ArrivalGenerator(cfg, Algo::Ggnn, DatasetId::Sift10k)
            .generate(4000);
    const double mean_gap =
        static_cast<double>(stream.back().arrivalCycle) /
        static_cast<double>(stream.size());
    EXPECT_NEAR(mean_gap, 1000.0, 100.0); // ~6 sigma for n=4000
}

TEST(Arrivals, BurstyPreservesMeanRate)
{
    ArrivalConfig cfg;
    cfg.process = ArrivalProcess::Bursty;
    cfg.ratePerCycle = 1.0e-3;
    cfg.burstFactor = 4.0;
    cfg.burstFraction = 0.2;
    cfg.meanBurstCycles = 20'000.0;
    cfg.seed = 13;
    const auto stream =
        ArrivalGenerator(cfg, Algo::Ggnn, DatasetId::Sift10k)
            .generate(20'000);
    const double mean_gap =
        static_cast<double>(stream.back().arrivalCycle) /
        static_cast<double>(stream.size());
    // Burstiness raises gap variance, so allow a wider band.
    EXPECT_NEAR(mean_gap, 1000.0, 200.0);
}

TEST(Arrivals, BurstyGapsAreOverdispersed)
{
    // Coefficient of variation of MMPP gaps must exceed Poisson's 1.
    auto gap_cv = [](const std::vector<Request> &s) {
        std::vector<double> gaps;
        for (std::size_t i = 1; i < s.size(); ++i) {
            gaps.push_back(static_cast<double>(s[i].arrivalCycle -
                                               s[i - 1].arrivalCycle));
        }
        double mean = 0.0;
        for (const double g : gaps)
            mean += g;
        mean /= static_cast<double>(gaps.size());
        double var = 0.0;
        for (const double g : gaps)
            var += (g - mean) * (g - mean);
        var /= static_cast<double>(gaps.size());
        return std::sqrt(var) / mean;
    };
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-3;
    cfg.seed = 17;
    const auto poisson =
        ArrivalGenerator(cfg, Algo::Ggnn, DatasetId::Sift10k)
            .generate(8000);
    cfg.process = ArrivalProcess::Bursty;
    cfg.burstFactor = 4.0;
    cfg.burstFraction = 0.2;
    cfg.meanBurstCycles = 50'000.0;
    const auto bursty =
        ArrivalGenerator(cfg, Algo::Ggnn, DatasetId::Sift10k)
            .generate(8000);
    EXPECT_GT(gap_cv(bursty), gap_cv(poisson) * 1.1);
}

TEST(Arrivals, ZipfDeterministicWithPinnedSeed)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-4;
    cfg.queryDist = QueryDist::Zipf;
    cfg.zipfExponent = 1.0;
    cfg.seed = 42;
    ArrivalGenerator a(cfg, Algo::Ggnn, DatasetId::Sift10k);
    ArrivalGenerator b(cfg, Algo::Ggnn, DatasetId::Sift10k);
    const auto sa = a.generate(256);
    const auto sb = b.generate(256);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
        EXPECT_TRUE(sameRequest(sa[i], sb[i])) << "request " << i;
}

TEST(Arrivals, ZipfPreservesMeanRate)
{
    // The popularity distribution picks WHICH query, never WHEN: the
    // timing process must deliver the same mean rate under Zipf.
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-3; // mean gap 1000 cycles
    cfg.queryDist = QueryDist::Zipf;
    cfg.zipfExponent = 1.2;
    cfg.seed = 11;
    const auto stream =
        ArrivalGenerator(cfg, Algo::Ggnn, DatasetId::Sift10k)
            .generate(4000);
    const double mean_gap =
        static_cast<double>(stream.back().arrivalCycle) /
        static_cast<double>(stream.size());
    EXPECT_NEAR(mean_gap, 1000.0, 100.0); // ~6 sigma for n=4000
}

TEST(Arrivals, ZipfSkewsTowardLowIds)
{
    ArrivalConfig cfg;
    cfg.ratePerCycle = 1.0e-4;
    cfg.queryPoolSize = 256;
    cfg.seed = 19;
    const auto uniform =
        ArrivalGenerator(cfg, Algo::Btree, DatasetId::BTree10k)
            .generate(8000);
    cfg.queryDist = QueryDist::Zipf;
    cfg.zipfExponent = 1.0;
    const auto zipf =
        ArrivalGenerator(cfg, Algo::Btree, DatasetId::BTree10k)
            .generate(8000);

    auto head_share = [](const std::vector<Request> &s) {
        std::size_t head = 0;
        for (const Request &r : s)
            head += r.queryId < 8 ? 1 : 0;
        return static_cast<double>(head) /
               static_cast<double>(s.size());
    };
    // Rank == id: the 8 most popular queries carry far more of a Zipf
    // stream than their 8/256 uniform share.
    EXPECT_LT(head_share(uniform), 0.07);
    EXPECT_GT(head_share(zipf), 3.0 * head_share(uniform));
    for (const Request &r : zipf)
        EXPECT_LT(r.queryId, cfg.queryPoolSize);
}

} // namespace
} // namespace hsu::serve
