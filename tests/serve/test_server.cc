/**
 * @file
 * End-to-end serving-loop semantics: request conservation, overload
 * response, and bit-identical results across simulation thread counts
 * (the multi-instance server fans batch simulations over the shared
 * ThreadPool; this test is the TSan target for that path).
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/server.hh"

namespace hsu::serve
{
namespace
{

ServerConfig
smallConfig(unsigned instances = 2)
{
    ServerConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numInstances = instances;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    return cfg;
}

std::vector<Request>
stream(Algo algo, DatasetId dataset, double rate_per_cycle,
       std::size_t count, Cycle deadline = 0,
       std::uint64_t seed = 21)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate_per_cycle;
    arr.queryPoolSize = 64;
    arr.deadlineCycles = deadline;
    arr.seed = seed;
    return ArrivalGenerator(arr, algo, dataset).generate(count);
}

void
expectSameReport(const ServeReport &a, const ServeReport &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shedAdmission, b.shedAdmission);
    EXPECT_EQ(a.shedExpired, b.shedExpired);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.lastCompletionCycle, b.lastCompletionCycle);
    EXPECT_EQ(a.latencyCycles.count(), b.latencyCycles.count());
    EXPECT_DOUBLE_EQ(a.latencyCycles.max(), b.latencyCycles.max());
    EXPECT_DOUBLE_EQ(a.latencyCycles.sum(), b.latencyCycles.sum());
    for (const double p : {50.0, 95.0, 99.0}) {
        EXPECT_DOUBLE_EQ(a.latencyCycles.percentile(p),
                         b.latencyCycles.percentile(p));
    }
}

TEST(Server, ConfigCheckNamesTheBadField)
{
    ServerConfig cfg = smallConfig();
    cfg.numInstances = 0;
    EXPECT_DEATH(Server(Algo::Btree, DatasetId::BTree10k, cfg),
                 "ServerConfig.numInstances = 0");
    cfg = smallConfig();
    cfg.queryPoolSize = 0;
    EXPECT_DEATH(Server(Algo::Btree, DatasetId::BTree10k, cfg),
                 "ServerConfig.queryPoolSize = 0");
    cfg = smallConfig();
    cfg.pipeline.degrade.shedWater = 0;
    EXPECT_DEATH(Server(Algo::Btree, DatasetId::BTree10k, cfg),
                 "ServerConfig.pipeline.degrade.shedWater = 0");
}

TEST(Server, NeverForcedBatchWaitIsRejected)
{
    // Three requests under a 32-wide batch leave a partial batch
    // queued once the stream drains. A wait that saturates at
    // kNeverCycle never forces it out, so the run is refused up front
    // instead of wedging the loop.
    ServerConfig cfg = smallConfig(1);
    cfg.pipeline.batch.maxBatch = 32;
    std::vector<Request> reqs(3);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].queryId = static_cast<std::uint32_t>(i);
        reqs[i].arrivalCycle = 100 + i;
    }
    for (const Cycle wait : {kNeverCycle, kNeverCycle - 50}) {
        cfg.pipeline.batch.maxWaitCycles = wait;
        Server server(Algo::Btree, DatasetId::BTree10k, cfg);
        EXPECT_DEATH(server.run(reqs),
                     "pipeline.batch.maxWaitCycles = " +
                         std::to_string(wait));
    }
}

TEST(Server, RequestConservation)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 5.0e-5, 96);
    Server server(Algo::Btree, DatasetId::BTree10k, smallConfig());
    const ServeReport rep = server.run(reqs);

    EXPECT_EQ(rep.offered, 96u);
    EXPECT_EQ(rep.completed + rep.shedAdmission + rep.shedExpired,
              rep.offered);
    EXPECT_EQ(rep.latencyCycles.count(), rep.completed);
    EXPECT_EQ(rep.queueWaitCycles.count() + rep.shedAdmission +
                  rep.shedExpired,
              rep.offered);
    EXPECT_GT(rep.batches, 0u);
    EXPECT_GT(rep.lastCompletionCycle, 0u);
    // Every served request's latency covers at least the launch
    // overhead plus one kernel cycle.
    EXPECT_GT(rep.latencyCycles.min(),
              static_cast<double>(smallConfig().launchOverheadCycles));
}

TEST(Server, BitIdenticalAcrossJobs)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 64);
    ServerConfig cfg = smallConfig(2);
    cfg.jobs = 1;
    Server serial(Algo::Btree, DatasetId::BTree10k, cfg);
    const ServeReport rep1 = serial.run(reqs);
    cfg.jobs = 4;
    Server parallel(Algo::Btree, DatasetId::BTree10k, cfg);
    const ServeReport rep4 = parallel.run(reqs);
    expectSameReport(rep1, rep4);

    // And across repeated runs of the same server.
    const ServeReport again = parallel.run(reqs);
    expectSameReport(rep4, again);
}

TEST(Server, OverloadShedsAtHighWater)
{
    // Arrivals far faster than service; tiny shed threshold.
    ServerConfig cfg = smallConfig(1);
    cfg.pipeline.degrade.shedWater = 16;
    cfg.pipeline.degrade.highWater = 8;
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-2, 128);
    Server server(Algo::Btree, DatasetId::BTree10k, cfg);
    const ServeReport rep = server.run(reqs);

    EXPECT_GT(rep.shedAdmission, 0u);
    EXPECT_EQ(rep.completed + rep.shedAdmission + rep.shedExpired,
              rep.offered);
    // The queue bound keeps batches full once saturated.
    EXPECT_GT(rep.batchSize.max(), 0.0);
    EXPECT_LE(rep.batchSize.max(),
              static_cast<double>(cfg.pipeline.batch.maxBatch));
}

TEST(Server, DeadlineShedsExpiredRequests)
{
    // Overload + a deadline shorter than the queueing delay: requests
    // expire in queue and are dropped at batch formation.
    ServerConfig cfg = smallConfig(1);
    cfg.pipeline.degrade.shedWater = 1'000'000; // admission never sheds
    const auto reqs = stream(Algo::Btree, DatasetId::BTree10k, 1.0e-2,
                             128, /*deadline=*/5'000);
    Server server(Algo::Btree, DatasetId::BTree10k, cfg);
    const ServeReport rep = server.run(reqs);

    EXPECT_GT(rep.shedExpired, 0u);
    EXPECT_EQ(rep.completed + rep.shedExpired + rep.shedAdmission,
              rep.offered);
}

TEST(Server, GgnnDegradesUnderPressure)
{
    ServerConfig cfg = smallConfig(1);
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.shedWater = 1'000'000;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    const auto reqs =
        stream(Algo::Ggnn, DatasetId::Sift10k, 5.0e-3, 48);
    Server server(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const ServeReport rep = server.run(reqs);

    EXPECT_GT(rep.degraded, 0u);
    EXPECT_EQ(rep.completed, rep.offered); // degraded, not dropped
}

TEST(Server, SaturationRaisesTailLatency)
{
    // Open-loop sanity: a saturating stream's p99 dominates a light
    // stream's. (Light load is NOT latency-free: a lone request pays
    // up to maxWaitCycles of batching delay — so the heavy stream must
    // queue well past that to dominate, which 256 back-to-back
    // requests on two instances guarantee.)
    ServerConfig cfg = smallConfig(2);
    Server server(Algo::Btree, DatasetId::BTree10k, cfg);
    const ServeReport light = server.run(
        stream(Algo::Btree, DatasetId::BTree10k, 2.0e-6, 64));
    const ServeReport heavy = server.run(
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-1, 512));
    EXPECT_GT(heavy.latencyCycles.percentile(99.0),
              light.latencyCycles.percentile(99.0));
    // Light load's p99 is bounded by batching wait + service, not by
    // queueing: it must stay under maxWait + a small service allowance.
    EXPECT_LT(light.latencyCycles.percentile(99.0),
              static_cast<double>(cfg.pipeline.batch.maxWaitCycles) + 50'000.0);
}

} // namespace
} // namespace hsu::serve
