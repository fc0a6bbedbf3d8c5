/**
 * @file
 * Scheduling-pipeline contracts.
 *
 * The tentpole guarantee of the serve/pipeline refactor is that the
 * composed pipeline (admission -> FIFO batcher -> degradation ->
 * ordering policy) reproduces the pre-refactor event loops EXACTLY
 * under the Fifo policy with the cache disabled. The golden reports
 * below were captured from the pre-refactor serve::Server and
 * shard::ClusterServer (hexfloat doubles pin the order-sensitive
 * histogram sums, not just the counters); any scheduling change that
 * shifts them is a regression, not noise. Cases E and F (a cache and
 * a stream the cluster router answers in part) were captured from the
 * two separate event loops before Server became a one-lane setup of
 * the cluster's loop (serve/loop).
 *
 * The Coherent policy's contracts are weaker by design — it reorders
 * WITHIN batches only, so batch membership, admission accounting, and
 * bit-identity across HSU_JOBS must all survive, while service times
 * may legitimately differ.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "serve/pipeline.hh"
#include "serve/policy.hh"
#include "serve/server.hh"
#include "shard/cluster.hh"

namespace hsu::serve
{
namespace
{

std::vector<Request>
mkStream(Algo algo, DatasetId ds, double rate, std::size_t n,
         Cycle deadline, std::uint64_t seed)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate;
    arr.queryPoolSize = 64;
    arr.deadlineCycles = deadline;
    arr.seed = seed;
    return ArrivalGenerator(arr, algo, ds).generate(n);
}

ServerConfig
goldenServerConfig(unsigned instances)
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

// Case A of the pre-refactor capture: B+tree, 2 instances, light
// overload, no deadlines, no degradation.
TEST(Pipeline, GoldenFifoBtreeServer)
{
    Server server(Algo::Btree, DatasetId::BTree10k,
                  goldenServerConfig(2));
    const ServeReport r = server.run(
        mkStream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 96, 0, 21));

    EXPECT_EQ(r.offered, 96u);
    EXPECT_EQ(r.admitted, 96u);
    EXPECT_EQ(r.completed, 96u);
    EXPECT_EQ(r.shedAdmission, 0u);
    EXPECT_EQ(r.shedExpired, 0u);
    EXPECT_EQ(r.degraded, 0u);
    EXPECT_EQ(r.batches, 30u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.lastCompletionCycle, 928'629u);
    EXPECT_EQ(r.latencyCycles.count(), 96u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.4bbfcp+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.5798p+14);
    EXPECT_EQ(r.queueWaitCycles.count(), 96u);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.22d27p+20);
    EXPECT_EQ(r.batchSize.count(), 30u);
    EXPECT_EQ(r.batchSize.sum(), 0x1.8p+6);
}

// Case B: GGNN under pressure — admission shedding and degraded
// knobs, long deadline (never expires).
TEST(Pipeline, GoldenFifoGgnnDegradedServer)
{
    ServerConfig cfg = goldenServerConfig(1);
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.shedWater = 24;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    Server server(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const ServeReport r = server.run(mkStream(
        Algo::Ggnn, DatasetId::Sift10k, 5.0e-3, 48, 3'000'000, 9));

    EXPECT_EQ(r.offered, 48u);
    EXPECT_EQ(r.admitted, 32u);
    EXPECT_EQ(r.completed, 32u);
    EXPECT_EQ(r.shedAdmission, 16u);
    EXPECT_EQ(r.shedExpired, 0u);
    EXPECT_EQ(r.degraded, 32u);
    EXPECT_EQ(r.batches, 4u);
    EXPECT_EQ(r.lastCompletionCycle, 90'056u);
    EXPECT_EQ(r.latencyCycles.count(), 32u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.a5803p+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.4f87p+16);
    EXPECT_EQ(r.queueWaitCycles.count(), 32u);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.f1ae6p+19);
    EXPECT_EQ(r.batchSize.count(), 4u);
    EXPECT_EQ(r.batchSize.sum(), 0x1p+5);
}

// Case B2: same pressure with a tight deadline — queued requests
// expire at batch formation.
TEST(Pipeline, GoldenFifoDeadlineExpiryServer)
{
    ServerConfig cfg = goldenServerConfig(1);
    cfg.pipeline.degrade.highWater = 4;
    cfg.pipeline.degrade.shedWater = 24;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    Server server(Algo::Ggnn, DatasetId::Sift10k, cfg);
    const ServeReport r = server.run(
        mkStream(Algo::Ggnn, DatasetId::Sift10k, 5.0e-3, 48, 60'000,
                 9));

    EXPECT_EQ(r.offered, 48u);
    EXPECT_EQ(r.admitted, 32u);
    EXPECT_EQ(r.completed, 24u);
    EXPECT_EQ(r.shedAdmission, 16u);
    EXPECT_EQ(r.shedExpired, 8u);
    EXPECT_EQ(r.degraded, 24u);
    EXPECT_EQ(r.batches, 3u);
    EXPECT_EQ(r.lastCompletionCycle, 68'699u);
    EXPECT_EQ(r.latencyCycles.count(), 24u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.fe42cp+19);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.0051p+16);
    EXPECT_EQ(r.queueWaitCycles.count(), 24u);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.f0bb8p+18);
    EXPECT_EQ(r.batchSize.count(), 3u);
    EXPECT_EQ(r.batchSize.sum(), 0x1.8p+4);
}

// Case C: a 1x1 zero-link cluster runs the SAME serving loop and must
// match both the golden numbers and the live server report — on this
// stream every request routes to the one shard (subqueries == 96).
TEST(Pipeline, GoldenFifoOneByOneCluster)
{
    const auto reqs =
        mkStream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 96, 0, 21);

    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numShards = 1;
    cfg.replicasPerShard = 1;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    shard::ClusterServer cluster(Algo::Btree, DatasetId::BTree10k,
                                 cfg);
    const shard::ClusterReport r = cluster.run(reqs);

    EXPECT_EQ(r.offered, 96u);
    EXPECT_EQ(r.completed, 96u);
    EXPECT_EQ(r.partialAnswers, 0u);
    EXPECT_EQ(r.shedRequests, 0u);
    EXPECT_EQ(r.subqueries, 96u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.lastCompletionCycle, 928'629u);
    EXPECT_EQ(r.latencyCycles.count(), 96u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.4bbfcp+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.5798p+14);
    ASSERT_EQ(r.shards.size(), 1u);
    EXPECT_EQ(r.shards[0].subqueries, 96u);
    EXPECT_EQ(r.shards[0].batches, 30u);
    EXPECT_EQ(r.shards[0].shedAdmission, 0u);
    EXPECT_EQ(r.shards[0].shedExpired, 0u);
    EXPECT_EQ(r.shards[0].degraded, 0u);
    EXPECT_EQ(r.shards[0].queueWaitCycles.sum(), 0x1.22d27p+20);

    Server server(Algo::Btree, DatasetId::BTree10k,
                  goldenServerConfig(1));
    const ServeReport single = server.run(reqs);
    EXPECT_EQ(r.lastCompletionCycle, single.lastCompletionCycle);
    EXPECT_EQ(r.latencyCycles.sum(), single.latencyCycles.sum());
    EXPECT_EQ(r.shards[0].queueWaitCycles.sum(),
              single.queueWaitCycles.sum());
}

// Case D: a 2-shard cluster with a real link and merge cost — pins
// the scatter/gather/join path through the refactored lanes.
TEST(Pipeline, GoldenFifoTwoShardCluster)
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numShards = 2;
    cfg.replicasPerShard = 1;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = 64;
    cfg.link.latencyCycles = 500;
    cfg.mergeCyclesPerShard = 100;
    shard::ClusterServer cluster(Algo::Bvhnn, DatasetId::Random10k,
                                 cfg);
    const shard::ClusterReport r = cluster.run(mkStream(
        Algo::Bvhnn, DatasetId::Random10k, 5.0e-5, 64, 0, 21));

    EXPECT_EQ(r.offered, 64u);
    EXPECT_EQ(r.completed, 64u);
    EXPECT_EQ(r.partialAnswers, 0u);
    EXPECT_EQ(r.shedRequests, 0u);
    EXPECT_EQ(r.subqueries, 68u);
    EXPECT_EQ(r.lastCompletionCycle, 1'218'651u);
    EXPECT_EQ(r.latencyCycles.count(), 64u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.ad264p+20);
    EXPECT_EQ(r.latencyCycles.max(), 0x1.2d86p+15);
    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].subqueries, 40u);
    EXPECT_EQ(r.shards[0].batches, 24u);
    EXPECT_EQ(r.shards[0].queueWaitCycles.sum(), 0x1.381dep+19);
    EXPECT_EQ(r.shards[1].subqueries, 28u);
    EXPECT_EQ(r.shards[1].batches, 18u);
    EXPECT_EQ(r.shards[1].queueWaitCycles.sum(), 0x1.bbf48p+18);
}

/** Print @p r's pinned fields, to re-pin after a failure. */
void
printPins(const ServeReport &r)
{
    std::printf("admitted %llu cacheHits %llu completed %llu batches %llu "
                "shedAdmission %llu shedExpired %llu degraded %llu "
                "last %llu latency %a queueWait %a\n",
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.cacheHits),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.shedAdmission),
                static_cast<unsigned long long>(r.shedExpired),
                static_cast<unsigned long long>(r.degraded),
                static_cast<unsigned long long>(r.lastCompletionCycle),
                r.latencyCycles.sum(), r.queueWaitCycles.sum());
}

// Case E: B+tree over the full 1024-query pool, some of whose keys
// fall outside the dataset's key range. The server queues and runs
// those requests like any other; a 1x1 cluster answers them at its
// router, so the two must not be compared on this stream.
TEST(Pipeline, GoldenBtreeFullPoolServer)
{
    ArrivalConfig arr;
    arr.ratePerCycle = 2.0e-3;
    arr.queryPoolSize = 1024;
    arr.seed = 17;
    const auto reqs =
        ArrivalGenerator(arr, Algo::Btree, DatasetId::BTree10k)
            .generate(1024);

    ServerConfig cfg = goldenServerConfig(2);
    cfg.pipeline.batch.maxBatch = 512;
    cfg.queryPoolSize = 1024;
    const ServeReport r =
        Server(Algo::Btree, DatasetId::BTree10k, cfg).run(reqs);

    EXPECT_EQ(r.offered, 1024u);
    EXPECT_EQ(r.admitted, 1024u);
    EXPECT_EQ(r.cacheHits, 0u);
    EXPECT_EQ(r.completed, 1024u);
    EXPECT_EQ(r.batches, 26u);
    EXPECT_EQ(r.shedAdmission, 0u);
    EXPECT_EQ(r.shedExpired, 0u);
    EXPECT_EQ(r.degraded, 0u);
    EXPECT_EQ(r.lastCompletionCycle, 542'049u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.a566bap+23);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.3d01e2p+23);
    if (HasFailure())
        printPins(r);

    shard::ClusterConfig ccfg;
    ccfg.gpu = cfg.gpu;
    ccfg.numShards = 1;
    ccfg.replicasPerShard = 1;
    ccfg.pipeline = cfg.pipeline;
    ccfg.queryPoolSize = 1024;
    const shard::ClusterReport c =
        shard::ClusterServer(Algo::Btree, DatasetId::BTree10k, ccfg)
            .run(reqs);
    EXPECT_LT(c.subqueries + c.cacheHits, c.offered)
        << "no request of this stream was answered at the router";
}

// Case F: a cached, degraded 2-instance server — a Zipf stream through
// a Tolerant cache, with a high watermark low enough that some batches
// run degraded (and, by default, do not fill the cache).
TEST(Pipeline, GoldenCachedDegradedServer)
{
    ArrivalConfig arr;
    arr.ratePerCycle = 4.0e-4;
    arr.queryPoolSize = 64;
    arr.queryDist = QueryDist::Zipf;
    arr.seed = 23;
    const auto reqs =
        ArrivalGenerator(arr, Algo::Ggnn, DatasetId::Sift10k).generate(192);

    ServerConfig cfg = goldenServerConfig(2);
    cfg.pipeline.degrade.highWater = 8;
    cfg.pipeline.degrade.shedWater = 24;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    cfg.pipeline.cache.capacity = 8;
    cfg.pipeline.cache.mode = CacheMode::Tolerant;
    cfg.pipeline.cache.toleranceLevels = 18;
    const ServeReport r =
        Server(Algo::Ggnn, DatasetId::Sift10k, cfg).run(reqs);

    EXPECT_EQ(r.offered, 192u);
    EXPECT_EQ(r.admitted, 192u);
    EXPECT_EQ(r.cacheHits, 65u);
    EXPECT_EQ(r.completed, 192u);
    EXPECT_EQ(r.batches, 23u);
    EXPECT_EQ(r.shedAdmission, 0u);
    EXPECT_EQ(r.shedExpired, 0u);
    EXPECT_EQ(r.degraded, 48u);
    EXPECT_EQ(r.lastCompletionCycle, 536'001u);
    EXPECT_EQ(r.latencyCycles.sum(), 0x1.23df2cp+22);
    EXPECT_EQ(r.queueWaitCycles.sum(), 0x1.4a381p+20);
    if (HasFailure())
        printPins(r);
}

TEST(Pipeline, OrderBatchSortsByCoherenceKey)
{
    constexpr std::size_t kPool = 64;
    const std::vector<std::uint64_t> &keys =
        serveQueryCoherenceKeys(DatasetId::Random10k, kPool);

    std::vector<Request> batch;
    for (const std::uint32_t q : {17u, 3u, 63u, 0u, 42u, 3u}) {
        Request r;
        r.id = batch.size();
        r.queryId = q;
        batch.push_back(r);
    }
    std::vector<Request> fifo = batch;
    orderBatch(BatchPolicyKind::Fifo, DatasetId::Random10k, kPool,
               fifo);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(fifo[i].id, batch[i].id); // Fifo never reorders

    orderBatch(BatchPolicyKind::Coherent, DatasetId::Random10k, kPool,
               batch);
    ASSERT_EQ(batch.size(), 6u);
    for (std::size_t i = 1; i < batch.size(); ++i) {
        const std::uint64_t ka = keys[batch[i - 1].queryId];
        const std::uint64_t kb = keys[batch[i].queryId];
        EXPECT_LE(ka, kb);
        if (ka == kb) { // equal keys break ties by stream id
            EXPECT_LT(batch[i - 1].id, batch[i].id);
        }
    }
}

TEST(Pipeline, CoherentPreservesMembershipAndAccounting)
{
    // Ordering policies only permute WITHIN batches: with shedding
    // disabled and no deadlines, admission and completion accounting
    // are policy-independent even under load.
    const auto reqs = mkStream(Algo::Bvhnn, DatasetId::Random10k,
                               2.0e-3, 96, 0, 5);
    ServerConfig cfg = goldenServerConfig(1);
    const ServeReport fifo =
        Server(Algo::Bvhnn, DatasetId::Random10k, cfg).run(reqs);
    cfg.pipeline.policy = BatchPolicyKind::Coherent;
    const ServeReport coh =
        Server(Algo::Bvhnn, DatasetId::Random10k, cfg).run(reqs);

    EXPECT_EQ(coh.offered, fifo.offered);
    EXPECT_EQ(coh.admitted, fifo.admitted);
    EXPECT_EQ(coh.completed, fifo.completed);
    EXPECT_EQ(coh.shedAdmission, 0u);
    EXPECT_EQ(coh.shedExpired, 0u);
    EXPECT_GT(coh.batches, 0u);
}

TEST(Pipeline, CoherentBitIdenticalAcrossJobs)
{
    const auto reqs = mkStream(Algo::Flann, DatasetId::Bunny, 1.0e-3,
                               64, 0, 21);
    ServerConfig cfg = goldenServerConfig(2);
    cfg.pipeline.policy = BatchPolicyKind::Coherent;

    cfg.jobs = 1;
    const ServeReport rep1 =
        Server(Algo::Flann, DatasetId::Bunny, cfg).run(reqs);
    cfg.jobs = 4;
    Server parallel(Algo::Flann, DatasetId::Bunny, cfg);
    const ServeReport rep4 = parallel.run(reqs);
    const ServeReport again = parallel.run(reqs);

    for (const ServeReport *r : {&rep4, &again}) {
        EXPECT_EQ(rep1.completed, r->completed);
        EXPECT_EQ(rep1.batches, r->batches);
        EXPECT_EQ(rep1.lastCompletionCycle, r->lastCompletionCycle);
        EXPECT_EQ(rep1.latencyCycles.sum(), r->latencyCycles.sum());
        EXPECT_EQ(rep1.queueWaitCycles.sum(),
                  r->queueWaitCycles.sum());
        EXPECT_EQ(rep1.kernelCycles, r->kernelCycles);
        EXPECT_EQ(rep1.l1Accesses, r->l1Accesses);
        EXPECT_EQ(rep1.l1Misses, r->l1Misses);
        EXPECT_EQ(rep1.rtuBusyCycles, r->rtuBusyCycles);
    }
}

TEST(Pipeline, ReportsMemorySystemTotals)
{
    Server server(Algo::Btree, DatasetId::BTree10k,
                  goldenServerConfig(1));
    const ServeReport r = server.run(
        mkStream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 32, 0, 7));
    EXPECT_GT(r.kernelCycles, 0u);
    EXPECT_EQ(r.smCycles, r.kernelCycles * 2); // numSms == 2
    EXPECT_GT(r.l1Accesses, 0.0);
    EXPECT_GE(r.l1Misses, 0.0);
    EXPECT_GT(r.l1HitRate(), 0.0);
    EXPECT_LE(r.l1HitRate(), 1.0);
    // The HSU config keeps the RT unit busy; residency is a fraction.
    EXPECT_GT(r.rtuBusyCycles, 0.0);
    EXPECT_GT(r.warpBufferResidency(), 0.0);
    EXPECT_LE(r.warpBufferResidency(), 1.0);
}

} // namespace
} // namespace hsu::serve
