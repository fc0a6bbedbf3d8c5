/**
 * @file
 * Cluster-server semantics: a 1x1 cluster with a zero-cost link
 * reproduces the single-instance server bit-for-bit on a stream that
 * routes every request to its one shard, reports are bit-identical
 * across HSU_JOBS, request accounting balances under overload and
 * shedding, the link model shifts the latency distribution, and the
 * cluster-level queue-wait histogram is the exact merge of the
 * per-shard ones.
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/server.hh"
#include "shard/cluster.hh"

namespace hsu::shard
{
namespace
{

using serve::ArrivalConfig;
using serve::ArrivalGenerator;
using serve::Request;
using serve::ServeReport;
using serve::Server;
using serve::ServerConfig;

constexpr std::uint32_t kPool = 64;

ClusterConfig
smallCluster(unsigned shards, unsigned replicas)
{
    ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numShards = shards;
    cfg.replicasPerShard = replicas;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.queryPoolSize = kPool;
    return cfg;
}

std::vector<Request>
stream(Algo algo, DatasetId dataset, double rate_per_cycle,
       std::size_t count, Cycle deadline = 0, std::uint64_t seed = 21)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate_per_cycle;
    arr.queryPoolSize = kPool;
    arr.deadlineCycles = deadline;
    arr.seed = seed;
    return ArrivalGenerator(arr, algo, dataset).generate(count);
}

void
expectSameReport(const ClusterReport &a, const ClusterReport &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.partialAnswers, b.partialAnswers);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.subqueries, b.subqueries);
    EXPECT_EQ(a.lastCompletionCycle, b.lastCompletionCycle);
    EXPECT_EQ(a.latencyCycles.count(), b.latencyCycles.count());
    EXPECT_DOUBLE_EQ(a.latencyCycles.sum(), b.latencyCycles.sum());
    EXPECT_DOUBLE_EQ(a.latencyCycles.max(), b.latencyCycles.max());
    for (const double p : {50.0, 95.0, 99.0}) {
        EXPECT_DOUBLE_EQ(a.latencyCycles.percentile(p),
                         b.latencyCycles.percentile(p));
    }
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        EXPECT_EQ(a.shards[s].subqueries, b.shards[s].subqueries);
        EXPECT_EQ(a.shards[s].batches, b.shards[s].batches);
        EXPECT_EQ(a.shards[s].shedAdmission,
                  b.shards[s].shedAdmission);
        EXPECT_EQ(a.shards[s].shedExpired, b.shards[s].shedExpired);
        EXPECT_EQ(a.shards[s].degraded, b.shards[s].degraded);
        EXPECT_DOUBLE_EQ(a.shards[s].queueWaitCycles.sum(),
                         b.shards[s].queueWaitCycles.sum());
    }
}

TEST(Cluster, OneByOneMatchesSingleServer)
{
    // A 1-shard, 1-replica cluster with a zero-cost interconnect and
    // zero merge cost is the single-instance server — same batches,
    // same cycles, same histograms — as long as every request routes
    // to the shard. The subqueries == offered check below is that
    // precondition: a B+tree key outside the key range routes nowhere
    // and is answered at the cluster's router, while the Server queues
    // it (Pipeline.GoldenBtreeFullPoolServer has such a stream).
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 5.0e-5, 96);

    ServerConfig scfg;
    scfg.gpu.numSms = 2;
    scfg.gpu.finalize();
    scfg.numInstances = 1;
    scfg.pipeline.batch.maxBatch = 8;
    scfg.pipeline.batch.maxWaitCycles = 20'000;
    scfg.queryPoolSize = kPool;
    Server server(Algo::Btree, DatasetId::BTree10k, scfg);
    const ServeReport single = server.run(reqs);

    ClusterServer cluster(Algo::Btree, DatasetId::BTree10k,
                          smallCluster(1, 1));
    const ClusterReport sharded = cluster.run(reqs);

    EXPECT_EQ(sharded.offered, single.offered);
    EXPECT_EQ(sharded.completed, single.completed);
    EXPECT_EQ(sharded.subqueries, single.offered); // fan-out 1
    EXPECT_EQ(sharded.shards.size(), 1u);
    EXPECT_EQ(sharded.shards[0].batches, single.batches);
    EXPECT_EQ(sharded.shards[0].shedAdmission, single.shedAdmission);
    EXPECT_EQ(sharded.shards[0].shedExpired, single.shedExpired);
    EXPECT_EQ(sharded.shards[0].degraded, single.degraded);
    EXPECT_EQ(sharded.lastCompletionCycle,
              single.lastCompletionCycle);
    EXPECT_EQ(sharded.latencyCycles.count(),
              single.latencyCycles.count());
    EXPECT_DOUBLE_EQ(sharded.latencyCycles.sum(),
                     single.latencyCycles.sum());
    EXPECT_DOUBLE_EQ(sharded.latencyCycles.max(),
                     single.latencyCycles.max());
    for (const double p : {50.0, 95.0, 99.0}) {
        EXPECT_DOUBLE_EQ(sharded.latencyCycles.percentile(p),
                         single.latencyCycles.percentile(p));
        EXPECT_DOUBLE_EQ(sharded.queueWaitCycles.percentile(p),
                         single.queueWaitCycles.percentile(p));
    }
}

TEST(Cluster, ConfigCheckNamesTheBadField)
{
    ClusterConfig cfg = smallCluster(2, 1);
    cfg.replicasPerShard = 0;
    EXPECT_DEATH(ClusterServer(Algo::Btree, DatasetId::BTree10k, cfg),
                 "ClusterConfig.replicasPerShard = 0");
    cfg = smallCluster(0, 1);
    EXPECT_DEATH(ClusterServer(Algo::Btree, DatasetId::BTree10k, cfg),
                 "ClusterConfig.numShards = 0");
}

TEST(Cluster, NeverForcedBatchWaitIsRejected)
{
    // The last sub-query reaches its lane a scatter hop after its
    // request; a wait that saturates from there never forces out the
    // partial batch it joins, so the run is refused up front.
    ClusterConfig cfg = smallCluster(2, 1);
    cfg.pipeline.batch.maxBatch = 32;
    cfg.link.latencyCycles = 500;
    std::vector<Request> reqs(3);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].queryId = static_cast<std::uint32_t>(i);
        reqs[i].arrivalCycle = 100 + i;
    }
    for (const Cycle wait : {kNeverCycle, kNeverCycle - 50}) {
        cfg.pipeline.batch.maxWaitCycles = wait;
        ClusterServer cluster(Algo::Btree, DatasetId::BTree10k, cfg);
        EXPECT_DEATH(cluster.run(reqs),
                     "pipeline.batch.maxWaitCycles = " +
                         std::to_string(wait));
    }
}

TEST(Cluster, BitIdenticalAcrossJobs)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 64);
    ClusterConfig cfg = smallCluster(2, 2);
    cfg.link.latencyCycles = 500;
    cfg.mergeCyclesPerShard = 100;

    cfg.jobs = 1;
    ClusterServer serial(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep1 = serial.run(reqs);

    cfg.jobs = 4;
    ClusterServer parallel(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep4 = parallel.run(reqs);
    expectSameReport(rep1, rep4);

    // And across repeated runs of the same cluster.
    const ClusterReport again = parallel.run(reqs);
    expectSameReport(rep4, again);
}

TEST(Cluster, BroadcastFanoutAndAccounting)
{
    // Radius queries on a spatial partitioning prune by shard bounds;
    // every request still resolves exactly once.
    const auto reqs =
        stream(Algo::Bvhnn, DatasetId::Random10k, 5.0e-5, 64);
    ClusterServer cluster(Algo::Bvhnn, DatasetId::Random10k,
                          smallCluster(4, 1));
    const ClusterReport rep = cluster.run(reqs);

    EXPECT_EQ(rep.offered, 64u);
    EXPECT_EQ(rep.completed + rep.shedRequests, rep.offered);
    EXPECT_EQ(rep.fanout.count(), rep.offered);
    EXPECT_LE(rep.fanout.max(), 4.0);
    // Every scattered sub-query was delivered to some shard.
    std::uint64_t delivered = 0;
    for (const ShardReport &s : rep.shards)
        delivered += s.subqueries;
    EXPECT_EQ(delivered, rep.subqueries);
    // Cluster queue-wait is the merge of the shard histograms.
    std::uint64_t shard_waits = 0;
    for (const ShardReport &s : rep.shards)
        shard_waits += s.queueWaitCycles.count();
    EXPECT_EQ(rep.queueWaitCycles.count(), shard_waits);
}

TEST(Cluster, KeyLookupsRouteToOneShard)
{
    for (const PartitionPolicy policy :
         {PartitionPolicy::Spatial, PartitionPolicy::Hash}) {
        ClusterConfig cfg = smallCluster(4, 1);
        cfg.partition = policy;
        const auto reqs =
            stream(Algo::Btree, DatasetId::BTree10k, 5.0e-5, 64);
        ClusterServer cluster(Algo::Btree, DatasetId::BTree10k, cfg);
        const ClusterReport rep = cluster.run(reqs);
        EXPECT_EQ(rep.completed + rep.shedRequests, rep.offered);
        EXPECT_LE(rep.fanout.max(), 1.0);
        EXPECT_EQ(rep.subqueries, rep.offered);
    }
}

TEST(Cluster, HotShardSheddingBalances)
{
    // Saturate four shards behind tiny queues: admission shedding
    // kicks in per lane, and the request accounting still balances —
    // a request with every sub-query shed is reported shed, one with
    // some answers is a partial completion.
    ClusterConfig cfg = smallCluster(4, 1);
    cfg.pipeline.degrade.shedWater = 4;
    cfg.pipeline.degrade.highWater = 2;
    const auto reqs =
        stream(Algo::Bvhnn, DatasetId::Random10k, 1.0e-2, 128);
    ClusterServer cluster(Algo::Bvhnn, DatasetId::Random10k, cfg);
    const ClusterReport rep = cluster.run(reqs);

    std::uint64_t shed = 0;
    for (const ShardReport &s : rep.shards)
        shed += s.shedAdmission;
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(rep.completed + rep.shedRequests, rep.offered);
    EXPECT_GE(rep.completed, rep.partialAnswers);
}

TEST(Cluster, ReplicasAbsorbLoad)
{
    // Same overload, 1 vs 2 replicas per shard: the extra replica
    // strictly reduces admission shedding.
    ClusterConfig one = smallCluster(2, 1);
    one.pipeline.degrade.shedWater = 4;
    ClusterConfig two = smallCluster(2, 2);
    two.pipeline.degrade.shedWater = 4;
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 5.0e-2, 128);

    const ClusterReport r1 =
        ClusterServer(Algo::Btree, DatasetId::BTree10k, one).run(reqs);
    const ClusterReport r2 =
        ClusterServer(Algo::Btree, DatasetId::BTree10k, two).run(reqs);
    std::uint64_t shed1 = 0, shed2 = 0;
    for (const ShardReport &s : r1.shards)
        shed1 += s.shedAdmission;
    for (const ShardReport &s : r2.shards)
        shed2 += s.shedAdmission;
    EXPECT_LT(shed2, shed1);
    EXPECT_GE(r2.completed, r1.completed);
}

TEST(Cluster, LoadBalancePoliciesAreDeterministic)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-3, 96);
    for (const LoadBalance lb : {LoadBalance::RoundRobin,
                                 LoadBalance::LeastOutstanding}) {
        ClusterConfig cfg = smallCluster(2, 2);
        cfg.balance = lb;
        ClusterServer a(Algo::Btree, DatasetId::BTree10k, cfg);
        ClusterServer b(Algo::Btree, DatasetId::BTree10k, cfg);
        expectSameReport(a.run(reqs), b.run(reqs));
    }
}

TEST(Cluster, LinkLatencyShiftsLatencyDistribution)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 2.0e-5, 48);
    ClusterConfig near = smallCluster(2, 1);
    ClusterConfig far = smallCluster(2, 1);
    far.link.latencyCycles = 10'000;
    far.link.bytesPerCycle = 0.01; // + bytes / 0.01 cycles per hop

    const ClusterReport fast =
        ClusterServer(Algo::Btree, DatasetId::BTree10k, near)
            .run(reqs);
    const ClusterReport slow =
        ClusterServer(Algo::Btree, DatasetId::BTree10k, far).run(reqs);
    ASSERT_GT(fast.completed, 0u);
    ASSERT_GT(slow.completed, 0u);
    // Every request pays at least scatter + gather extra.
    EXPECT_GT(slow.latencyCycles.percentile(50.0),
              fast.latencyCycles.percentile(50.0));
}

TEST(Cluster, DeadlineExpiryResolvesJoins)
{
    ClusterConfig cfg = smallCluster(2, 1);
    cfg.pipeline.degrade.shedWater = 1'000'000;
    const auto reqs = stream(Algo::Btree, DatasetId::BTree10k, 1.0e-2,
                             128, /*deadline=*/5'000);
    ClusterServer cluster(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep = cluster.run(reqs);

    std::uint64_t expired = 0;
    for (const ShardReport &s : rep.shards)
        expired += s.shedExpired;
    EXPECT_GT(expired, 0u);
    EXPECT_EQ(rep.completed + rep.shedRequests, rep.offered);
}

TEST(Cluster, CoherentPolicyBitIdenticalAcrossJobs)
{
    // The coherence sort happens per-lane AFTER routing, on data that
    // is a pure function of the batch contents — so the report must
    // stay bit-identical whatever HSU_JOBS says.
    const auto reqs =
        stream(Algo::Bvhnn, DatasetId::Random10k, 1.0e-3, 96);
    ClusterConfig cfg = smallCluster(2, 2);
    cfg.pipeline.policy = serve::BatchPolicyKind::Coherent;
    cfg.link.latencyCycles = 500;
    cfg.mergeCyclesPerShard = 100;
    cfg.jobs = 1;
    const ClusterReport r1 =
        ClusterServer(Algo::Bvhnn, DatasetId::Random10k, cfg)
            .run(reqs);
    cfg.jobs = 4;
    ClusterServer parallel(Algo::Bvhnn, DatasetId::Random10k, cfg);
    const ClusterReport r4 = parallel.run(reqs);
    expectSameReport(r1, r4);
    expectSameReport(r4, parallel.run(reqs));
}

TEST(Cluster, RouterCacheAnswersRepeatQueries)
{
    // A router-level answer cache intercepts repeats of popular
    // queries before they fan out: under a Zipf stream the cached
    // cluster completes the same requests while issuing strictly
    // fewer sub-queries.
    ArrivalConfig arr;
    arr.ratePerCycle = 1.0e-4;
    arr.queryPoolSize = kPool;
    arr.queryDist = serve::QueryDist::Zipf;
    arr.zipfExponent = 1.2;
    arr.seed = 33;
    const auto reqs =
        ArrivalGenerator(arr, Algo::Bvhnn, DatasetId::Random10k)
            .generate(128);

    ClusterConfig plain = smallCluster(2, 1);
    const ClusterReport base =
        ClusterServer(Algo::Bvhnn, DatasetId::Random10k, plain)
            .run(reqs);
    ClusterConfig cached = smallCluster(2, 1);
    cached.pipeline.cache.capacity = 32;
    const ClusterReport rep =
        ClusterServer(Algo::Bvhnn, DatasetId::Random10k, cached)
            .run(reqs);

    EXPECT_GT(rep.cacheHits, 0u);
    EXPECT_EQ(base.cacheHits, 0u);
    // Light load: nothing sheds either way, so completions match.
    EXPECT_EQ(rep.completed, base.completed);
    EXPECT_EQ(rep.completed + rep.shedRequests, rep.offered);
    // Hits never reach the shards.
    EXPECT_LT(rep.subqueries, base.subqueries);
    EXPECT_GT(rep.cacheHitRate(), 0.0);
}

} // namespace
} // namespace hsu::shard
