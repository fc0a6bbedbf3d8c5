/**
 * @file
 * Schedule recording on the real cluster: logs recorded by
 * shard::ClusterServer (router + per-lane pipelines) lint clean under
 * the full SV/SH/CH rule set, attaching the recorder does not perturb
 * the cluster report, and the recorded log is bit-identical across
 * HSU_JOBS.
 */

#include <gtest/gtest.h>

#include "analysis/schedule_lint.hh"
#include "shard/cluster.hh"

namespace hsu::shard
{
namespace
{

using serve::ArrivalConfig;
using serve::ArrivalGenerator;
using serve::Request;

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
    cfg.link.latencyCycles = 500;
    cfg.link.bytesPerCycle = 16.0;
    cfg.mergeCyclesPerShard = 100;
    return cfg;
}

std::vector<Request>
stream(Algo algo, DatasetId dataset, double rate_per_cycle,
       std::size_t count, Cycle deadline = 0)
{
    ArrivalConfig arr;
    arr.ratePerCycle = rate_per_cycle;
    arr.queryPoolSize = kPool;
    arr.deadlineCycles = deadline;
    arr.queryDist = serve::QueryDist::Zipf;
    arr.seed = 21;
    return ArrivalGenerator(arr, algo, dataset).generate(count);
}

void
expectSameReport(const ClusterReport &a, const ClusterReport &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.subqueries, b.subqueries);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.lastCompletionCycle, b.lastCompletionCycle);
    EXPECT_DOUBLE_EQ(a.latencyCycles.sum(), b.latencyCycles.sum());
}

void
expectSameLog(const ScheduleLog &a, const ScheduleLog &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const ScheduleEvent &x = a.events[i];
        const ScheduleEvent &y = b.events[i];
        EXPECT_EQ(x.cycle, y.cycle) << "event " << i;
        EXPECT_EQ(x.a, y.a) << "event " << i;
        EXPECT_EQ(x.b, y.b) << "event " << i;
        EXPECT_EQ(x.c, y.c) << "event " << i;
        EXPECT_EQ(x.lane, y.lane) << "event " << i;
        EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind))
            << "event " << i;
    }
}

TEST(ScheduleCluster, ClusterLogLintsCleanAcrossPolicies)
{
    // Router cache + real link/merge costs + tight lane watermarks:
    // the log carries routed, scattered, gathered, shed, and cached
    // decisions for the SH and CH families.
    const auto reqs =
        stream(Algo::Bvhnn, DatasetId::Random10k, 1.0e-3, 96);
    for (const PartitionPolicy policy :
         {PartitionPolicy::Spatial, PartitionPolicy::Hash}) {
        ClusterConfig cfg = smallCluster(2, 2);
        cfg.partition = policy;
        cfg.pipeline.policy = serve::BatchPolicyKind::Coherent;
        cfg.pipeline.degrade.highWater = 8;
        cfg.pipeline.degrade.shedWater = 24;
        cfg.pipeline.cache.capacity = 8;
        ScheduleLog log;
        cfg.scheduleLog = &log;
        ClusterServer cluster(Algo::Bvhnn, DatasetId::Random10k, cfg);
        cluster.run(reqs);

        EXPECT_GT(log.events.size(), reqs.size());
        const LintReport report = lintScheduleLog(log);
        EXPECT_TRUE(report.clean())
            << toString(policy) << ":\n"
            << report.str();
    }
}

TEST(ScheduleCluster, RecorderDoesNotPerturbCluster)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-4, 64);
    ClusterConfig cfg = smallCluster(2, 2);
    cfg.pipeline.cache.capacity = 8;
    ClusterServer plain(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport without = plain.run(reqs);

    ScheduleLog log;
    cfg.scheduleLog = &log;
    ClusterServer recorded(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport with = recorded.run(reqs);

    expectSameReport(without, with);
    EXPECT_FALSE(log.events.empty());
}

TEST(ScheduleCluster, LogBitIdenticalAcrossJobs)
{
    const auto reqs =
        stream(Algo::Btree, DatasetId::BTree10k, 1.0e-3, 64);
    ClusterConfig cfg = smallCluster(2, 2);
    cfg.pipeline.cache.capacity = 8;

    ScheduleLog serialLog;
    cfg.jobs = 1;
    cfg.scheduleLog = &serialLog;
    ClusterServer serial(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep1 = serial.run(reqs);

    ScheduleLog parallelLog;
    cfg.jobs = 4;
    cfg.scheduleLog = &parallelLog;
    ClusterServer parallel(Algo::Btree, DatasetId::BTree10k, cfg);
    const ClusterReport rep4 = parallel.run(reqs);

    expectSameReport(rep1, rep4);
    expectSameLog(serialLog, parallelLog);
    EXPECT_TRUE(lintScheduleLog(parallelLog).clean())
        << lintScheduleLog(parallelLog).str();
}

} // namespace
} // namespace hsu::shard
