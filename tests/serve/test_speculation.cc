/**
 * @file
 * The serving loop's run-ahead changes no result. A Server run and a
 * cluster run (Zipf stream, router cache on) give reports and schedule
 * logs pinned before the loop speculated, under the default predictor
 * and two adversarial ones (always 0, always 2^40), at HSU_JOBS 1, 2
 * and 4. With an oracle predictor at 4 workers most committed batches
 * are taken from the memo, by an exact count; with one worker nothing
 * is speculated.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/loop.hh"
#include "serve/server.hh"
#include "shard/cluster.hh"

namespace hsu::serve
{
namespace
{

constexpr std::uint32_t kPool = 64;

/** Two instances behind one queue, as the serve benchmark runs them;
 *  overload, low watermarks and deadlines make some batches degraded
 *  and some requests shed or expire. */
ServerConfig
serverConfig(unsigned jobs, ScheduleLog *log)
{
    ServerConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numInstances = 2;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.pipeline.degrade.highWater = 24;
    cfg.pipeline.degrade.shedWater = 36;
    cfg.pipeline.degrade.degradedKnobs = ServeKnobs{8, 4};
    cfg.queryPoolSize = kPool;
    cfg.jobs = jobs;
    cfg.scheduleLog = log;
    return cfg;
}

std::vector<Request>
serverStream()
{
    ArrivalConfig arr;
    arr.ratePerCycle = 1.0e-3;
    arr.queryPoolSize = kPool;
    arr.deadlineCycles = 40'000;
    arr.seed = 41;
    return ArrivalGenerator(arr, Algo::Ggnn, DatasetId::Sift10k)
        .generate(240);
}

/** Two shards x two replicas behind a router with an answer cache, a
 *  link and a merge cost. */
shard::ClusterConfig
clusterConfig(unsigned jobs, ScheduleLog *log)
{
    shard::ClusterConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numShards = 2;
    cfg.replicasPerShard = 2;
    cfg.balance = LoadBalance::LeastOutstanding;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.pipeline.cache.capacity = 16;
    cfg.queryPoolSize = kPool;
    cfg.link.latencyCycles = 500;
    cfg.mergeCyclesPerShard = 100;
    cfg.jobs = jobs;
    cfg.scheduleLog = log;
    return cfg;
}

std::vector<Request>
clusterStream()
{
    ArrivalConfig arr;
    arr.ratePerCycle = 4.0e-4;
    arr.queryPoolSize = kPool;
    arr.queryDist = QueryDist::Zipf;
    arr.zipfExponent = 1.2;
    arr.seed = 43;
    return ArrivalGenerator(arr, Algo::Bvhnn, DatasetId::Random10k)
        .generate(192);
}

ServeReport
runServer(unsigned jobs, ScheduleLog *log)
{
    return Server(Algo::Ggnn, DatasetId::Sift10k, serverConfig(jobs, log))
        .run(serverStream());
}

ClusterReport
runCluster(unsigned jobs, ScheduleLog *log)
{
    return shard::ClusterServer(Algo::Bvhnn, DatasetId::Random10k,
                                clusterConfig(jobs, log))
        .run(clusterStream());
}

/** FNV-1a over every field of every event, in log order. */
std::uint64_t
logDigest(const ScheduleLog &log)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const ScheduleEvent &e : log.events) {
        mix(e.cycle);
        mix(e.a);
        mix(e.b);
        mix(e.c);
        mix(e.lane);
        mix(static_cast<std::uint64_t>(e.kind));
    }
    return h;
}

/** The report fields both frontends share, and the log. */
void
expectServingPins(const ServingReport &r, const ScheduleLog &log,
                  std::uint64_t completed, std::uint64_t cache_hits,
                  Cycle last, double latency_sum, double queue_wait_sum,
                  double batch_sum, std::uint64_t kernel_cycles,
                  double l1_accesses, double l1_misses, double rtu_busy,
                  std::size_t events, std::uint64_t digest)
{
    EXPECT_EQ(r.completed, completed);
    EXPECT_EQ(r.cacheHits, cache_hits);
    EXPECT_EQ(r.lastCompletionCycle, last);
    EXPECT_EQ(r.latencyCycles.sum(), latency_sum);
    EXPECT_EQ(r.queueWaitCycles.sum(), queue_wait_sum);
    EXPECT_EQ(r.batchSize.sum(), batch_sum);
    EXPECT_EQ(r.kernelCycles, kernel_cycles);
    EXPECT_EQ(r.smCycles, kernel_cycles * 2); // numSms == 2
    EXPECT_EQ(r.l1Accesses, l1_accesses);
    EXPECT_EQ(r.l1Misses, l1_misses);
    EXPECT_EQ(r.rtuBusyCycles, rtu_busy);
    EXPECT_EQ(log.events.size(), events);
    EXPECT_EQ(logDigest(log), digest);
}

/** Print the pinned fields, to re-pin after an intended change. */
void
printPins(const ServingReport &r, const ScheduleLog &log)
{
    std::printf("completed %llu cacheHits %llu last %llu latency %a "
                "queueWait %a batch %a kernel %llu l1 %a/%a rtu %a "
                "events %zu digest 0x%llx\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.cacheHits),
                static_cast<unsigned long long>(r.lastCompletionCycle),
                r.latencyCycles.sum(), r.queueWaitCycles.sum(),
                r.batchSize.sum(),
                static_cast<unsigned long long>(r.kernelCycles),
                r.l1Accesses, r.l1Misses, r.rtuBusyCycles,
                log.events.size(),
                static_cast<unsigned long long>(logDigest(log)));
}

/** The adversarial predictors and the default (empty). */
std::vector<std::pair<const char *, KernelCyclePredictor>>
predictors()
{
    return {
        {"default", {}},
        {"zero", [](const SimKey &, std::uint64_t) { return 0ull; }},
        {"2^40",
         [](const SimKey &, std::uint64_t) { return 1ull << 40; }},
    };
}

// Pins captured before the loop ran ahead.
void
expectServerPins(const ServeReport &r, const ScheduleLog &log)
{
    EXPECT_EQ(r.offered, 240u);
    EXPECT_EQ(r.admitted, 227u);
    EXPECT_EQ(r.shedAdmission, 13u);
    EXPECT_EQ(r.shedExpired, 27u);
    EXPECT_EQ(r.degraded, 168u);
    EXPECT_EQ(r.batches, 25u);
    expectServingPins(r, log, 200, 0, 320'973, 0x1.45be14p+23,
                      0x1.634d88p+22, 0x1.9p+7, 581'581, 0x1.394b8p+17,
                      0x1.fee9p+16, 0x1.4e52p+18, 1704,
                      0xd4f5d0aa72fa3290ull);
}

void
expectClusterPins(const ClusterReport &r, const ScheduleLog &log)
{
    EXPECT_EQ(r.offered, 192u);
    EXPECT_EQ(r.partialAnswers, 0u);
    EXPECT_EQ(r.shedRequests, 0u);
    EXPECT_EQ(r.subqueries, 87u);
    EXPECT_EQ(r.fanout.sum(), 0x1.5cp+6);
    ASSERT_EQ(r.shards.size(), 2u);
    EXPECT_EQ(r.shards[0].batches, 23u);
    EXPECT_EQ(r.shards[1].batches, 23u);
    EXPECT_EQ(r.shards[0].queueWaitCycles.sum(), 0x1.3e1b6p+19);
    EXPECT_EQ(r.shards[1].queueWaitCycles.sum(), 0x1.5a038p+19);
    expectServingPins(r, log, 192, 108, 440'789, 0x1.345cb8p+21,
                      0x1.4c0f7p+20, 0x1.5cp+6, 378'778, 0x1.f8cp+11,
                      0x1.654p+11, 0x1.11ap+12, 1073,
                      0xe2c7417084192693ull);
}

TEST(Speculation, ServerResultsAreUnchanged)
{
    for (const auto &[name, predictor] : predictors()) {
        for (const unsigned jobs : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(name) + " predictor, jobs " +
                         std::to_string(jobs));
            ScheduleLog log;
            SpeculationProbe probe(predictor);
            const ServeReport r = runServer(jobs, &log);
            expectServerPins(r, log);
            EXPECT_EQ(probe.stats.committed, r.batches);
            if (HasFailure()) {
                printPins(r, log);
                return;
            }
        }
    }
}

TEST(Speculation, ClusterResultsAreUnchanged)
{
    for (const auto &[name, predictor] : predictors()) {
        for (const unsigned jobs : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(name) + " predictor, jobs " +
                         std::to_string(jobs));
            ScheduleLog log;
            SpeculationProbe probe(predictor);
            const ClusterReport r = runCluster(jobs, &log);
            expectClusterPins(r, log);
            EXPECT_EQ(probe.stats.committed, r.batchSize.count());
            if (HasFailure()) {
                printPins(r, log);
                return;
            }
        }
    }
}

/** Every committed batch's simulation key and kernel cycles, read back
 *  from @p log (lanes are numbered shard-major, @p replicas each). */
std::map<SimKey, std::uint64_t>
batchCycles(const ScheduleLog &log, unsigned replicas)
{
    std::map<std::pair<std::uint32_t, std::uint64_t>, SimKey> keys;
    std::map<SimKey, std::uint64_t> cycles;
    for (const ScheduleEvent &e : log.events) {
        switch (e.kind) {
          case ScheduleEventKind::Dispatch: {
            SimKey &key = keys[{e.lane, e.a}];
            key.shard = e.lane / replicas;
            key.degraded = e.c != 0;
            break;
          }
          case ScheduleEventKind::DispatchMember:
            keys[{e.lane, e.c}].queryIds.push_back(
                static_cast<std::uint32_t>(e.b));
            break;
          case ScheduleEventKind::Resolve:
            cycles[keys.at({e.lane, e.a})] = e.b;
            break;
          default:
            break;
        }
    }
    return cycles;
}

/** Predicts every batch the committed loop will form exactly. */
KernelCyclePredictor
oracle(std::map<SimKey, std::uint64_t> table)
{
    return [table = std::move(table)](const SimKey &key,
                                      std::uint64_t lane_last) {
        const auto it = table.find(key);
        return it != table.end() ? it->second : lane_last;
    };
}

TEST(Speculation, OracleRunAheadFeedsTheCommittedLoop)
{
    ScheduleLog serverLog;
    const ServeReport server = runServer(1, &serverLog);
    ScheduleLog clusterLog;
    const ClusterReport cluster = runCluster(1, &clusterLog);

    {
        // Every batch but the first, which nothing ran ahead of.
        SpeculationProbe probe(oracle(batchCycles(serverLog, 1)));
        runServer(4, nullptr);
        EXPECT_EQ(probe.stats.committed, 25u);
        EXPECT_EQ(probe.stats.committed, server.batches);
        EXPECT_EQ(probe.stats.memoHits, 24u);
        EXPECT_EQ(probe.stats.submitted, 24u);
        EXPECT_EQ(probe.stats.dropped, 0u);
    }
    {
        SpeculationProbe probe(oracle(batchCycles(clusterLog, 2)));
        runCluster(4, nullptr);
        EXPECT_EQ(probe.stats.committed, 46u);
        EXPECT_EQ(probe.stats.committed, cluster.batchSize.count());
        EXPECT_EQ(probe.stats.memoHits, 45u);
        EXPECT_EQ(probe.stats.submitted, 45u);
        EXPECT_EQ(probe.stats.dropped, 0u);
    }
}

TEST(Speculation, OneWorkerNeverSpeculates)
{
    SpeculationProbe probe;
    const ServeReport server = runServer(1, nullptr);
    const ClusterReport cluster = runCluster(1, nullptr);
    EXPECT_EQ(probe.stats.committed,
              server.batches + cluster.batchSize.count());
    EXPECT_EQ(probe.stats.memoHits, 0u);
    EXPECT_EQ(probe.stats.submitted, 0u);
    EXPECT_EQ(probe.stats.dropped, 0u);
}

} // namespace
} // namespace hsu::serve
