/**
 * @file
 * Sharded multi-GPU serving cluster on the unified simulated clock.
 *
 * A ClusterServer extends the single-instance server (serve/server) to
 * N index shards x R replicas per shard. One router receives the
 * open-loop request stream, fans each request out to the shards its
 * query can touch (shard/shard_index routeQuery: broadcast for kNN,
 * range-pruned for radius queries, single-owner for key lookups),
 * picks a replica per sub-query under a load-balancing policy, and
 * joins the partial answers with a deterministic top-k merge
 * (shard/merge — the timing model charges the merge, the answer layer
 * shard/answers pins its value).
 *
 * Every (shard, replica) lane composes the same serve::QueryPipeline +
 * serve::BatchExecutor pair as the single server (serve/pipeline), so
 * admission shedding, degraded knobs, deadline expiry, and the
 * batch-ordering policy are one implementation, not two. Lane
 * pipelines run with their answer cache disabled; the cluster instead
 * keeps ONE router-level answer cache in front of routing — a hit
 * answers the whole request before it scatters (the merged answer is
 * what the cache conceptually holds; only full, non-partial answers
 * fill it). With the Coherent policy each lane sorts its OWN formed
 * batches after routing, so per-shard batches stay Morton-compact even
 * though the router splits the stream. Scatter and gather
 * hops cross an interconnect with a fixed-latency + bandwidth link
 * model; a request completes when its last surviving sub-query's
 * result has crossed back and merged:
 *
 *     completion = max over sub-queries (lane completion + gather hop)
 *                + merge cost.
 *
 * Determinism: arrivals are processed in stream order, scatter
 * messages in send order, lanes in index order; batch simulations fan
 * out over an hsu::ThreadPool but are pure functions resolved in lane
 * order. Reports are bit-identical for any HSU_JOBS
 * (tests/shard/test_cluster.cc pins this), and a 1x1 cluster with a
 * zero-cost link reproduces serve::Server exactly.
 */

#ifndef HSU_SHARD_CLUSTER_HH
#define HSU_SHARD_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hh"
#include "shard/partition.hh"

namespace hsu::shard
{

/** Interconnect cost model for one router<->shard hop. */
struct LinkModel
{
    /** Fixed per-message latency (cycles). */
    Cycle latencyCycles = 0;
    /** Link bandwidth; 0 disables the bandwidth term. */
    double bytesPerCycle = 0.0;

    /** Cycles for one message of @p bytes. */
    Cycle
    hopCycles(std::uint64_t bytes) const
    {
        Cycle t = latencyCycles;
        if (bytesPerCycle > 0.0) {
            t += static_cast<Cycle>(
                static_cast<double>(bytes) / bytesPerCycle);
        }
        return t;
    }
};

/** Replica-selection policy for sub-queries within one shard. */
enum class LoadBalance : std::uint8_t
{
    RoundRobin,       //!< cycle replicas per sub-query
    LeastOutstanding, //!< fewest queued + in-flight; ties to lowest
};

std::string toString(LoadBalance policy);

/** Full cluster configuration. */
struct ClusterConfig
{
    /** Per-replica GPU; rtUnitEnabled selects HSU vs Baseline
     *  lowering for every shard batch. */
    GpuConfig gpu;
    PartitionPolicy partition = PartitionPolicy::Spatial;
    unsigned numShards = 2;
    unsigned replicasPerShard = 1;
    LoadBalance balance = LoadBalance::RoundRobin;
    /** Scheduling stages, applied per lane (serve semantics). The
     *  cache member configures the ROUTER-level answer cache; lane
     *  pipelines always run with caching disabled. */
    serve::PipelineConfig pipeline;
    std::uint32_t queryPoolSize = 1024;
    Cycle launchOverheadCycles = 1'000;
    /** Scatter/gather interconnect. Defaults to a zero-cost link so a
     *  1x1 cluster degenerates to the single-instance server. */
    LinkModel link;
    /** Router-side merge cost per contributing shard answer. */
    Cycle mergeCyclesPerShard = 0;
    /** Payload sizes for the link's bandwidth term. */
    std::uint64_t scatterBytes = 64;
    std::uint64_t gatherBytes = 128;
    /** Simulation worker threads; 0 -> HSU_JOBS / hardware. */
    unsigned jobs = 0;
    /** Optional schedule-audit sink (analysis/schedule_log): lane
     *  events record under the lane's index, router events (routing,
     *  scatter/gather hops, joins, the router answer cache) under
     *  kRouterLane. Null disables recording; must outlive the run. */
    ScheduleLog *scheduleLog = nullptr;
};

/** Per-shard slice of a cluster run (replicas aggregated). */
struct ShardReport
{
    std::uint64_t subqueries = 0;    //!< delivered to this shard
    std::uint64_t batches = 0;       //!< kernel launches
    std::uint64_t shedAdmission = 0; //!< lane queue at shedWater
    std::uint64_t shedExpired = 0;   //!< dropped at batch formation
    std::uint64_t degraded = 0;      //!< served with degraded knobs
    Histogram queueWaitCycles;       //!< delivery -> dispatch
};

/** Aggregate results of one open-loop cluster run. */
struct ClusterReport
{
    std::uint64_t offered = 0;   //!< requests in the input stream
    std::uint64_t completed = 0; //!< merged with >= 1 shard answer
    /** Completed, but >= 1 sub-query was shed (partial answer). */
    std::uint64_t partialAnswers = 0;
    /** Every routed sub-query shed: no answer at all. */
    std::uint64_t shedRequests = 0;
    std::uint64_t subqueries = 0; //!< total scatter fan-out
    /** Answered by the router cache (never routed; counted in
     *  completed, not in fanout/subqueries). */
    std::uint64_t cacheHits = 0;
    Cycle lastCompletionCycle = 0;

    Histogram latencyCycles; //!< arrival -> merged, per request
    Histogram fanout;        //!< shards touched per request
    Histogram batchSize;     //!< requests per launch, cluster-wide
    /** Cluster-wide queue wait: Histogram::merge over the per-shard
     *  histograms (tested against oracle percentiles). */
    Histogram queueWaitCycles;

    std::vector<ShardReport> shards;

    /** Memory-system sums over every lane batch simulation
     *  (serve::SimTotals; deterministic resolve-order accumulation). */
    std::uint64_t kernelCycles = 0; //!< summed batch kernel cycles
    std::uint64_t smCycles = 0;     //!< kernel cycles x numSms
    double l1Accesses = 0;
    double l1Misses = 0;
    double rtuBusyCycles = 0;       //!< 0 on the non-RT baseline

    double
    achievedQps() const
    {
        if (lastCompletionCycle == 0)
            return 0.0;
        return static_cast<double>(completed) /
               (static_cast<double>(lastCompletionCycle) /
                serve::kClockHz);
    }

    double
    latencyUs(double p) const
    {
        return latencyCycles.percentile(p) / serve::kClockHz * 1.0e6;
    }

    /** Fraction of requests with degraded or missing answers. */
    double
    shedFraction() const
    {
        return offered ? static_cast<double>(partialAnswers +
                                             shedRequests) /
                             static_cast<double>(offered)
                       : 0.0;
    }

    /** L1 hit rate over every lane batch simulation. */
    double
    l1HitRate() const
    {
        return l1Accesses > 0 ? 1.0 - l1Misses / l1Accesses : 0.0;
    }

    /** RT-unit busy fraction of the cluster's SM-cycle budget. */
    double
    warpBufferResidency() const
    {
        return smCycles ? rtuBusyCycles / static_cast<double>(smCycles)
                        : 0.0;
    }

    /** Router answer-cache hit rate over the offered stream. */
    double
    cacheHitRate() const
    {
        return offered ? static_cast<double>(cacheHits) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/** The sharded serving engine for one (algo, dataset) workload. */
class ClusterServer
{
  public:
    ClusterServer(Algo algo, DatasetId dataset,
                  const ClusterConfig &cfg);

    /**
     * Replay @p requests (nondecreasing arrival order) to completion.
     * Deterministic: depends only on the stream and the config, never
     * on HSU_JOBS.
     */
    ClusterReport run(const std::vector<serve::Request> &requests);

  private:
    Algo algo_;
    DatasetId dataset_;
    ClusterConfig cfg_;
};

} // namespace hsu::shard

#endif // HSU_SHARD_CLUSTER_HH
