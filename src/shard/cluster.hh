/**
 * @file
 * Sharded multi-GPU serving cluster on the unified simulated clock.
 *
 * A ClusterServer serves one workload from N index shards x R
 * replicas per shard, as a setup of the serving event loop
 * (serve/loop) that serve::Server also runs: numShards x
 * replicasPerShard lanes, each one serve::QueryPipeline with one
 * serve::BatchExecutor whose batches run on its shard's sub-index
 * (the loop keeps one batch emitter per shard). The router
 * fans each request that misses its answer cache out to the shards
 * its query can touch (shard/shard_index routeQuery: broadcast for
 * kNN, range-pruned for radius queries, single-owner for key
 * lookups), picks a replica per sub-query under a load-balancing
 * policy, and joins the partial answers with a deterministic top-k
 * merge (shard/merge — the timing model charges the merge, the answer
 * layer shard/answers pins its value). Scatter and gather hops cross
 * a fixed-latency + bandwidth link. With the Coherent policy each lane
 * sorts its OWN formed batches after routing, so per-shard batches
 * stay Morton-compact even though the router splits the stream.
 *
 * Reports are bit-identical for any HSU_JOBS (tests/shard/
 * test_cluster.cc pins this). A 1x1 cluster with a zero-cost link
 * matches a 1-instance serve::Server exactly as long as every request
 * routes to the one shard; a query that routes nowhere (a B+tree key
 * outside the dataset's key range) is answered at the cluster's
 * router, while the Server, which never routes, queues and runs it.
 */

#ifndef HSU_SHARD_CLUSTER_HH
#define HSU_SHARD_CLUSTER_HH

#include <cstdint>
#include <vector>

#include "serve/loop.hh"
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

using serve::LoadBalance;

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
     *  cache member configures the router's answer cache; lanes
     *  have none. */
    serve::PipelineConfig pipeline;
    std::uint32_t queryPoolSize = 1024;
    Cycle launchOverheadCycles = 1'000;
    /** Scatter/gather interconnect. Defaults to a zero-cost link. */
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

using serve::ClusterReport;
using serve::ShardReport;

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
