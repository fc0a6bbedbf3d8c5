#include "shard/cluster.hh"

#include "shard/shard_index.hh"

namespace hsu::shard
{

ClusterServer::ClusterServer(Algo algo, DatasetId dataset,
                             const ClusterConfig &cfg)
    : algo_(algo), dataset_(dataset), cfg_(cfg)
{
    serve::requireNonZero(
        {{"ClusterConfig.numShards", cfg_.numShards},
         {"ClusterConfig.replicasPerShard", cfg_.replicasPerShard},
         {"ClusterConfig.queryPoolSize", cfg_.queryPoolSize},
         {"ClusterConfig.pipeline.degrade.shedWater",
          cfg_.pipeline.degrade.shedWater}});
}

ClusterReport
ClusterServer::run(const std::vector<serve::Request> &requests)
{
    // numShards x replicasPerShard one-executor lanes behind a router
    // that routes, pays the link and charges the merge.
    serve::LoopConfig loop;
    loop.lanes.gpu = cfg_.gpu;
    loop.lanes.pipeline = cfg_.pipeline;
    loop.lanes.queryPoolSize = cfg_.queryPoolSize;
    loop.lanes.launchOverheadCycles = cfg_.launchOverheadCycles;
    loop.lanes.jobs = cfg_.jobs;
    loop.lanes.scheduleLog = cfg_.scheduleLog;
    const KernelVariant variant = cfg_.gpu.rtUnitEnabled
                                      ? KernelVariant::Hsu
                                      : KernelVariant::Baseline;
    for (unsigned s = 0; s < cfg_.numShards; ++s) {
        loop.shardEmitters.push_back(
            [algo = algo_,
             key = ShardKey{dataset_, cfg_.partition, cfg_.numShards, s},
             variant, dp = cfg_.gpu.datapath,
             pool_size = cfg_.queryPoolSize](
                const std::vector<std::uint32_t> &ids,
                const ServeKnobs &knobs) {
                return emitShardBatchTrace(algo, key, variant, dp, ids,
                                           pool_size, knobs);
            });
    }
    loop.replicasPerShard = cfg_.replicasPerShard;
    loop.balance = cfg_.balance;
    const Partitioning &part =
        cachedPartitioning(dataset_, cfg_.partition, cfg_.numShards);
    loop.route = [algo = algo_, &part,
                  pool_size = cfg_.queryPoolSize](std::uint32_t query_id) {
        return routeQuery(algo, part, query_id, pool_size);
    };
    loop.scatterHopCycles = cfg_.link.hopCycles(cfg_.scatterBytes);
    loop.gatherHopCycles = cfg_.link.hopCycles(cfg_.gatherBytes);
    loop.mergeCyclesPerShard = cfg_.mergeCyclesPerShard;
    return serve::ServeLoop(algo_, dataset_, loop, requests).run();
}

} // namespace hsu::shard
