#include "serve/server.hh"

#include "serve/loop.hh"

namespace hsu::serve
{

Server::Server(Algo algo, DatasetId dataset, const ServerConfig &cfg)
    : algo_(algo), dataset_(dataset), cfg_(cfg)
{
    requireNonZero({{"ServerConfig.numInstances", cfg_.numInstances},
                    {"ServerConfig.queryPoolSize", cfg_.queryPoolSize},
                    {"ServerConfig.pipeline.degrade.shedWater",
                     cfg_.pipeline.degrade.shedWater}});
}

ServeReport
Server::run(const std::vector<Request> &requests)
{
    // One lane behind a router that sends it every request, over a
    // zero-cost link with no merge.
    LoopConfig loop;
    loop.lanes = cfg_;
    const KernelVariant variant = cfg_.gpu.rtUnitEnabled
                                      ? KernelVariant::Hsu
                                      : KernelVariant::Baseline;
    loop.shardEmitters.push_back(
        [algo = algo_, dataset = dataset_, variant, dp = cfg_.gpu.datapath,
         pool_size = cfg_.queryPoolSize](
            const std::vector<std::uint32_t> &ids,
            const ServeKnobs &knobs) {
            return emitBatchTrace(algo, dataset, variant, dp, ids,
                                  pool_size, knobs);
        });
    ClusterReport r = ServeLoop(algo_, dataset_, loop, requests).run();

    // Every request reaches the one lane unless the cache answers it.
    const ShardReport &lane = r.shards[0];
    ServeReport report;
    report.admitted = r.offered - lane.shedAdmission;
    report.shedAdmission = lane.shedAdmission;
    report.shedExpired = lane.shedExpired;
    report.degraded = lane.degraded;
    report.batches = lane.batches;
    static_cast<ServingReport &>(report) = std::move(r);
    return report;
}

} // namespace hsu::serve
