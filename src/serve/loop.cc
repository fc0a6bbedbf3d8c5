#include "serve/loop.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu::serve
{

namespace
{

/** The router's recorder, after recording the link and merge costs:
 *  the first router event of every run. */
ScheduleRecorder
routerRecorder(const LoopConfig &cfg)
{
    const ScheduleRecorder rec(cfg.lanes.scheduleLog, kRouterLane);
    rec.record(0, ScheduleEventKind::ClusterConfig, cfg.scatterHopCycles,
               cfg.gatherHopCycles, cfg.mergeCyclesPerShard);
    return rec;
}

} // namespace

void
requireNonZero(
    std::initializer_list<std::pair<const char *, std::uint64_t>> fields)
{
    for (const auto &[name, value] : fields) {
        if (value == 0)
            hsu_fatal(name, " = 0: a serving run needs it positive");
    }
}

ServeLoop::Lane::Lane(unsigned shard_idx, ScheduleRecorder recorder,
                      const ServerConfig &cfg, DatasetId dataset,
                      const BatchTraceEmitter &emitter)
    : shard(shard_idx), rec(recorder),
      pipe(cfg.pipeline, dataset, cfg.queryPoolSize, recorder)
{
    execs.reserve(cfg.numInstances);
    for (unsigned i = 0; i < cfg.numInstances; ++i) {
        execs.emplace_back(cfg.gpu, cfg.launchOverheadCycles,
                           cfg.pipeline.degrade.degradedKnobs, emitter,
                           recorder);
    }
}

std::size_t
ServeLoop::Lane::outstanding() const
{
    std::size_t n = pipe.pending();
    for (const BatchExecutor &exec : execs)
        n += exec.busy() ? exec.batch().size() : 0;
    return n;
}

ServeLoop::ServeLoop(Algo algo, DatasetId dataset, const LoopConfig &cfg,
                     const std::vector<Request> &requests)
    : cfg_(cfg), requests_(requests),
      pool_(cfg.lanes.jobs), routerRec_(routerRecorder(cfg)),
      cache_(cfg.lanes.pipeline.cache, algo, dataset,
             cfg.lanes.queryPoolSize, routerRec_)
{
    const std::size_t shards = cfg_.shardEmitters.size();
    lanes_.reserve(shards * cfg_.replicasPerShard);
    for (unsigned s = 0; s < shards; ++s) {
        for (unsigned r = 0; r < cfg_.replicasPerShard; ++r) {
            const ScheduleRecorder rec(
                cfg_.lanes.scheduleLog,
                static_cast<std::uint32_t>(lanes_.size()));
            lanes_.emplace_back(s, rec, cfg_.lanes, dataset,
                                cfg_.shardEmitters[s]);
        }
    }
    rrNext_.assign(shards, 0);
    report_.offered = requests_.size();
    report_.shards.resize(shards);
}

bool
ServeLoop::drained() const
{
    return nextArrival_ >= requests_.size() && scatter_.empty() &&
           std::all_of(lanes_.begin(), lanes_.end(), [](const Lane &l) {
               return l.pipe.pending() == 0 &&
                      std::none_of(l.execs.begin(), l.execs.end(),
                                   [](const BatchExecutor &e) {
                                       return e.busy();
                                   });
           });
}

bool
ServeLoop::step()
{
    if (drained())
        return false;
    dispatchReady();
    resolveBusy();
    // Batch formation may have drained the queues purely through
    // deadline expiry; nothing is left to schedule then.
    if (drained())
        return false;

    now_ = std::max(now_, nextEvent());

    // Completions first (frees executors and bounds queues), then
    // scatter messages that have crossed the link by now, in send
    // (FIFO) order, then the arrivals up to the current cycle.
    retireDone();
    while (!scatter_.empty() && scatter_.front().deliverCycle <= now_) {
        deliver(scatter_.front());
        scatter_.pop_front();
    }
    while (nextArrival_ < requests_.size() &&
           requests_[nextArrival_].arrivalCycle <= now_) {
        admit(requests_[nextArrival_++]);
    }
    return true;
}

ClusterReport
ServeLoop::run()
{
    while (step()) {
    }
    hsu_assert(inflight_.empty(), "requests left unresolved");
    hsu_assert(report_.completed + report_.shedRequests ==
                   report_.offered,
               "request accounting does not balance");

    // Scheduling counters live in the lane pipelines; fold them into
    // the per-shard slices (u64 sums, order-independent).
    for (const Lane &lane : lanes_) {
        ShardReport &shard = report_.shards[lane.shard];
        const PipelineStats &sched = lane.pipe.stats();
        shard.batches += sched.batches;
        shard.shedAdmission += sched.shedAdmission;
        shard.shedExpired += sched.shedExpired;
        shard.degraded += sched.degraded;
    }
    report_.cacheHits = cache_.hits();
    report_.kernelCycles = totals_.kernelCycles;
    report_.smCycles = totals_.smCycles;
    report_.l1Accesses = totals_.l1Accesses;
    report_.l1Misses = totals_.l1Misses;
    report_.rtuBusyCycles = totals_.rtuBusyCycles;

    // Cluster-level queue-wait percentiles: log-bucket-aligned merge
    // of the per-shard histograms (common/stats Histogram::merge).
    for (const ShardReport &shard : report_.shards)
        report_.queueWaitCycles.merge(shard.queueWaitCycles);
    return report_;
}

void
ServeLoop::dispatchReady()
{
    // Fill every idle executor whose lane has a ready batch. All sims
    // dispatched here are submitted before anything blocks on them, so
    // concurrently busy executors really simulate concurrently.
    for (Lane &lane : lanes_) {
        for (BatchExecutor &exec : lane.execs) {
            if (exec.busy())
                continue;
            if (!lane.pipe.batchReady(now_))
                break;
            FormedBatch formed = lane.pipe.formBatch(
                now_, report_.shards[lane.shard].queueWaitCycles,
                report_.batchSize);
            for (const Request &r : formed.expired)
                subqueryResolved(r.id, false, 0, false);
            if (formed.requests.empty())
                continue; // everything pending had expired
            exec.dispatch(pool_, now_, std::move(formed));
        }
    }
}

void
ServeLoop::resolveBusy()
{
    // Resolve in-flight completion times in lane order: blocking on
    // the first future lets the rest keep running in the pool.
    for (Lane &lane : lanes_) {
        for (BatchExecutor &exec : lane.execs)
            exec.resolve(totals_);
    }
}

Cycle
ServeLoop::nextEvent() const
{
    Cycle next = kNeverCycle;
    if (nextArrival_ < requests_.size())
        next = std::min(next, requests_[nextArrival_].arrivalCycle);
    if (!scatter_.empty())
        next = std::min(next, scatter_.front().deliverCycle);
    for (const Lane &lane : lanes_) {
        bool idle = false;
        for (const BatchExecutor &exec : lane.execs) {
            if (exec.busy())
                next = std::min(next, exec.readyCycle());
            else
                idle = true;
        }
        // The queue's age trigger matters only while an executor can
        // take the batch.
        if (idle)
            next = std::min(next, lane.pipe.nextForceCycle());
    }
    hsu_assert(next != kNeverCycle, "serving loop wedged at cycle ",
               now_);
    return next;
}

void
ServeLoop::retireDone()
{
    // In lane and executor order, for a deterministic join/histogram
    // fill. Each sub-answer crosses the gather hop before it merges.
    for (Lane &lane : lanes_) {
        for (BatchExecutor &exec : lane.execs) {
            if (!exec.busy() || exec.readyCycle() > now_)
                continue;
            const Cycle ready = exec.readyCycle();
            const Cycle merged = ready + cfg_.gatherHopCycles;
            for (const Request &r : exec.batch()) {
                lane.rec.record(ready, ScheduleEventKind::Gather, r.id,
                                ready, merged);
                subqueryResolved(r.id, true, merged, exec.degraded());
            }
            exec.finish();
        }
    }
}

void
ServeLoop::admit(const Request &req)
{
    // Probe the router cache, else route, pick a replica per target
    // shard, and put the sub-queries on the wire (zero-latency links
    // deliver inline, keeping the arrival order of lane admissions).
    hsu_assert(req.queryId < cfg_.lanes.queryPoolSize,
               "request query id outside the serving pool");
    if (cache_.lookup(req.queryId, req.arrivalCycle)) {
        complete(req.arrivalCycle,
                 req.arrivalCycle +
                     cfg_.lanes.pipeline.cache.hitLatencyCycles);
        return;
    }
    const std::vector<std::uint32_t> targets =
        cfg_.route ? cfg_.route(req.queryId)
                   : std::vector<std::uint32_t>{0};
    routerRec_.record(req.arrivalCycle, ScheduleEventKind::RouterRoute,
                      req.id, req.queryId, targets.size());
    report_.fanout.add(static_cast<double>(targets.size()));
    report_.subqueries += targets.size();
    if (targets.empty()) {
        // Provably-empty answer (key in no shard's range / radius
        // reaching no shard): answered at the router.
        complete(req.arrivalCycle, req.arrivalCycle);
        return;
    }
    Join join;
    join.arrivalCycle = req.arrivalCycle;
    join.queryId = req.queryId;
    join.remaining = static_cast<std::uint32_t>(targets.size());
    hsu_assert(inflight_.emplace(req.id, join).second,
               "duplicate request id ", req.id);
    for (const std::uint32_t s : targets) {
        const ScatterMsg msg{req.arrivalCycle + cfg_.scatterHopCycles,
                             pickLane(s), req};
        routerRec_.record(req.arrivalCycle, ScheduleEventKind::Scatter,
                          req.id, msg.lane, msg.deliverCycle);
        if (msg.deliverCycle <= now_)
            deliver(msg);
        else
            scatter_.push_back(msg);
    }
}

std::size_t
ServeLoop::pickLane(std::uint32_t shard)
{
    const unsigned replicas = cfg_.replicasPerShard;
    const std::size_t first = std::size_t{shard} * replicas;
    if (cfg_.balance == LoadBalance::RoundRobin) {
        const std::size_t lane = first + rrNext_[shard];
        rrNext_[shard] = (rrNext_[shard] + 1) % replicas;
        return lane;
    }
    std::size_t best = first;
    for (std::size_t l = first + 1; l < first + replicas; ++l) {
        if (lanes_[l].outstanding() < lanes_[best].outstanding())
            best = l;
    }
    return best;
}

void
ServeLoop::deliver(const ScatterMsg &msg)
{
    // The lane pipeline applies admission shedding per replica.
    Lane &lane = lanes_[msg.lane];
    report_.shards[lane.shard].subqueries += 1;
    Request sub = msg.req;
    sub.arrivalCycle = msg.deliverCycle;
    if (lane.pipe.admit(sub) == Admission::Shed)
        subqueryResolved(msg.req.id, false, 0, false);
}

void
ServeLoop::subqueryResolved(std::uint64_t id, bool served, Cycle ready,
                            bool degraded)
{
    const auto it = inflight_.find(id);
    hsu_assert(it != inflight_.end(),
               "sub-query resolved for unknown request ", id);
    Join &join = it->second;
    hsu_assert(join.remaining > 0, "join over-resolved");
    join.remaining -= 1;
    if (served) {
        join.served += 1;
        join.degraded = join.degraded || degraded;
        join.readyMax = std::max(join.readyMax, ready);
    } else {
        join.shed += 1;
        routerRec_.record(now_, ScheduleEventKind::SubShed, id);
    }
    if (join.remaining == 0) {
        finalize(id, join);
        inflight_.erase(it);
    }
}

void
ServeLoop::finalize(std::uint64_t id, const Join &join)
{
    // The merge is charged per answering shard; a request whose every
    // sub-query was shed never produced an answer. Full answers fill
    // the router cache (degraded ones only when configured).
    if (join.served == 0) {
        report_.shedRequests += 1;
        routerRec_.record(0, ScheduleEventKind::JoinDone, id, join.served,
                          join.shed);
        return;
    }
    const Cycle done =
        join.readyMax +
        cfg_.mergeCyclesPerShard * static_cast<Cycle>(join.served);
    if (join.shed > 0) {
        report_.partialAnswers += 1;
    } else if (!join.degraded ||
               cfg_.lanes.pipeline.cache.cacheDegraded) {
        cache_.insert(join.queryId, done);
    }
    routerRec_.record(done, ScheduleEventKind::JoinDone, id, join.served,
                      join.shed);
    complete(join.arrivalCycle, done);
}

void
ServeLoop::complete(Cycle arrival, Cycle done)
{
    report_.completed += 1;
    report_.latencyCycles.add(static_cast<double>(done - arrival));
    report_.lastCompletionCycle =
        std::max(report_.lastCompletionCycle, done);
}

} // namespace hsu::serve
