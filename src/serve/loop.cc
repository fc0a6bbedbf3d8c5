#include "serve/loop.hh"

#include <algorithm>
#include <atomic>
#include <future>

#include "common/logging.hh"
#include "common/threadpool.hh"

namespace hsu::serve
{

namespace
{

/** The probe that loops constructed on this thread report to. */
thread_local SpeculationProbe *activeProbe = nullptr;

/** @p requests, once @p cfg's age trigger is known to force out a
 *  partial batch of the last one: its sub-queries reach their lanes
 *  last, and a trigger that never fires for them would leave that
 *  batch queued with nothing left to happen. */
const std::vector<Request> &
forcedStream(const LoopConfig &cfg, const std::vector<Request> &requests)
{
    if (requests.empty())
        return requests;
    const Cycle delivered = saturatingAdd(requests.back().arrivalCycle,
                                          cfg.scatterHopCycles);
    const Cycle wait = cfg.lanes.pipeline.batch.maxWaitCycles;
    if (saturatingAdd(delivered, wait) == kNeverCycle) {
        hsu_fatal("pipeline.batch.maxWaitCycles = ", wait,
                  ": a partial batch delivered at cycle ", delivered,
                  " would never be forced out");
    }
    return requests;
}

/** The memo key of @p exec's in-flight batch on @p shard. */
SimKey
keyOf(unsigned shard, const BatchExecutor &exec)
{
    SimKey key;
    key.shard = shard;
    key.queryIds.reserve(exec.batch().size());
    for (const Request &r : exec.batch())
        key.queryIds.push_back(r.queryId);
    key.degraded = exec.degraded();
    return key;
}

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

SpeculationProbe::SpeculationProbe(KernelCyclePredictor predict)
    : predictor(std::move(predict))
{
    hsu_assert(activeProbe == nullptr, "speculation probes nest");
    activeProbe = this;
}

SpeculationProbe::~SpeculationProbe()
{
    activeProbe = nullptr;
}

/**
 * What a loop shares with its run-ahead copies. The committed loop
 * launches and resolves its batches here, by executor slot; a copy
 * proposes the batches it forms, and settle() turns a run-ahead's
 * proposals into speculative simulations in the memo. Only the loop
 * thread calls in; the workers see their task and its drop flag.
 */
class ServeLoop::Engine
{
  public:
    Engine(const LoopConfig &config, std::size_t slots)
        : cfg(config), pool_(config.lanes.jobs), launched_(slots),
          cap_(pool_.numThreads()), probe_(activeProbe)
    {
        if (probe_ && probe_->predictor)
            predictor_ = probe_->predictor;
    }

    /** Drops the memo, so the pool's drain skips every speculative
     *  simulation that has not started. */
    ~Engine()
    {
        for (auto &[key, spec] : memo_)
            drop(spec);
        if (probe_) {
            probe_->stats.committed += stats_.committed;
            probe_->stats.memoHits += stats_.memoHits;
            probe_->stats.submitted += stats_.submitted;
            probe_->stats.dropped += stats_.dropped;
        }
    }

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const LoopConfig cfg;

    /** A run-ahead can overlap something: more than one worker. */
    bool speculates() const { return cap_ > 1; }

    /** Run-ahead length, in dispatches, and the cap on speculative
     *  simulations held in the memo: the worker count. */
    std::size_t cap() const { return cap_; }

    /** Launch the committed batch @p key on executor @p slot: take its
     *  simulation from the memo, else submit it. */
    void
    launch(std::size_t slot, SimKey &&key)
    {
        stats_.committed += 1;
        const auto it = memo_.find(key);
        if (it != memo_.end()) {
            stats_.memoHits += 1;
            launched_[slot] = std::move(it->second.sim);
            memo_.erase(it);
            return;
        }
        launched_[slot] = submit(std::move(key), nullptr);
    }

    /** Block for executor @p slot's simulation. */
    BatchSim resolve(std::size_t slot) { return launched_[slot].get(); }

    /** Predicted kernel cycles of a run-ahead copy's batch. */
    std::uint64_t
    predict(const SimKey &key, std::uint64_t lane_last) const
    {
        return predictor_ ? predictor_(key, lane_last) : lane_last;
    }

    /** A run-ahead copy formed @p key. */
    void propose(SimKey &&key) { proposals_.push_back(std::move(key)); }
    std::size_t proposals() const { return proposals_.size(); }

    /**
     * End a run-ahead: drop the memo entries it no longer predicts,
     * then submit its new proposals, nearest first, while the memo
     * holds fewer than cap() simulations.
     */
    void
    settle()
    {
        for (auto it = memo_.begin(); it != memo_.end();) {
            if (std::find(proposals_.begin(), proposals_.end(),
                          it->first) != proposals_.end()) {
                ++it;
                continue;
            }
            drop(it->second);
            it = memo_.erase(it);
        }
        for (SimKey &key : proposals_) {
            if (memo_.size() >= cap_)
                break;
            if (memo_.find(key) != memo_.end())
                continue;
            auto flag = std::make_shared<std::atomic<bool>>(false);
            std::future<BatchSim> sim = submit(key, flag);
            memo_.emplace(std::move(key),
                          Speculation{std::move(flag), std::move(sim)});
            stats_.submitted += 1;
        }
        proposals_.clear();
    }

  private:
    /** A speculative simulation and the flag that skips it unstarted. */
    struct Speculation
    {
        std::shared_ptr<std::atomic<bool>> dropped;
        std::future<BatchSim> sim;
    };

    void
    drop(Speculation &spec)
    {
        spec.dropped->store(true, std::memory_order_relaxed);
        stats_.dropped += 1;
    }

    /** Simulate @p key on the pool; a set @p skip flag makes the task
     *  return at once, unsimulated. The pool joins before cfg dies. */
    std::future<BatchSim>
    submit(SimKey key, std::shared_ptr<const std::atomic<bool>> skip)
    {
        return pool_.submit([this, key = std::move(key),
                             skip = std::move(skip)]() {
            if (skip && skip->load(std::memory_order_relaxed))
                return BatchSim{};
            const ServeKnobs knobs =
                key.degraded ? cfg.lanes.pipeline.degrade.degradedKnobs
                             : ServeKnobs{};
            return simulateBatch(cfg.lanes.gpu,
                                 cfg.shardEmitters[key.shard],
                                 key.queryIds, knobs);
        });
    }

    ThreadPool pool_;
    std::vector<std::future<BatchSim>> launched_; //!< per executor slot
    std::map<SimKey, Speculation> memo_;
    std::vector<SimKey> proposals_; //!< of the current run-ahead
    std::size_t cap_;
    KernelCyclePredictor predictor_;
    SpeculationProbe *probe_;
    SpeculationStats stats_;
};

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
                      const ServerConfig &cfg, DatasetId dataset)
    : shard(shard_idx), rec(recorder),
      pipe(cfg.pipeline, dataset, cfg.queryPoolSize, recorder)
{
    execs.assign(cfg.numInstances,
                 BatchExecutor(cfg.launchOverheadCycles, cfg.gpu.numSms,
                               recorder));
}

void
ServeLoop::Lane::detachRecorders()
{
    rec = {};
    pipe.detachRecorder();
    for (BatchExecutor &exec : execs)
        exec.detachRecorder();
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
    : requests_(forcedStream(cfg, requests)),
      engine_(std::make_shared<Engine>(
          cfg, cfg.shardEmitters.size() * cfg.replicasPerShard *
                   cfg.lanes.numInstances)),
      cfg_(engine_->cfg), routerRec_(routerRecorder(cfg)),
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
            lanes_.emplace_back(s, rec, cfg_.lanes, dataset);
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
    return advance();
}

bool
ServeLoop::advance()
{
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
    // dispatched here are launched before anything blocks on them, so
    // concurrently busy executors really simulate concurrently. A
    // run-ahead copy only proposes its batches to the engine.
    const std::size_t per_lane = cfg_.lanes.numInstances;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        Lane &lane = lanes_[l];
        for (std::size_t e = 0; e < per_lane; ++e) {
            BatchExecutor &exec = lane.execs[e];
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
            exec.dispatch(now_, std::move(formed));
            if (speculative_)
                engine_->propose(keyOf(lane.shard, exec));
            else
                engine_->launch(l * per_lane + e, keyOf(lane.shard, exec));
        }
    }
}

void
ServeLoop::resolveBusy()
{
    // Resolve in-flight completion times in lane order: blocking on
    // the first future lets the rest keep running in the pool. Before
    // each block the committed loop runs a copy of itself ahead, so
    // the pool also simulates the batches it will dispatch next; the
    // copy resolves on predictions instead.
    const std::size_t per_lane = cfg_.lanes.numInstances;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        Lane &lane = lanes_[l];
        for (std::size_t e = 0; e < per_lane; ++e) {
            BatchExecutor &exec = lane.execs[e];
            if (!exec.busy() || exec.resolved())
                continue;
            BatchSim sim;
            if (speculative_) {
                sim.cycles = engine_->predict(keyOf(lane.shard, exec),
                                              lane.lastKernelCycles);
            } else {
                runAhead();
                sim = engine_->resolve(l * per_lane + e);
                lane.lastKernelCycles = sim.cycles;
            }
            exec.resolve(sim, totals_);
        }
    }
}

void
ServeLoop::runAhead()
{
    // The copy first finishes this pass, then steps until it has
    // dispatched cap() batches. Its predictions and its recorders
    // touch nothing of the committed state.
    if (!engine_->speculates())
        return;
    ServeLoop ahead(*this);
    ahead.speculative_ = true;
    ahead.routerRec_ = {};
    ahead.cache_.detachRecorder();
    for (Lane &lane : ahead.lanes_)
        lane.detachRecorders();
    ahead.resolveBusy();
    if (ahead.advance()) {
        while (engine_->proposals() < engine_->cap() && ahead.step()) {
        }
    }
    engine_->settle();
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
    // sub-query was shed never produced an answer. Only full,
    // undegraded answers fill the router cache.
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
    } else if (!join.degraded) {
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
