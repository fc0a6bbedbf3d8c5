/**
 * @file
 * The serving event loop every frontend runs.
 *
 * A run is N shards x R replica lanes behind one router, on one
 * simulated clock. A lane is one QueryPipeline (its queue and
 * scheduling stages) plus one or more BatchExecutors (the simulated
 * GPU instances that drain it). The router takes the open-loop
 * request stream in arrival order, probes the answer cache (a hit
 * completes after cache.hitLatencyCycles, before any routing), routes
 * a miss to its target shards, picks a replica lane per shard under
 * the load-balance policy, and puts one sub-query per target on the
 * scatter link. A request completes when its last surviving
 * sub-answer has crossed the gather link and merged:
 *
 *     completion = max over sub-queries (lane completion + gather hop)
 *                + merge cost x answering shards.
 *
 * The frontends differ only in how they set the loop up:
 *  - serve::Server is one lane with numInstances executors behind its
 *    queue; its router sends every request to that lane, over a
 *    zero-cost link with no merge cost. It never routes.
 *  - shard::ClusterServer is numShards x replicasPerShard one-executor
 *    lanes, routed by shard::routeQuery, with its link and merge cost.
 * So a 1x1 cluster matches a 1-instance Server exactly while every
 * request routes to the one shard: a query that routes nowhere (a
 * B+tree key outside the dataset's key range) is answered at the
 * cluster's router, while the Server queues and runs it.
 *
 * Only full, undegraded answers fill the cache; lanes keep no cache
 * of their own.
 *
 * Determinism: arrivals are processed in stream order, scatter
 * messages in send order, lanes and their executors in index order;
 * batch simulations fan out over an hsu::ThreadPool but are pure
 * functions resolved in lane order. Reports and schedule logs are
 * bit-identical for any HSU_JOBS (tests/shard/test_cluster.cc,
 * tests/serve/test_schedule_log.cc and tests/serve/
 * test_speculation.cc pin this).
 *
 * Run-ahead: a loop is a copyable committed state plus an engine that
 * owns the worker pool and a per-run memo of batch simulations keyed
 * by SimKey. Before the committed loop blocks on an unresolved batch,
 * it copies its state, recording detached, and steps the copy ahead
 * for a bounded number of dispatches on predicted kernel cycles; each
 * batch the copy forms is simulated speculatively into the memo. The
 * committed loop takes a simulation from the memo when the batch it
 * formed has the same key, and submits it otherwise, so it only ever
 * reads simulations of its own batches: a wrong prediction costs CPU,
 * never a cycle, stat or answer. With one worker nothing can overlap
 * and the loop never speculates.
 */

#ifndef HSU_SERVE_LOOP_HH
#define HSU_SERVE_LOOP_HH

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "serve/server.hh"

namespace hsu::serve
{

/** Replica-selection policy for sub-queries within one shard. */
enum class LoadBalance : std::uint8_t
{
    RoundRobin,       //!< cycle replicas per sub-query
    LeastOutstanding, //!< fewest queued + in-flight; ties to lowest
};

/** Per-shard slice of a run (replicas aggregated). */
struct ShardReport
{
    std::uint64_t subqueries = 0;    //!< delivered to this shard
    std::uint64_t batches = 0;       //!< kernel launches
    std::uint64_t shedAdmission = 0; //!< lane queue at shedWater
    std::uint64_t shedExpired = 0;   //!< dropped at batch formation
    std::uint64_t degraded = 0;      //!< served with degraded knobs
    Histogram queueWaitCycles;       //!< delivery -> dispatch
};

/** Aggregate results of one open-loop run of the loop. */
struct ClusterReport : ServingReport
{
    /** Completed, but >= 1 sub-query was shed (partial answer). */
    std::uint64_t partialAnswers = 0;
    /** Every routed sub-query shed: no answer at all. */
    std::uint64_t shedRequests = 0;
    /** Total scatter fan-out (cache hits are never routed). */
    std::uint64_t subqueries = 0;
    Histogram fanout; //!< shards touched per request
    std::vector<ShardReport> shards;

    /** Fraction of requests with degraded or missing answers. */
    double
    shedFraction() const
    {
        return offered ? static_cast<double>(partialAnswers +
                                             shedRequests) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/**
 * The config check of every serving frontend: fatal, naming the field
 * (as "ServerConfig.numInstances = 0"), when any of @p fields is zero.
 * Frontends pass their lane, replica and executor counts, the query
 * pool size and pipeline.degrade.shedWater (0 would shed everything).
 */
void requireNonZero(
    std::initializer_list<std::pair<const char *, std::uint64_t>> fields);

/** A frontend's setup of one ServeLoop run. */
struct LoopConfig
{
    /** Every lane's setup: the GPU, lanes.numInstances executors
     *  behind each lane's queue, the scheduling stages, query pool,
     *  launch overhead, worker threads and schedule log. Its
     *  pipeline.cache configures the router's answer cache. */
    ServerConfig lanes;
    /** One batch emitter per shard; their count is the shard count. */
    std::vector<BatchTraceEmitter> shardEmitters;
    unsigned replicasPerShard = 1;
    LoadBalance balance = LoadBalance::RoundRobin;
    /** Target shards of a query id, ascending; an empty list is
     *  answered at the router. Null sends every request to shard 0. */
    std::function<std::vector<std::uint32_t>(std::uint32_t query_id)>
        route;
    Cycle scatterHopCycles = 0;
    Cycle gatherHopCycles = 0;
    /** Router-side merge cost per answering shard. */
    Cycle mergeCyclesPerShard = 0;
};

/**
 * The memo key of one batch simulation. Within a run the GPU config,
 * each shard's emitter and both knob sets are fixed, so the key fixes
 * the simulation's result.
 */
struct SimKey
{
    std::uint32_t shard = 0;
    std::vector<std::uint32_t> queryIds; //!< launch order
    bool degraded = false;

    auto operator<=>(const SimKey &) const = default;
};

/** Predicted kernel cycles of batch @p key for a run-ahead copy, given
 *  the kernel cycles its lane last resolved in the committed loop
 *  (0 before the first). The default returns @p lane_last. */
using KernelCyclePredictor = std::function<std::uint64_t(
    const SimKey &key, std::uint64_t lane_last)>;

/** What the run-ahead did, summed over the runs a probe watched. */
struct SpeculationStats
{
    std::uint64_t committed = 0; //!< batches the committed loop launched
    std::uint64_t memoHits = 0;  //!< of those, simulated ahead
    std::uint64_t submitted = 0; //!< speculative simulations submitted
    std::uint64_t dropped = 0;   //!< of those, never read
};

/**
 * Test seam of the run-ahead. While a probe is alive, every ServeLoop
 * constructed on its thread predicts with its predictor (the default
 * when empty) and adds its counts into stats when it is destroyed.
 * No frontend config reaches this; the probe must outlive the loops.
 */
struct SpeculationProbe
{
    explicit SpeculationProbe(KernelCyclePredictor predict = {});
    ~SpeculationProbe();
    SpeculationProbe(const SpeculationProbe &) = delete;
    SpeculationProbe &operator=(const SpeculationProbe &) = delete;

    KernelCyclePredictor predictor;
    SpeculationStats stats;
};

/**
 * One run of the serving event loop over a request stream. The run's
 * committed state lives here and copies by value: lanes, the scatter
 * link, in-flight joins, the router cache, the clock and the report
 * being filled. The engine it shares with its run-ahead copies holds
 * the config, the worker pool and the simulation memo.
 */
class ServeLoop
{
  public:
    /** @p requests (nondecreasing arrival order) must outlive the
     *  loop. Schedule events of the router start here. Fatal, naming
     *  the field, when pipeline.batch.maxWaitCycles would never force
     *  out a partial batch of the last request. */
    ServeLoop(Algo algo, DatasetId dataset, const LoopConfig &cfg,
              const std::vector<Request> &requests);

    /**
     * One pass of the loop: launch every idle executor whose lane has
     * a ready batch, resolve in-flight simulations, advance the clock
     * to the next event (an arrival, a scatter delivery, a batch
     * completion or an idle lane's age trigger), then retire the
     * batches done by then, deliver the sub-queries that have crossed
     * the link and admit the arrivals. Returns false, without doing
     * anything, once the stream has drained.
     */
    bool step();

    /** Step until the stream drains; return the finished report. */
    ClusterReport run();

  private:
    /** The config, worker pool, in-flight simulations and memo. */
    class Engine;

    /** One queue and the executors behind it, serving one shard. */
    struct Lane
    {
        /** cfg.numInstances executors, all recording under
         *  @p recorder's lane. */
        Lane(unsigned shard_idx, ScheduleRecorder recorder,
             const ServerConfig &cfg, DatasetId dataset);

        unsigned shard;
        ScheduleRecorder rec;
        QueryPipeline pipe;
        std::vector<BatchExecutor> execs;
        /** Kernel cycles of the lane's last resolved batch: the
         *  default prediction for its unresolved ones. */
        std::uint64_t lastKernelCycles = 0;

        /** Queued plus in-flight sub-queries (the LeastOutstanding
         *  load signal). */
        std::size_t outstanding() const;
        void detachRecorders();
    };

    /** A sub-query crossing the scatter link, due at deliverCycle. */
    struct ScatterMsg
    {
        Cycle deliverCycle = 0;
        std::size_t lane = 0;
        Request req;
    };

    /** Router-side join state of one in-flight request. */
    struct Join
    {
        Cycle arrivalCycle = 0;
        std::uint32_t queryId = 0;   //!< for the router answer cache
        std::uint32_t remaining = 0; //!< sub-queries not yet resolved
        std::uint32_t served = 0;
        std::uint32_t shed = 0;
        bool degraded = false; //!< any sub-answer ran degraded
        Cycle readyMax = 0;    //!< latest gathered sub-answer
    };

    /** A run-ahead copy: the same state, sharing the engine. */
    ServeLoop(const ServeLoop &) = default;

    bool drained() const;
    void dispatchReady();
    void resolveBusy();
    /** The rest of a pass after resolveBusy(): advance the clock,
     *  retire, deliver and admit. False once the stream drained. */
    bool advance();
    /** Step a copy ahead on predicted cycles, speculating on the
     *  batches it forms (no-op with one worker). */
    void runAhead();
    Cycle nextEvent() const;
    void retireDone();
    void admit(const Request &req);
    std::size_t pickLane(std::uint32_t shard);
    void deliver(const ScatterMsg &msg);
    void subqueryResolved(std::uint64_t id, bool served, Cycle ready,
                          bool degraded);
    void finalize(std::uint64_t id, const Join &join);
    void complete(Cycle arrival, Cycle done);

    const std::vector<Request> &requests_;
    std::shared_ptr<Engine> engine_;
    const LoopConfig &cfg_; //!< the engine's
    bool speculative_ = false; //!< a run-ahead copy
    ScheduleRecorder routerRec_;
    AnswerCache cache_;
    std::vector<Lane> lanes_;
    std::vector<std::size_t> rrNext_; //!< per shard: next replica
    std::deque<ScatterMsg> scatter_;
    std::map<std::uint64_t, Join> inflight_;
    std::size_t nextArrival_ = 0;
    Cycle now_ = 0;
    ClusterReport report_;
    SimTotals totals_;
};

} // namespace hsu::serve

#endif // HSU_SERVE_LOOP_HH
