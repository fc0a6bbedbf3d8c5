/**
 * @file
 * The query-scheduling pieces every serving lane is built from.
 *
 * The serving event loop (serve/loop) runs lanes of two composable
 * pieces:
 *
 *  - QueryPipeline: the scheduling stages between "sub-query reaches
 *    its lane" and "batch is ready to launch":
 *
 *        admit:     shed check -> FIFO queue
 *        formBatch: deadline expiry -> degradation decision
 *                   -> batch-ordering policy (serve/policy)
 *
 *    All admission/shed/degrade/expiry accounting lives here
 *    (PipelineStats); latency/completion accounting stays with the
 *    loop, which owns the simulated clock. The answer cache is not a
 *    stage: it sits in front of routing, at the loop's router.
 *
 *  - BatchExecutor: one simulated GPU instance's in-flight batch.
 *    dispatch() launches a formed batch on the loop's clock; resolve()
 *    takes the batch's kernel simulation (simulateBatch, a pure
 *    function of batch contents, so cycle counts are bit-identical for
 *    any HSU_JOBS), fixes the completion cycle and accumulates the
 *    memory-system counters (SimTotals) the serving reports surface
 *    (L1 hit rate, RT-unit/warp-buffer residency). Where and when the
 *    simulation runs is the loop's business (serve/loop).
 *
 * Determinism contract: golden reports (tests/serve/
 * test_serve_pipeline.cc) pin the composed pipeline through both
 * frontends. Histogram fills (double sums, order-sensitive) go through
 * caller-owned sinks in FIFO pop order, BEFORE any policy reordering.
 *
 * Auditing: both pieces optionally record their decisions into a
 * ScheduleLog (analysis/schedule_log) through a by-value
 * ScheduleRecorder — a null-check no-op when no log is attached — for
 * replay by the schedule linter (analysis/schedule_lint, SV rules).
 *
 * Both pieces are plain values: a copy replays the same decisions
 * (the serving loop copies its lanes to run ahead, recording
 * detached).
 */

#ifndef HSU_SERVE_PIPELINE_HH
#define HSU_SERVE_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/schedule_log.hh"
#include "common/stats.hh"
#include "search/runner.hh"
#include "serve/arrivals.hh"
#include "serve/batcher.hh"
#include "serve/cache.hh"
#include "serve/policy.hh"
#include "sim/config.hh"
#include "sim/trace.hh"

namespace hsu::serve
{

/** Overload-response knobs. */
struct DegradePolicy
{
    /** Queue depth at which batches switch to degraded knobs. */
    std::size_t highWater = 96;
    /** Queue depth at which new arrivals are shed outright. */
    std::size_t shedWater = 512;
    /** Degraded GGNN knobs (beam width / k under pressure). */
    ServeKnobs degradedKnobs{16, 10};
};

/** Everything the scheduling stages need, in one bundle. */
struct PipelineConfig
{
    /** Batch-formation triggers (size / age). */
    BatchPolicy batch;
    /** Batch-ordering policy applied to each formed batch. */
    BatchPolicyKind policy = BatchPolicyKind::Fifo;
    DegradePolicy degrade;
    /** Answer cache in front of routing (capacity 0 = off); the
     *  serving loop's router owns it, lanes have none. */
    AnswerCacheConfig cache;
};

/** Scheduling-side counters (u64 sums — order-independent). */
struct PipelineStats
{
    std::uint64_t shedAdmission = 0; //!< dropped at arrival (queue full)
    std::uint64_t shedExpired = 0;   //!< dropped at batch formation
    std::uint64_t degraded = 0;      //!< served with degraded knobs
    std::uint64_t batches = 0;       //!< kernel launches formed
};

/** What admit() did with one request. */
enum class Admission : std::uint8_t
{
    Queued, //!< entered the FIFO queue
    Shed,   //!< dropped (queue at shedWater)
};

/** One batch leaving the pipeline. */
struct FormedBatch
{
    /** Launch members, already in policy order. */
    std::vector<Request> requests;
    /** Deadline-expired requests dropped during formation (callers
     *  with per-request join state resolve these as shed). */
    std::vector<Request> expired;
    /** Formed under pressure: run with degraded knobs. */
    bool degraded = false;
    /** Pipeline-unique batch sequence number (1-based; joins the
     *  seal-time and dispatch-time schedule events). */
    std::uint64_t seq = 0;
};

/**
 * The scheduling stages of one serving lane. Pure bookkeeping on the
 * caller's simulated clock; never launches anything itself.
 */
class QueryPipeline
{
  public:
    /** @p dataset and @p pool_size key the ordering policy's
     *  coherence keys (serve/policy). */
    QueryPipeline(const PipelineConfig &cfg, DatasetId dataset,
                  std::size_t pool_size, ScheduleRecorder recorder = {});

    /**
     * Admit one request: the shedWater check, then the FIFO queue.
     * @pre arrivals are nondecreasing.
     */
    Admission admit(const Request &req);

    /** True when formBatch(now) would return work. */
    bool batchReady(Cycle now) const;

    /** Earliest future age-trigger cycle; kNeverCycle if queue empty. */
    Cycle nextForceCycle() const;

    /** Queued request count (the shed/degrade watermark signal). */
    std::size_t pending() const;

    /**
     * Form the next batch: FIFO pop with deadline expiry, degradation
     * decision (queue depth BEFORE the pop, matching the pre-refactor
     * servers), then policy ordering. @p queue_wait and @p batch_size
     * are caller-owned histogram sinks, filled in FIFO pop order so
     * their double-sums are policy-independent. An all-expired pop
     * returns an empty batch and touches neither histogram.
     */
    FormedBatch formBatch(Cycle now, Histogram &queue_wait,
                          Histogram &batch_size);

    const PipelineStats &stats() const { return stats_; }

    /** Stop recording schedule events (a run-ahead copy's lane). */
    void detachRecorder() { rec_ = {}; }

  private:
    PipelineConfig cfg_;
    DatasetId dataset_;
    std::size_t poolSize_;
    ScheduleRecorder rec_;
    DynamicBatcher batcher_;
    PipelineStats stats_;
};

/** One batch kernel simulation's results (pure per batch). */
struct BatchSim
{
    std::uint64_t cycles = 0;
    double l1Accesses = 0;
    double l1Misses = 0;
    /** RT-unit busy cycles ("rtu.busy_cycles"; 0 on the baseline). */
    double rtuBusyCycles = 0;
};

/** Run-wide sums of the per-batch simulation results. Accumulated at
 *  resolve time in deterministic lane order, so the double sums are
 *  bit-identical across HSU_JOBS. */
struct SimTotals
{
    std::uint64_t kernelCycles = 0; //!< summed batch kernel cycles
    std::uint64_t smCycles = 0;     //!< kernel cycles x numSms
    double l1Accesses = 0;
    double l1Misses = 0;
    double rtuBusyCycles = 0;
};

/** Emit the kernel trace of one batch — the only per-shard piece of
 *  the execution path (Server binds emitBatchTrace, cluster lanes
 *  bind emitShardBatchTrace with their ShardKey). Must be a pure,
 *  thread-safe function of its arguments. */
using BatchTraceEmitter =
    std::function<std::shared_ptr<const KernelTrace>(
        const std::vector<std::uint32_t> &query_ids,
        const ServeKnobs &knobs)>;

/** Emit @p query_ids' batch trace with @p emitter and simulate it on
 *  @p gpu: the one batch simulation of every serving run, a pure,
 *  thread-safe function of its arguments. */
BatchSim simulateBatch(const GpuConfig &gpu,
                       const BatchTraceEmitter &emitter,
                       const std::vector<std::uint32_t> &query_ids,
                       const ServeKnobs &knobs);

/**
 * One simulated GPU instance's in-flight batch, on the loop's clock.
 * The loop simulates each dispatched batch (simulateBatch) and hands
 * the result to resolve(); until then the completion cycle is unknown.
 */
class BatchExecutor
{
  public:
    BatchExecutor(Cycle launch_overhead_cycles, unsigned num_sms,
                  ScheduleRecorder recorder = {});

    /** Launch @p formed at @p now. @pre !busy(). */
    void dispatch(Cycle now, FormedBatch &&formed);

    /** Fix readyCycle() from the batch's simulation @p sim and add it
     *  into @p totals. @pre busy() and !resolved(). */
    void resolve(const BatchSim &sim, SimTotals &totals);

    bool busy() const { return busy_; }
    /** The in-flight batch's completion cycle is known. */
    bool resolved() const { return resolved_; }
    /** Completion cycle (dispatch + launch overhead + kernel).
     *  @pre busy() and resolved(). */
    Cycle readyCycle() const { return readyCycle_; }
    /** The in-flight batch, in launch order. @pre busy(). */
    const std::vector<Request> &batch() const { return batch_; }
    bool degraded() const { return degraded_; }

    /** Retire the completed batch and go idle. */
    void finish();

    /** Stop recording schedule events (a run-ahead copy's executor). */
    void detachRecorder() { rec_ = {}; }

  private:
    Cycle launchOverheadCycles_;
    unsigned numSms_;
    ScheduleRecorder rec_;

    bool busy_ = false;
    bool resolved_ = false; //!< completion cycle known
    Cycle dispatchCycle_ = 0;
    Cycle readyCycle_ = 0;
    std::uint64_t seq_ = 0; //!< in-flight batch's pipeline seq
    std::vector<Request> batch_;
    bool degraded_ = false;
};

} // namespace hsu::serve

#endif // HSU_SERVE_PIPELINE_HH
