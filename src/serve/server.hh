/**
 * @file
 * Simulated-time online query server over the GPU timing model.
 *
 * An open-loop request stream (serve/arrivals) meets the answer cache,
 * then one query pipeline (serve/pipeline: admission -> FIFO batcher
 * -> degradation -> batch-ordering policy); formed batches launch on
 * one or more simulated GPU instances (serve/pipeline BatchExecutor).
 * Everything advances on one unified simulated clock: a request's
 * latency is
 *
 *     completion - arrival = queueing/batching wait
 *                          + launch overhead
 *                          + simulated kernel cycles of its batch,
 *
 * (or just the cache hit latency when the answer cache has it), where
 * the kernel cycles come from simulating the batch's trace on the
 * instance's Gpu — the same emitters and timing model as the offline
 * benches, so online and offline numbers are directly comparable.
 *
 * Admission control and graceful degradation: an arrival finding the
 * queue at shedWater is shed immediately; a batch formed while the
 * queue is at highWater runs with degraded GGNN knobs (shrunk beam
 * width/k — the exact point/key kernels have no quality knob and only
 * shed). Requests whose deadline passed while queued are dropped at
 * batch formation.
 *
 * Execution: a Server is the serving event loop (serve/loop) with one
 * lane — numInstances executors behind one queue — and a router that
 * sends every request to it. The loop is sequential in simulated
 * time, but the batch simulations fan out across an hsu::ThreadPool —
 * every instance dispatched at the current event executes its kernel
 * simulation concurrently, beside the batches a copy of the loop ran
 * ahead to (serve/loop). Service times are pure functions of batch
 * contents, so results are bit-identical for any HSU_JOBS value.
 */

#ifndef HSU_SERVE_SERVER_HH
#define HSU_SERVE_SERVER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "search/runner.hh"
#include "serve/arrivals.hh"
#include "serve/pipeline.hh"
#include "sim/config.hh"

namespace hsu::serve
{

/** Full server configuration. */
struct ServerConfig
{
    /** Per-instance GPU config; rtUnitEnabled selects the HSU or the
     *  non-RT baseline trace flavor for every batch. */
    GpuConfig gpu;
    /** Simulated GPU instances batches fan out over. */
    unsigned numInstances = 1;
    /** Scheduling stages: batching, ordering policy, degradation,
     *  answer cache. */
    PipelineConfig pipeline;
    /** Serving query pool size (must cover request query-ids). */
    std::uint32_t queryPoolSize = 1024;
    /** Fixed per-launch overhead charged before kernel cycles. */
    Cycle launchOverheadCycles = 1'000;
    /** Simulation worker threads; 0 -> HSU_JOBS / hardware. */
    unsigned jobs = 0;
    /** Optional schedule-audit sink (analysis/schedule_log); null
     *  disables recording. The log must outlive the run. */
    ScheduleLog *scheduleLog = nullptr;
};

/** What every serving run reports (serve/loop fills it). */
struct ServingReport
{
    std::uint64_t offered = 0;     //!< requests in the input stream
    std::uint64_t completed = 0;   //!< answered (>= 1 shard answer)
    std::uint64_t cacheHits = 0;   //!< answered by the router cache
    Cycle lastCompletionCycle = 0; //!< simulated makespan

    Histogram latencyCycles; //!< arrival -> completion, per request
    /** Lane arrival -> dispatch, per launched request; with several
     *  shards, Histogram::merge over their histograms. */
    Histogram queueWaitCycles;
    Histogram batchSize; //!< requests per launch

    /** Memory-system sums over every batch simulation (pipeline
     *  SimTotals; deterministic resolve-order accumulation). */
    std::uint64_t kernelCycles = 0; //!< summed batch kernel cycles
    std::uint64_t smCycles = 0;     //!< kernel cycles x numSms
    double l1Accesses = 0;
    double l1Misses = 0;
    double rtuBusyCycles = 0;       //!< 0 on the non-RT baseline

    /** Completions per second of simulated time at kClockHz. */
    double
    achievedQps() const
    {
        if (lastCompletionCycle == 0)
            return 0.0;
        return static_cast<double>(completed) /
               (static_cast<double>(lastCompletionCycle) / kClockHz);
    }

    /** Latency percentile in microseconds at kClockHz. */
    double
    latencyUs(double p) const
    {
        return latencyCycles.percentile(p) / kClockHz * 1.0e6;
    }

    /** L1 hit rate over every batch simulation (the query-coherence
     *  policy's target metric). */
    double
    l1HitRate() const
    {
        return l1Accesses > 0 ? 1.0 - l1Misses / l1Accesses : 0.0;
    }

    /** RT-unit busy fraction of the SM-cycle budget — how occupied
     *  the warp buffers were while the run had batches in flight. */
    double
    warpBufferResidency() const
    {
        return smCycles ? rtuBusyCycles / static_cast<double>(smCycles)
                        : 0.0;
    }

    /** Answer-cache hit rate over the offered stream. */
    double
    cacheHitRate() const
    {
        return offered ? static_cast<double>(cacheHits) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/** Aggregate results of one open-loop serving run. */
struct ServeReport : ServingReport
{
    std::uint64_t admitted = 0;      //!< queued or cache-answered
    std::uint64_t shedAdmission = 0; //!< dropped at arrival (queue full)
    std::uint64_t shedExpired = 0;   //!< dropped at batch formation (SLO)
    std::uint64_t degraded = 0;      //!< served with degraded knobs
    std::uint64_t batches = 0;       //!< kernel launches

    /** Fraction of offered requests dropped (either shed path). */
    double
    shedFraction() const
    {
        return offered ? static_cast<double>(shedAdmission +
                                             shedExpired) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/** The serving engine for one (algo, dataset) workload. */
class Server
{
  public:
    Server(Algo algo, DatasetId dataset, const ServerConfig &cfg);

    /**
     * Replay @p requests (nondecreasing arrival order) to completion
     * and return the aggregate report. Deterministic: depends only on
     * the request stream and the config, never on thread count.
     */
    ServeReport run(const std::vector<Request> &requests);

  private:
    Algo algo_;
    DatasetId dataset_;
    ServerConfig cfg_;
};

} // namespace hsu::serve

#endif // HSU_SERVE_SERVER_HH
