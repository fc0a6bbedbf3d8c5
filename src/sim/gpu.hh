/**
 * @file
 * Whole-GPU timing simulator: SMs + memory hierarchy, Table III config.
 */

#ifndef HSU_SIM_GPU_HH
#define HSU_SIM_GPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "mem/memsys.hh"
#include "sim/config.hh"
#include "sim/sm.hh"
#include "sim/trace.hh"

namespace hsu
{

/** Headline results of one kernel simulation. */
struct RunResult
{
    std::uint64_t cycles = 0;
    double instrsIssued = 0;
    double hsuCompleted = 0;       //!< HSU instructions (all modes)
    double l2LinesAccessed = 0;    //!< roofline denominator
    double l1Accesses = 0;         //!< summed over SMs
    double l1Misses = 0;           //!< true misses (MSHR hits excluded)
    double dramRowLocality = 0;    //!< accesses per row activation
    double offloadableFraction = 0;//!< Fig 7 metric (baseline runs)

    /** HSU ops completed per cycle (roofline y-axis). */
    double
    hsuOpsPerCycle() const
    {
        return cycles ? hsuCompleted / static_cast<double>(cycles) : 0.0;
    }

    /** HSU ops per L2 line accessed (roofline x-axis). */
    double
    opsPerL2Line() const
    {
        return l2LinesAccessed > 0 ? hsuCompleted / l2LinesAccessed : 0.0;
    }

    /** L1 miss rate with MSHR merges counted as hits (Section VI-J). */
    double
    l1MissRate() const
    {
        return l1Accesses > 0 ? l1Misses / l1Accesses : 0.0;
    }
};

/**
 * The simulated GPU. Construct once per kernel run (components carry
 * run-local state); stats accumulate into the caller's StatGroup.
 *
 * One single-threaded event-horizon loop. Each visited cycle ticks the
 * memory system, then every SM that is due: its cached next self-event
 * has come, or a memory completion woke it through its L1's observer.
 * The clock then jumps to the horizon, the earliest cached SM event or
 * memory-system event. An SM that sat out cycles first accounts the
 * per-cycle occupancy stats those ticks would have recorded
 * (Sm::fastForwardStats). Globally skipped cycles are reported as
 * "sim.ff_cycles" and per-SM skipped ones as "sim.horizon_cycles";
 * skipping changes no other stat.
 *
 * HSU_NO_SKIP=1 (GpuConfig::noSkip) runs the same loop one cycle at a
 * time and ticks every SM every cycle. It panics when the horizon
 * moves inside a gap it predicted, or when an SM that was neither due
 * nor woken predicts a different next event after its tick.
 */
class Gpu
{
  public:
    Gpu(const GpuConfig &cfg, StatGroup &stats);

    /**
     * Simulate a kernel to completion. Completion is detected on the
     * exact cycle the last unit drains (no check-period slack).
     * @param trace     warps to execute
     * @param max_cycles safety bound; exceeded -> panic
     */
    RunResult run(const KernelTrace &trace,
                  std::uint64_t max_cycles = 2'000'000'000ULL);

    StatGroup &stats() { return stats_; }

  private:
    /** True when every SM has drained and no memory request is alive. */
    bool allDone() const;

    /**
     * The cycle loop; returns the completion cycle. @p stepped visits
     * every cycle and ticks every SM, checking each prediction.
     */
    Cycle runLoop(std::uint64_t max_cycles, bool stepped);

    /** Account SM @p i's skipped cycles, tick it, refresh its cache. */
    void catchUpAndTick(unsigned i, Cycle now);

    [[noreturn]] void panicWedged(const char *why, std::uint64_t now);

    GpuConfig cfg_;
    StatGroup &stats_;
    std::unique_ptr<MemorySystem> mem_;
    std::vector<std::unique_ptr<Sm>> sms_;

    std::vector<Cycle> smNextEvent_;  //!< cached per-SM next event
    std::vector<Cycle> smLastTicked_; //!< last cycle the SM ticked

    Stat &statFfCycles_;
    Stat &statHorizonCycles_;
};

/** Convenience: simulate a kernel on a fresh GPU and return results. */
RunResult simulateKernel(const GpuConfig &cfg, const KernelTrace &trace,
                         StatGroup &stats);

/**
 * Shared-trace overload: the serving layer hands the same immutable
 * lowered trace to many simulations without copying it (see DESIGN.md
 * "Trace lifetime and sharing"). The simulation only reads the trace;
 * the shared_ptr keeps it alive for the duration.
 */
RunResult simulateKernel(const GpuConfig &cfg,
                         const std::shared_ptr<const KernelTrace> &trace,
                         StatGroup &stats);

} // namespace hsu

#endif // HSU_SIM_GPU_HH
