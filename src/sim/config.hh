/**
 * @file
 * Whole-GPU configuration (Table III of the paper).
 *
 * The paper simulates an 80-SM Volta V100. For tractable runtimes we
 * default to a smaller SM count with identically-configured SMs and
 * proportionally scaled workloads; all reported figures are relative
 * (speedups, ratios), which are per-SM-throughput faithful. Set
 * numSms = 80 to reproduce the full-chip configuration.
 */

#ifndef HSU_SIM_CONFIG_HH
#define HSU_SIM_CONFIG_HH

#include <cstdint>

#include "hsu/isa.hh"
#include "mem/memsys.hh"

namespace hsu
{

/** Warp-scheduler policies supported by the sub-cores. */
enum class SchedulerPolicy : std::uint8_t
{
    Gto,       //!< greedy-then-oldest (Table III default)
    RoundRobin //!< loose round-robin (for ablations)
};

/**
 * Most warp slots one sub-core can own: a sub-core orders its issue
 * candidates in fixed scratch space of this size every cycle.
 */
constexpr unsigned kMaxWarpsPerSubCore = 64;

/** Timing and capacity parameters for one SM and the whole GPU. */
struct GpuConfig
{
    // --- Table III parameters -------------------------------------
    unsigned numSms = 4;          //!< paper: 80 (scaled, see file docs)
    unsigned subCoresPerSm = 4;
    SchedulerPolicy scheduler = SchedulerPolicy::Gto;
    unsigned maxWarpsPerSm = 64;
    unsigned rtUnitsPerSm = 1;
    unsigned warpBufferSize = 8;  //!< RT unit warp buffer entries
    bool rtFetchMerging = true;   //!< CISC fetch line merging (ablation)

    // --- SM pipeline timing ---------------------------------------
    unsigned aluLatency = 4;      //!< dependent-use latency of ALU ops
    unsigned sharedLatency = 24;  //!< shared-memory dependent-use latency
    unsigned lsuQueueSize = 32;   //!< pending line-accesses in the LSU

    // --- RT / HSU unit --------------------------------------------
    bool rtUnitEnabled = true;    //!< false = non-RT baseline GPU
    DatapathConfig datapath{};

    // --- Simulation execution (host-side; no timing effect) --------
    /**
     * Intra-simulation worker threads for the event-horizon run loop
     * (see DESIGN.md "Deterministic intra-simulation parallelism").
     * 0 reads HSU_SIM_JOBS once per process (default 1). 1 is the
     * exact reference serial loop; > 1 selects the horizon loop, whose
     * results are bit-identical by construction. The effective thread
     * count is additionally clamped to numSms and the hardware
     * concurrency, which cannot change results (SM phases are
     * independent and statistics are staged per SM).
     */
    unsigned simJobs = 0;
    /**
     * Serial-loop probe backoff: after probeDenseStreak consecutive
     * "event next cycle" answers, single-step probeInterval cycles
     * between nextEventCycle() probes. The same constants bound how
     * often a dense SM re-scans for its next event in the horizon
     * loop. Exposed so the per-SM event cache can be A/B'd against
     * the probe scan — values only trade host time, never results.
     */
    unsigned probeDenseStreak = 32;
    unsigned probeInterval = 32;
    /**
     * Cache per-SM next-event cycles across skipped cycles (horizon
     * loop only). false falls back to ticking every SM every cycle —
     * the A/B baseline for measuring what the event cache buys.
     * Results are bit-identical either way.
     */
    bool eventCache = true;
    /**
     * Idle-cycle skipping override: -1 reads HSU_NO_SKIP once per
     * process, 0 forces skipping on, 1 forces the single-stepped
     * debug loop (which also pins simJobs to the serial path).
     */
    int noSkip = -1;

    // --- Memory hierarchy (L1/L2/DRAM, Table III) ------------------
    MemSysParams mem{};

    /** Convenience: configure the memory system for numSms L1s. */
    void
    finalize()
    {
        mem.numL1 = numSms;
    }

    /**
     * Reject a configuration the timing model cannot run, with a
     * fatal error naming the field, instead of a hang to the cycle
     * bound or a generic wedge panic. Gpu's constructor calls it.
     */
    void validate() const;
};

} // namespace hsu

#endif // HSU_SIM_CONFIG_HH
