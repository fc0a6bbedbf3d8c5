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
    unsigned warpBufferSize = 8;  //!< RT unit warp buffer entries
    bool rtFetchMerging = true;   //!< CISC fetch line merging (ablation)

    // --- SM pipeline timing ---------------------------------------
    unsigned lsuQueueSize = 32;   //!< pending line-accesses in the LSU

    // --- RT / HSU unit --------------------------------------------
    bool rtUnitEnabled = true;    //!< false = non-RT baseline GPU
    DatapathConfig datapath{};

    // --- Simulation execution (host-side; no timing effect) --------
    /**
     * Idle-cycle skipping override: -1 reads HSU_NO_SKIP once per
     * process, 0 forces skipping on, 1 forces the stepped loop, which
     * ticks every SM every cycle and checks every skip prediction.
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
