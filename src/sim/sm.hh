/**
 * @file
 * Streaming-multiprocessor timing model.
 *
 * Each SM has four sub-cores issuing one instruction per cycle under a
 * greedy-then-oldest (GTO) warp scheduler, a shared LSU, and (when
 * enabled) one RT/HSU unit shared by the sub-cores. The LSU and the RT
 * unit's FIFO memory queue time-share the single L1D port. Warp-level
 * dependencies run through a 32-bit token scoreboard per warp.
 *
 * Host-side, each sub-core walks only its live warps, a memory op is
 * coalesced once however often the LSU refuses it, a stalled sub-core
 * replays its last stall's counts until something that could unblock a
 * candidate happens, and an LSU or RT FIFO head the L1 refused waits,
 * parked, until a fill or a pop could change the answer (DESIGN.md
 * "Simulation execution"). None of this changes a simulated cycle or
 * stat.
 */

#ifndef HSU_SIM_SM_HH
#define HSU_SIM_SM_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/cycletime.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "rtunit/rtunit.hh"
#include "sim/config.hh"
#include "sim/lsu.hh"
#include "sim/trace.hh"

namespace hsu
{

/** One SM: sub-cores, warp slots, LSU, and optionally an RT/HSU unit. */
class Sm
{
  public:
    Sm(const GpuConfig &cfg, unsigned sm_id, Cache &l1, StatGroup &stats);

    /** Queue a warp for execution on this SM. */
    void addWarp(const WarpTrace *trace);

    /** Advance one cycle. */
    void tick(std::uint64_t now);

    /** True when every queued warp has retired and units drained. */
    bool done() const;

    /**
     * Earliest future cycle at which ticking this SM could do anything,
     * assuming no memory completion arrives earlier: an issue this
     * cycle or an unparked LSU / RT memory-queue head (next cycle), a
     * sub-core instruction block expiring (which also ends the last
     * block of a finished warp, its retirement), or an RT-unit internal
     * event. Warps blocked on tokens are woken by completions, and
     * parked queue heads by fills and pops, which are events of the
     * memory system and wake the SM through its L1's observer.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * True when a memory completion reached this SM since its last
     * tick (set by the L1's completion observer), invalidating the
     * cached next-event value. Cleared at the start of tick().
     */
    bool wakePending() const { return wakePending_; }

    /**
     * Account per-cycle occupancy stats for the eventless gap
     * (now, next) exactly as the per-cycle loop would have: busy
     * sub-cores stay busy for the whole gap, stalled sub-cores stay
     * stalled with unchanged candidates, empty sub-cores stay idle,
     * and parked LSU / RT FIFO heads are refused on every port grant.
     */
    void fastForwardStats(Cycle now, Cycle next);

    /** Access to the RT unit (may be null in the baseline config). */
    RtUnit *rtUnit() { return rt_.get(); }

  private:
    enum class TryResult : std::uint8_t
    {
        Issued,
        TokenBlocked, //!< a consumed or produced token is pending
        UnitBlocked,  //!< the LSU queue or the RT unit refused it
    };

    static constexpr std::size_t kNoPc = ~std::size_t{0};

    struct WarpCtx
    {
        const WarpTrace *trace = nullptr;
        std::size_t pc = 0;
        std::uint32_t pendingTokens = 0;
        /**
         * Tokens cleared by completions since this SM last ticked.
         * fastForwardStats needs the token state *during* a skipped
         * gap; the cycle loop applies a wake cycle's completions
         * before the catch-up call, so the gap-time mask is
         * pendingTokens | clearedSinceTick. Zero whenever the SM is
         * ticked every cycle (completions precede the tick).
         */
        std::uint32_t clearedSinceTick = 0;
        unsigned outstanding = 0;
        std::uint64_t order = 0;
        std::uint64_t blockEnd = 0; //!< last Alu/Shared block finishes
        bool active = false;
        /**
         * Coalesced lines of the memory op at linesPc. A warp the LSU
         * refuses retries the same op every cycle; it coalesces once,
         * on the first attempt that passes the token check, and
         * re-presents this buffer until its pc moves.
         */
        std::vector<std::uint64_t> lines;
        std::size_t linesPc = kNoPc;
    };

    struct SubCore
    {
        /** Active warp slots owned by this sub-core, oldest first. */
        std::vector<unsigned> live;
        int greedy = -1;             //!< slot issued most recently
        std::uint64_t busyUntil = 0; //!< multi-instruction block occupancy
        bool busyOffloadable = false;

        /**
         * Stall replay (GTO only): the counts of the last evaluation,
         * which stalled at stallEpoch. While the SM's epoch is
         * unchanged and now < stallUntil, a fresh evaluation would try
         * the same candidates in the same order and be refused the
         * same way, so issueSubCore adds these counts instead.
         */
        bool stallValid = false;
        bool stallOffloadable = false; //!< first candidate offloadable
        unsigned stallNoEntry = 0;     //!< HSU candidates the RT unit refused
        std::uint64_t stallEpoch = 0;
        Cycle stallUntil = 0;          //!< next Issuing entry's slot frees
    };

    TryResult tryIssue(unsigned slot, SubCore &sc, std::uint64_t now,
                       bool &offloadable_attr);
    void retireFinished(std::uint64_t now);
    void activatePending();
    void issueSubCore(SubCore &sc, std::uint64_t now);

    /** Fill @p order with the sub-core's issue candidates (greedy warp
     *  first, then oldest-first) and return the candidate count. */
    unsigned buildCandidateOrder(const SubCore &sc,
                                 unsigned order[kMaxWarpsPerSubCore],
                                 unsigned &greedy_count) const;

    const GpuConfig &cfg_;
    unsigned smId_;
    Cache &l1_;
    std::unique_ptr<Lsu> lsu_;
    std::unique_ptr<RtUnit> rt_;

    std::vector<WarpCtx> warps_;
    std::vector<SubCore> subCores_;
    std::deque<const WarpTrace *> pending_;
    std::uint64_t nextOrder_ = 0;
    std::size_t activeCount_ = 0;
    /**
     * Bumped by every event that can unblock a stalled candidate: a
     * completion clearing a token, an LSU queue pop, any issue, a warp
     * activating or retiring, an RT entry starting to issue. A sub-core
     * replays its last stall only while the epoch it recorded is
     * current.
     */
    std::uint64_t epoch_ = 0;
    /** Live warps that have issued their last op (retirement candidates). */
    unsigned finishing_ = 0;
    Cycle lastIssue_ = kNeverCycle; //!< last cycle any sub-core issued
    bool wakePending_ = false;
    bool anyCleared_ = false; //!< some warp has clearedSinceTick bits

    Stat &statSlotCycles_;
    Stat &statBusyCycles_;
    Stat &statOffloadableCycles_;
    Stat &statStallCycles_;
    Stat &statIdleCycles_;
    Stat &statInstrsIssued_;
    Stat &statWarpsRetired_;
};

} // namespace hsu

#endif // HSU_SIM_SM_HH
