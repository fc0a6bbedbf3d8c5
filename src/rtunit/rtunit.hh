/**
 * @file
 * Timing model of the RT unit / Hierarchical Search Unit (Figure 4).
 *
 * One unit per SM, shared by the four sub-cores through a round-robin
 * dispatch arbiter (one warp instruction sequence accepted per cycle).
 * Dispatched instructions occupy a *warp buffer* entry while a FIFO
 * memory-access queue gathers each active thread's node operands from
 * the L1D (one access per cycle, time-shared with the LSU; same-line
 * requests are merged by the fetch engine — the CISC coalescing Fig 12
 * credits). Once gathered, the entry is scheduled into the unified
 * single-lane datapath: one thread-beat per cycle, 9-stage fixed-
 * latency pipeline, inactive lanes skipped. A result buffer writes
 * back to the register file when the whole warp instruction drains.
 *
 * Multi-beat accumulate sequences (Section IV-F) are modeled as one
 * warp-buffer entry that streams its beats through the datapath
 * back-to-back. This structurally enforces the paper's constraint that
 * no other warp's instructions enter the datapath between the first
 * accumulate beat and the final accumulate=0 beat, while letting the
 * other warp-buffer entries gather operands concurrently — the
 * memory-level parallelism the warp buffer exists to provide.
 */

#ifndef HSU_RTUNIT_RTUNIT_HH
#define HSU_RTUNIT_RTUNIT_HH

#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cycletime.hh"
#include "common/stats.hh"
#include "hsu/isa.hh"
#include "mem/cache.hh"
#include "sim/trace.hh"

namespace hsu
{

/** RT/HSU unit timing parameters. */
struct RtUnitParams
{
    unsigned warpBufferSize = 8;
    unsigned pipelineDepth = 9;
    /** Merge same-line operand fetches in the CISC fetch engine
     *  (disable only for the bench/ablation_unit study). */
    bool fetchMerging = true;
    std::string name = "rtu";
};

/** Per-SM RT/HSU unit timing model. */
class RtUnit
{
  public:
    RtUnit(RtUnitParams params, Cache &l1, StatGroup &stats);

    /**
     * Attempt to dispatch one warp HSU instruction (the full multi-
     * beat sequence) into a warp buffer entry.
     *
     * @param sub_core  issuing sub-core (arbiter granularity)
     * @param warp_id   SM-unique warp slot of the issuing warp
     * @param trace     the warp's trace (for lane addresses)
     * @param op        the HSU trace op
     * @param on_done   fires at final writeback
     * @return false when rejected (no free entry / arbiter busy)
     */
    bool tryDispatch(unsigned sub_core, unsigned warp_id,
                     const WarpTrace &trace, const TraceOp &op,
                     MemCompletion on_done, std::uint64_t now);

    /** True when the FIFO memory queue wants the L1 port. */
    bool wantsAccess() const { return !fifo_.empty(); }

    /**
     * Count @p n granted port cycles of a parked FIFO head, for cycles
     * the SM skipped: exactly what @p n ticks would have counted.
     */
    void accountParkedGrants(double n);

    /**
     * Advance one cycle. @p port_granted gives this unit the L1 port.
     * @return true when a warp-buffer entry started issuing (Ready ->
     *         Issuing): its slot now frees at a new end cycle, which
     *         the SM's stall replay must not run past
     */
    bool tick(bool port_granted, std::uint64_t now);

    /**
     * Earliest cycle after @p now at which an Issuing entry's slot
     * recycles (kNeverCycle when none is issuing). Until then, and
     * until another entry starts issuing, a dispatch rejected for want
     * of a free entry would be rejected again.
     */
    Cycle nextIssuingEnd(Cycle now) const;

    /** True when the dispatch arbiter accepted a dispatch at @p now. */
    bool
    dispatchAcceptedAt(Cycle now) const
    {
        return lastDispatchCycle_ == now && dispatchedThisCycle_;
    }

    /** True when no entry, request, or in-flight result remains. */
    bool drained() const;

    /**
     * Earliest future cycle at which tick() could act on its own: an
     * unparked FIFO head (every cycle), the arbiter freeing, a
     * writeback retiring, the datapath freeing (and possibly starting
     * a Ready entry), or an Issuing slot recycling. Gathering entries
     * and a parked FIFO head wait on the L1, whose events they are.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account per-cycle stats for the provably-eventless gap
     * (now, next): the datapath stays busy (or not) throughout, so the
     * busy-cycle counter advances exactly as the un-skipped loop would.
     */
    void fastForwardStats(Cycle now, Cycle next);

    /**
     * Count @p n no-entry rejects for dispatch attempts the SM skipped
     * because their outcome is known: its fast-forward calls this once
     * per dispatch-blocked candidate with the gap length, and its stall
     * replay once per replayed cycle with that stall's blocked-candidate
     * count. Either way it matches the rejections the per-cycle loop
     * would have recorded (no free entry — a free entry would have
     * made the dispatch an event, or invalidated the replay).
     */
    void
    accountSkippedDispatchRejects(double n)
    {
        statRejectNoEntry_ += n;
    }

    /** Busy-cycle count so far (datapath issuing). */
    double busyCycles() const { return statBusyCycles_.value(); }

  private:
    enum class EntryState : std::uint8_t
    {
        Free,
        Gathering, //!< waiting for node operands from memory
        Ready,     //!< operands gathered; awaiting the datapath
        Issuing    //!< thread-beats streaming into the datapath
    };

    struct Entry
    {
        EntryState state = EntryState::Free;
        unsigned warpId = 0;
        unsigned subCore = 0;
        std::uint64_t seq = 0;
        HsuMode mode = HsuMode::RayBox;
        unsigned beats = 1;
        unsigned lanes = 0;
        unsigned pendingLines = 0;
        std::uint64_t issueEndsAt = 0;
        MemCompletion onDone;
    };

    struct Writeback
    {
        std::uint64_t ready;
        std::uint64_t seq;
        HsuMode mode;
        unsigned beats;
        MemCompletion done;
        bool operator>(const Writeback &o) const
        {
            return ready != o.ready ? ready > o.ready : seq > o.seq;
        }
    };

    struct FifoReq
    {
        std::uint64_t line;
        /** >= 0: unmerged request owned by one entry (merging off). */
        std::int32_t entryIdx = -1;
    };

    /**
     * True when the L1 refused the FIFO head and would refuse it again
     * (its free generation has not moved). A parked head's granted
     * cycles only count L1 rejects; see Cache::freeGeneration.
     */
    bool
    fifoParked() const
    {
        return fifoParkedGen_ == l1_.freeGeneration();
    }

    unsigned freeEntries(std::uint64_t now) const;
    int findFreeEntry(std::uint64_t now);
    int selectReadyEntry() const;
    void startIssue(std::size_t idx, std::uint64_t now);
    void lineArrived(std::uint64_t line);

    static constexpr std::uint64_t kNotParked = ~std::uint64_t{0};

    RtUnitParams params_;
    Cache &l1_;
    std::vector<Entry> entries_;
    std::deque<FifoReq> fifo_;
    /** The L1's free generation when it refused the FIFO head. */
    std::uint64_t fifoParkedGen_ = kNotParked;
    std::priority_queue<Writeback, std::vector<Writeback>,
                        std::greater<>> writebacks_;
    /** In-flight node-fetch lines -> entries waiting on them. */
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>
        pendingLines_;

    // Dispatch arbiter state: one acceptance per cycle.
    std::uint64_t lastDispatchCycle_ = ~0ULL;
    bool dispatchedThisCycle_ = false;

    // Datapath occupancy.
    std::uint64_t datapathBusyUntil_ = 0;

    std::uint64_t seq_ = 0;

    Stat &statDispatched_;
    Stat &statCompleted_;
    Stat &statCompletedBox_;
    Stat &statCompletedTri_;
    Stat &statCompletedEuclid_;
    Stat &statCompletedAngular_;
    Stat &statCompletedKeyCmp_;
    Stat &statBusyCycles_;
    Stat &statMemRequests_;
    Stat &statRejectNoEntry_;
    Stat &statRejectArbiter_;
};

} // namespace hsu

#endif // HSU_RTUNIT_RTUNIT_HH
