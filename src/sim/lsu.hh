/**
 * @file
 * Load-store unit: one per SM, shared by the four sub-cores.
 *
 * Coalesces each warp memory instruction's per-lane addresses into
 * 128-byte line requests, queues them, and presents at most one request
 * per cycle to the L1D — time-sharing the single L1 port with the RT
 * unit's FIFO memory access queue (Section VI-H).
 *
 * Thread model: the LSU is owned by one SM and is only touched from
 * that SM's tick (issue/tick) — its L1 traffic lands in the private
 * L1's miss queue, which the memory system drains in SM-index order.
 * Completion callbacks fire from Cache::tick during the serial memory
 * phase. Nothing here is shared across SMs, so the parallel horizon
 * loop needs no locks on this path.
 */

#ifndef HSU_SIM_LSU_HH
#define HSU_SIM_LSU_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mem/cache.hh"
#include "sim/trace.hh"

namespace hsu
{

/**
 * Coalesce a warp op's lane addresses into its unique line numbers,
 * ascending. Replaces the contents of @p lines and reuses its
 * capacity: the SM coalesces each memory op once, into a buffer its
 * warp keeps, and re-presents the result on every retry. Lanes mostly
 * walk forward, so repeats of the last line are dropped as they come
 * and the buffer is sorted only when a lane steps backward.
 */
void coalesceLines(const WarpTrace &trace, const TraceOp &op,
                   unsigned line_bytes, std::vector<std::uint64_t> &lines);

/** Per-SM load/store unit. */
class Lsu
{
  public:
    Lsu(unsigned queue_capacity, Cache &l1, StatGroup &stats,
        const std::string &name);

    /** True when @p lines more line requests fit in the queue now. */
    bool
    hasRoom(std::size_t lines) const
    {
        return queue_.size() + lines <= capacity_;
    }

    /**
     * Issue one warp memory instruction as a set of line requests.
     * @param lines    coalesced unique line numbers
     * @param write    store (fire-and-forget) vs load
     * @param done     fires when every line has returned (loads)
     * @return false when the queue lacks space (warp must retry); the
     *         SM asks hasRoom() first, so a rejected attempt builds no
     *         completion
     */
    bool issue(const std::vector<std::uint64_t> &lines, bool write,
               MemCompletion done);

    /** True when a line request is waiting for the L1 port. */
    bool wantsAccess() const { return !queue_.empty(); }

    /**
     * Present at most one request to the L1 if @p port_granted. A head
     * the L1 refused is parked: until the L1's free generation moves,
     * each granted cycle counts as a refusal (port cycle, retry, L1
     * reject) without asking the L1, which would refuse it again.
     * @return true when a request left the queue (the L1 accepted it),
     *         which may let a warp the queue refused issue
     */
    bool tick(bool port_granted, std::uint64_t now);

    /** True when no request is queued (in-flight L1 side not counted). */
    bool drained() const { return queue_.empty(); }

    /** True when the head was refused and the L1 would refuse it again. */
    bool
    parked() const
    {
        return parkedGen_ == l1_.freeGeneration();
    }

    /**
     * Count @p n granted port cycles of a parked head, for cycles the
     * SM skipped: exactly what @p n ticks would have counted.
     */
    void accountParkedGrants(double n);

    /**
     * Earliest future cycle tick() could act on its own: an unparked
     * head wants the port every cycle. An empty or parked LSU is
     * driven by new issues and by the L1 (a fill or a pop un-parks
     * it, and the L1's observer wakes the SM). Part of the SM's
     * cached next-event value (event-horizon skipping).
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        return queue_.empty() || parked() ? kNeverCycle : now + 1;
    }

    /**
     * Group slots allocated so far: the most memory instructions that
     * were ever in flight at once. A group's slot is recycled when its
     * last line returns.
     */
    std::size_t groupSlots() const { return groups_.size(); }

  private:
    /** One in-flight instruction: its lines still out, and its waiter. */
    struct Group
    {
        unsigned remaining = 0;
        MemCompletion done;
    };

    struct LineReq
    {
        std::uint64_t line;
        std::uint32_t group; //!< index into groups_
        bool write;
    };

    /** A line of @p group returned; the last one fires and frees it. */
    void lineDone(std::uint32_t group);

    static constexpr std::uint64_t kNotParked = ~std::uint64_t{0};

    unsigned capacity_;
    Cache &l1_;
    std::deque<LineReq> queue_;
    /** The L1's free generation when it refused the head. */
    std::uint64_t parkedGen_ = kNotParked;
    std::vector<Group> groups_;
    std::vector<std::uint32_t> freeGroups_;

    Stat &statInstrs_;
    Stat &statLineReqs_;
    Stat &statPortCycles_;
    Stat &statRetries_;
};

} // namespace hsu

#endif // HSU_SIM_LSU_HH
