/**
 * @file
 * Set-associative cache with MSHRs, used for both L1D and L2.
 *
 * GPU-style policy: write-through, no write-allocate, allocate on read
 * miss. Reads that hit on a pending miss merge into the MSHR entry
 * ("hit reserved") — the paper counts these as hits when reporting L1
 * miss rate (Section VI-J), and so do we.
 */

#ifndef HSU_MEM_CACHE_HH
#define HSU_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cycletime.hh"
#include "common/fifo.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace hsu
{

/**
 * Completion callback invoked when an access's data is available.
 *
 * Every load, store, HSU op and node fetch creates one, and most are
 * copied through a cache's ready queue or an MSHR waiter list, so it
 * is a fixed-size in-place callable rather than a std::function: the
 * capture (trivially copyable, at most kCaptureBytes) lives inside the
 * object, so making, copying and destroying one never allocates and
 * never touches a reference count. Empty (default or nullptr) means
 * "nobody waits".
 */
class MemCompletion
{
  public:
    static constexpr std::size_t kCaptureBytes = 24;

    MemCompletion() = default;
    MemCompletion(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, MemCompletion> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    MemCompletion(F f)
    {
        static_assert(std::is_trivially_copyable_v<F>,
                      "MemCompletion captures must be trivially copyable "
                      "(pointers, references, indices, plain values)");
        static_assert(sizeof(F) <= kCaptureBytes,
                      "MemCompletion capture exceeds kCaptureBytes");
        static_assert(alignof(F) <= alignof(std::uint64_t),
                      "MemCompletion capture is over-aligned");
        ::new (static_cast<void *>(capture_)) F(f);
        invoke_ = [](const unsigned char *capture) {
            (*std::launder(reinterpret_cast<const F *>(capture)))();
        };
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() const { invoke_(capture_); }

  private:
    void (*invoke_)(const unsigned char *) = nullptr;
    alignas(std::uint64_t) unsigned char capture_[kCaptureBytes] = {};
};

static_assert(std::is_trivially_copyable_v<MemCompletion>);

/**
 * Completions waiting for their ready cycle, kept as two FIFO streams.
 *
 * A component whose completions each fall due at `now + L` for one of
 * two fixed latencies L (a cache: hit latency or the fill cycle; DRAM:
 * row hit or row miss), with `now` never decreasing, pushes each
 * stream in (ready, seq) order, seq being one counter over both
 * streams. Popping the head with the smaller (ready, seq) therefore
 * yields exactly the order a (ready, seq) min-heap would, at O(1) per
 * completion.
 */
class CompletionStreams
{
  public:
    /** Queue @p done on @p stream (0 or 1), due at @p ready. */
    void
    push(unsigned stream, std::uint64_t ready, MemCompletion done)
    {
        Fifo<Pending> &q = streams_[stream];
        // Per-access path: release builds skip the check.
        hsu_debug_assert(q.empty() || q.back().ready <= ready,
                         "completion stream pushed out of ready order");
        q.push_back(Pending{ready, seq_++, done});
    }

    /**
     * Pop the first completion in (ready, seq) order if it is due at
     * @p now into @p done; false when none is due.
     */
    bool
    popDue(std::uint64_t now, MemCompletion &done)
    {
        const int s = firstStream();
        if (s < 0 || streams_[s].front().ready > now)
            return false;
        done = streams_[s].front().done;
        streams_[s].pop_front();
        return true;
    }

    /** Ready cycle of the first completion; kNeverCycle when empty. */
    Cycle
    headReady() const
    {
        const int s = firstStream();
        return s < 0 ? kNeverCycle : streams_[s].front().ready;
    }

    bool empty() const { return size() == 0; }

    std::size_t size() const
    { return streams_[0].size() + streams_[1].size(); }

  private:
    struct Pending
    {
        std::uint64_t ready;
        std::uint64_t seq;
        MemCompletion done;
    };

    /** The stream whose head comes first; -1 when both are empty. */
    int
    firstStream() const
    {
        if (streams_[0].empty())
            return streams_[1].empty() ? -1 : 1;
        if (streams_[1].empty())
            return 0;
        const Pending &a = streams_[0].front();
        const Pending &b = streams_[1].front();
        const bool a_first =
            a.ready != b.ready ? a.ready < b.ready : a.seq < b.seq;
        return a_first ? 0 : 1;
    }

    Fifo<Pending> streams_[2];
    std::uint64_t seq_ = 0;
};

/**
 * Line -> slot map of an MSHR file: open addressing over a power-of-two
 * table kept at most half full, Fibonacci hashing, linear probing and
 * backward-shift deletion (no tombstones, so probes stay short however
 * long the run). Only ever looked up by key; iteration order does not
 * exist, so nothing observable depends on the hash.
 */
class MshrIndex
{
  public:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** An index for at most @p max_entries lines at once. */
    explicit MshrIndex(unsigned max_entries);

    /** The slot of @p line, or kNoSlot. */
    std::uint32_t
    find(std::uint64_t line) const
    {
        for (std::size_t b = homeBucket(line);; b = (b + 1) & mask_) {
            const Bucket &e = table_[b];
            if (e.slot == kNoSlot || e.line == line)
                return e.slot;
        }
    }

    /** Map @p line, which must be absent, to @p slot. */
    void insert(std::uint64_t line, std::uint32_t slot);

    /** Unmap @p line; returns its slot, or kNoSlot when unmapped. */
    std::uint32_t erase(std::uint64_t line);

    /** The bucket @p line's probe starts at. */
    std::size_t
    homeBucket(std::uint64_t line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    std::size_t buckets() const { return table_.size(); }

  private:
    struct Bucket
    {
        std::uint64_t line = 0;
        std::uint32_t slot = kNoSlot;
    };

    std::vector<Bucket> table_;
    std::size_t mask_;
    unsigned shift_;
};

/** Cache geometry and timing parameters. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 128 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 128;
    unsigned hitLatency = 28;
    unsigned mshrEntries = 32;
    unsigned mshrMergesPerEntry = 8;
    unsigned missQueueCapacity = 32;
};

/** Outcome of a cache access attempt. */
enum class CacheOutcome
{
    Hit,            //!< data present; completion after hitLatency
    HitReserved,    //!< merged into a pending MSHR entry
    Miss,           //!< MSHR allocated; miss sent toward lower level
    RejectMshrFull, //!< structural stall: retry next cycle
    RejectQueueFull //!< structural stall: miss queue full
};

/**
 * One level of cache. The owner wires `sendLower` to the downstream
 * channel and calls `fill()` when line data returns.
 */
class Cache
{
  public:
    Cache(CacheParams params, StatGroup &stats);

    /**
     * Attempt an access at cycle @p now.
     *
     * Reads: on Hit the completion fires after hitLatency; on
     * Miss/HitReserved it fires when the fill arrives. Writes are
     * write-through / no-allocate: the completion fires after
     * hitLatency and a write packet is queued downstream.
     */
    CacheOutcome access(std::uint64_t addr, bool write,
                        MemCompletion done, std::uint64_t now);

    /** Line data returned from the lower level: install, release MSHR. */
    void fill(std::uint64_t line_addr, std::uint64_t now);

    /** Deliver due completions and drain the miss queue downstream. */
    void tick(std::uint64_t now);

    /** Downstream hook: f(lineAddr, isWrite, now) -> accepted. */
    void
    setSendLower(std::function<bool(std::uint64_t, bool, std::uint64_t)> f)
    {
        sendLower_ = std::move(f);
    }

    /**
     * Observer invoked at most once per tick() when completion
     * callbacks fired or the free generation moved since the last call.
     * Every cross-boundary wake an SM can receive — LSU group done,
     * store retire, HSU op done, RT-unit line arrival — is delivered
     * through this cache's completion streams, and a generation move is
     * what un-parks a refused request, so one observer per L1 lets the
     * owning SM learn "my state changed this cycle" without enumerating
     * the callback sites. Purely a host-side wake signal; no timing
     * effect.
     */
    void
    setCompletionObserver(std::function<void()> f)
    {
        completionObserver_ = std::move(f);
    }

    /** True when no MSHR is pending and all queues are empty. */
    bool idle() const;

    /**
     * Free generation: bumped by every fill and every miss-queue pop,
     * the only events that can turn a refused access into an accepted
     * one. A refused read is never a hit (only a fill installs a
     * line), MSHR entries and their merge slots free only on a fill,
     * and miss-queue room appears only on a pop. So while the
     * generation holds, a refused request would be refused again, and
     * its requester may count the refusal without asking
     * (accountParkedRejects) instead of calling access().
     */
    std::uint64_t freeGeneration() const { return freeGen_; }

    /** Count @p n refusals of requests parked on the free generation. */
    void accountParkedRejects(double n) { statRejects_ += n; }

    /**
     * Earliest future cycle at which tick() could act on its own:
     * draining the miss queue (every cycle while non-empty) or firing a
     * scheduled completion. Pending MSHRs awaiting a fill are driven by
     * the lower level and carry no self event.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Line-align an address. */
    std::uint64_t lineOf(std::uint64_t addr) const
    { return addr / params_.lineBytes; }

    const CacheParams &params() const { return params_; }

    /** MSHR entries currently in use (for contention experiments). */
    std::size_t
    mshrInUse() const
    {
        return params_.mshrEntries - mshrFree_.size();
    }

  private:
    /** Completion streams: due hitLatency after the access, or at a fill. */
    static constexpr unsigned kHitStream = 0;
    static constexpr unsigned kFillStream = 1;

    static constexpr std::size_t kNoWay = ~std::size_t{0};
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

    /** Index of the first way of @p line_addr's set. */
    std::size_t
    setOf(std::uint64_t line_addr) const
    {
        return std::size_t{line_addr % numSets_} * params_.assoc;
    }

    std::uint64_t tagOf(std::uint64_t line_addr) const
    { return line_addr / numSets_; }

    /** The way of @p set holding @p tag, or kNoWay. */
    std::size_t findWay(std::size_t set, std::uint64_t tag) const;
    bool lookup(std::uint64_t line_addr, std::uint64_t now);
    void install(std::uint64_t line_addr, std::uint64_t now);

    CacheParams params_;
    unsigned numSets_;
    // Way w of set s is entry s * assoc + w: a set's tags are
    // contiguous, so a lookup reads them without touching lastUse_.
    std::vector<std::uint64_t> tags_;    //!< kNoTag marks an empty way
    std::vector<std::uint64_t> lastUse_; //!< LRU stamp per way

    // The MSHR file: mshrEntries slots, each with room for
    // mshrMergesPerEntry waiters in mshrWaiters_ (slot-major), found
    // by line through mshrIndex_.
    MshrIndex mshrIndex_;
    std::vector<MemCompletion> mshrWaiters_;
    std::vector<unsigned> mshrWaiterCount_;
    std::vector<std::uint32_t> mshrFree_;

    std::deque<std::pair<std::uint64_t, bool>> missQueue_;
    CompletionStreams ready_;
    std::function<bool(std::uint64_t, bool, std::uint64_t)> sendLower_;
    std::function<void()> completionObserver_;
    std::uint64_t freeGen_ = 0;
    std::uint64_t observedGen_ = 0; //!< freeGen_ at the last observer call

    Stat &statAccesses_;
    Stat &statReadAccesses_;
    Stat &statHits_;
    Stat &statHitReserved_;
    Stat &statMisses_;
    Stat &statWrites_;
    Stat &statRejects_;
};

} // namespace hsu

#endif // HSU_MEM_CACHE_HH
