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
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/cycletime.hh"
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
     * Observer invoked at most once per tick() after any completion
     * callbacks fired. Every cross-boundary wake an SM can receive —
     * LSU group done, store retire, HSU op done, RT-unit line arrival
     * — is delivered through this cache's completion queue, so one
     * observer per L1 lets the owning SM learn "my state changed this
     * cycle" without enumerating the callback sites. Purely a
     * host-side wake signal; no timing effect.
     */
    void
    setCompletionObserver(std::function<void()> f)
    {
        completionObserver_ = std::move(f);
    }

    /** True when no MSHR is pending and all queues are empty. */
    bool idle() const;

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
    std::size_t mshrInUse() const { return mshr_.size(); }

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    struct MshrEntry
    {
        std::vector<MemCompletion> waiters;
    };

    struct PendingDone
    {
        std::uint64_t ready;
        std::uint64_t seq;
        MemCompletion done;
        bool operator>(const PendingDone &o) const
        {
            return ready != o.ready ? ready > o.ready : seq > o.seq;
        }
    };

    bool lookup(std::uint64_t line_addr, std::uint64_t now);
    void install(std::uint64_t line_addr, std::uint64_t now);
    void scheduleDone(MemCompletion done, std::uint64_t ready);

    CacheParams params_;
    unsigned numSets_;
    std::vector<std::vector<Way>> sets_;
    std::unordered_map<std::uint64_t, MshrEntry> mshr_;
    std::deque<std::pair<std::uint64_t, bool>> missQueue_;
    std::priority_queue<PendingDone, std::vector<PendingDone>,
                        std::greater<>> ready_;
    std::function<bool(std::uint64_t, bool, std::uint64_t)> sendLower_;
    std::function<void()> completionObserver_;
    std::uint64_t seq_ = 0;

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
