/**
 * @file
 * Compact deterministic event log of the serving schedulers.
 *
 * The serving layers (serve/pipeline, serve/cache, serve/loop)
 * can record every scheduling decision — admissions, batch
 * seal/dispatch/resolve, cache hit/miss/insert/evict, scatter/gather
 * hops and join resolutions — as a flat sequence of fixed-size events
 * stamped with the simulated cycle and a lane id. The schedule linter
 * (analysis/schedule_lint) replays that log against the scheduling
 * invariants (SV/SH/CH rule families, DESIGN.md section 11).
 *
 * Recording discipline: every event is appended from the single
 * event-loop thread that owns the simulated clock (worker-pool batch
 * simulations never record), so the log order is a pure function of
 * the request stream and the config — bit-identical across runs and
 * any HSU_JOBS setting.
 *
 * Cost discipline: producers hold a ScheduleRecorder by value; with no
 * log attached (the default everywhere) record() is a null check and
 * nothing else, so instrumented hot paths stay within noise.
 */

#ifndef HSU_ANALYSIS_SCHEDULE_LOG_HH
#define HSU_ANALYSIS_SCHEDULE_LOG_HH

#include <cstdint>
#include <vector>

#include "common/cycletime.hh"

namespace hsu
{

/**
 * Event vocabulary. The a/b/c payload meaning per kind (ids are
 * request ids unless said otherwise; "depth" is the FIFO queue depth
 * sampled when the decision was made):
 *
 *  - PipelineConfig: a=highWater, b=shedWater, c=maxBatch (cycle 0;
 *    one per pipeline lane, before any other event of that lane).
 *  - CacheConfig: a=capacity, b=flag bits (kCacheExactOnly |
 *    kCacheBtree | kCacheTolerantMode), c=hitLatencyCycles.
 *  - ClusterConfig: a=scatterHopCycles, b=gatherHopCycles,
 *    c=mergeCyclesPerShard (router lane, cycle 0).
 *  - Admit: cycle=arrival at the lane, a=request id, b=query id,
 *    c=(outcome | depth << 2) with outcome 0=queued, 2=shed; depth
 *    sampled before any queue push.
 *  - Expire: cycle=batch-formation cycle, a=request id,
 *    b=deadlineCycle.
 *  - BatchSeal: cycle=formation, a=batch seq, b=batch size,
 *    c=(degraded | depth << 1); depth sampled before the pop (the
 *    degradation signal).
 *  - SealMember: cycle=formation, a=request id, b=deadlineCycle,
 *    c=batch seq — recorded in FIFO pop order, BEFORE the ordering
 *    policy runs (the evidence that policy reorder is timing-only).
 *  - Dispatch: cycle=launch, a=batch seq, b=size, c=degraded.
 *  - DispatchMember: cycle=launch, a=request id, b=query id,
 *    c=batch seq — in launch (post-policy) order.
 *  - Resolve: cycle=readyCycle, a=batch seq, b=kernel cycles,
 *    c=readyCycle (dispatch + launch overhead + kernel).
 *  - CacheHit / CacheMiss: cycle=lookup, a=query id, b=cache key.
 *  - CacheInsert: cycle=insert, a=query id, b=cache key, c=1 when the
 *    key was already resident (recency refresh, no new entry).
 *  - CacheEvict: cycle=insert that overflowed, a=evicted cache key.
 *  - RouterRoute: cycle=arrival, a=request id, b=query id, c=fan-out
 *    (shard count targeted; 0 = answered empty at the router).
 *  - Scatter: cycle=send, a=request id, b=destination lane,
 *    c=deliverCycle (send + scatter hop).
 *  - Gather: cycle=lane readyCycle, lane=source lane, a=request id,
 *    b=lane readyCycle, c=merge-ready cycle (b + gather hop).
 *  - SubShed: a=request id — one sub-query resolved with no answer
 *    (lane admission shed or deadline expiry), router join side.
 *  - JoinDone: cycle=request completion (0 when every sub-query
 *    shed), a=request id, b=served sub-answers, c=shed sub-queries.
 */
enum class ScheduleEventKind : std::uint8_t
{
    PipelineConfig,
    CacheConfig,
    ClusterConfig,
    Admit,
    Expire,
    BatchSeal,
    SealMember,
    Dispatch,
    DispatchMember,
    Resolve,
    CacheHit,
    CacheMiss,
    CacheInsert,
    CacheEvict,
    RouterRoute,
    Scatter,
    Gather,
    SubShed,
    JoinDone,
};

/** Admit outcome codes (low 2 bits of the Admit event's c payload). */
inline constexpr std::uint64_t kAdmitQueued = 0;
inline constexpr std::uint64_t kAdmitShed = 2;

/** CacheConfig flag bits (b payload). */
inline constexpr std::uint64_t kCacheExactOnly = 1;    //!< keys == ids
inline constexpr std::uint64_t kCacheBtree = 2;        //!< Keys family
inline constexpr std::uint64_t kCacheTolerantMode = 4; //!< requested

/** The router's lane id in serving logs (pipeline lanes count up
 *  from 0; the router never owns a pipeline). */
inline constexpr std::uint32_t kRouterLane = 0xffffffffu;

/** One scheduling decision. 32 bytes, POD. */
struct ScheduleEvent
{
    Cycle cycle = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint32_t lane = 0;
    ScheduleEventKind kind = ScheduleEventKind::Admit;
};

/** One serving run's recorded schedule, in decision order. */
struct ScheduleLog
{
    std::vector<ScheduleEvent> events;
};

/**
 * Value-type recording handle held by the instrumented schedulers.
 * Null log (the default) disables recording at the cost of one
 * branch; the log outlives every recorder pointing at it.
 */
class ScheduleRecorder
{
  public:
    ScheduleRecorder() = default;
    ScheduleRecorder(ScheduleLog *log, std::uint32_t lane)
        : log_(log), lane_(lane)
    {
    }

    bool enabled() const { return log_ != nullptr; }
    std::uint32_t lane() const { return lane_; }

    void
    record(Cycle cycle, ScheduleEventKind kind, std::uint64_t a = 0,
           std::uint64_t b = 0, std::uint64_t c = 0) const
    {
        if (log_ == nullptr)
            return;
        log_->events.push_back(ScheduleEvent{cycle, a, b, c, lane_, kind});
    }

  private:
    ScheduleLog *log_ = nullptr;
    std::uint32_t lane_ = 0;
};

} // namespace hsu

#endif // HSU_ANALYSIS_SCHEDULE_LOG_HH
