/**
 * @file
 * Pipeline-phase instrumentation for the emit-once / lower-many trace
 * pipeline.
 *
 * The trace pipeline has three phases — semantic emission (the
 * functional search kernel), lowering (IR -> executable trace), and
 * timing simulation — and runs on indexes built before it: a fourth
 * counter times index construction. The bench binaries report how
 * wall-clock splits across them (BENCH_pipeline.json, written by
 * bench::writePipelineReport). Each phase accumulates nanoseconds into
 * a process-global atomic, so the numbers are CPU-seconds summed over
 * every worker thread, not elapsed time; with HSU_JOBS workers a phase
 * can legitimately exceed the process wall-clock.
 *
 * The counters are monotone and lock-free: a ScopedPhaseTimer on the
 * stack of a hot path costs two steady_clock reads and one fetch_add.
 */

#ifndef HSU_COMMON_PHASE_TIMER_HH
#define HSU_COMMON_PHASE_TIMER_HH

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace hsu
{

/** The three trace-pipeline phases, and the index builds before them. */
enum class PipelinePhase : unsigned
{
    Emit,     //!< functional kernel run + semantic trace construction
    Lower,    //!< lowerTrace(): semantic IR -> executable warp trace
    Simulate, //!< Gpu timing simulation of a lowered trace
    Build,    //!< index construction (an index cache load is not a build)
};

constexpr unsigned kNumPipelinePhases = 4;

namespace detail
{

struct PhaseCounters
{
    std::atomic<std::uint64_t> nanos[kNumPipelinePhases]{};
    std::atomic<std::uint64_t> calls[kNumPipelinePhases]{};
    /** emitSemanticShared() requests served from the cache. */
    std::atomic<std::uint64_t> emitCacheHits{0};
};

inline PhaseCounters &
phaseCounters()
{
    static PhaseCounters counters;
    return counters;
}

} // namespace detail

/** RAII: accumulate the enclosing scope's wall time into @p phase. */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(PipelinePhase phase)
        : phase_(static_cast<unsigned>(phase)),
          start_(std::chrono::steady_clock::now())
    {
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

    ~ScopedPhaseTimer()
    {
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        auto &c = detail::phaseCounters();
        c.nanos[phase_].fetch_add(static_cast<std::uint64_t>(ns),
                                  std::memory_order_relaxed);
        c.calls[phase_].fetch_add(1, std::memory_order_relaxed);
    }

  private:
    unsigned phase_;
    std::chrono::steady_clock::time_point start_;
};

/** Record one emission request served from the semantic-trace cache. */
inline void
notePipelineCacheHit()
{
    detail::phaseCounters().emitCacheHits.fetch_add(
        1, std::memory_order_relaxed);
}

/** Snapshot of the pipeline counters. */
struct PipelinePhaseReport
{
    double emitSeconds = 0.0;
    double lowerSeconds = 0.0;
    double simulateSeconds = 0.0;
    std::uint64_t emitCalls = 0;     //!< actual (uncached) emissions
    std::uint64_t emitCacheHits = 0; //!< requests the cache absorbed
    std::uint64_t lowerCalls = 0;
    std::uint64_t simulateCalls = 0;
    double buildSeconds = 0.0;
    std::uint64_t buildCalls = 0; //!< indexes built, not loaded
};

inline PipelinePhaseReport
pipelinePhaseReport()
{
    const auto &c = detail::phaseCounters();
    const auto secs = [&](PipelinePhase p) {
        return static_cast<double>(
                   c.nanos[static_cast<unsigned>(p)].load(
                       std::memory_order_relaxed)) *
               1e-9;
    };
    const auto calls = [&](PipelinePhase p) {
        return c.calls[static_cast<unsigned>(p)].load(
            std::memory_order_relaxed);
    };
    PipelinePhaseReport r;
    r.emitSeconds = secs(PipelinePhase::Emit);
    r.lowerSeconds = secs(PipelinePhase::Lower);
    r.simulateSeconds = secs(PipelinePhase::Simulate);
    r.emitCalls = calls(PipelinePhase::Emit);
    r.emitCacheHits = c.emitCacheHits.load(std::memory_order_relaxed);
    r.lowerCalls = calls(PipelinePhase::Lower);
    r.simulateCalls = calls(PipelinePhase::Simulate);
    r.buildSeconds = secs(PipelinePhase::Build);
    r.buildCalls = calls(PipelinePhase::Build);
    return r;
}

/** Process peak resident set size in bytes (0 where unsupported). */
inline std::size_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::size_t>(ru.ru_maxrss); // bytes on macOS
#else
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
    return 0;
#endif
}

} // namespace hsu

#endif // HSU_COMMON_PHASE_TIMER_HH
