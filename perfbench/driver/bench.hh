/**
 * @file
 * Shared pieces of the repo benchmark's driver: clocks, the span
 * recorder behind traced runs, a minimal JSON writer, and the record
 * each workload fills.
 *
 * The driver runs one workload in one process. Set-up (datasets,
 * indexes, serving pools) is timed apart from the body; the body is
 * repeated until the requested seconds are used. Every modeled output
 * of every operation goes into the record, and run.py checks it against
 * the pinned reference.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/phase_timer.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "search/runner.hh"

namespace perfbench
{

/** Seconds on the steady clock since the process started. */
double nowSeconds();

/** User + system CPU seconds of the whole process. */
double processCpuSeconds();

/** CPU seconds of the calling thread. */
double threadCpuSeconds();

/** FNV-1a over @p text, as 16 hex digits. */
std::string digest(const std::string &text);

/** Shortest decimal text that reads back as exactly @p v. */
std::string num(double v);

/**
 * In-memory span recorder for traced runs, written at exit as Chrome
 * trace-event JSON. Disabled, every call is a no-op returning id 0.
 * Spans of one operation (a fleet job, a serving stream) share an op id.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its id (0 when disabled). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent,
                        std::uint64_t op);

    /** Close span @p id now (no-op for id 0). */
    void end(std::uint64_t id);

    /** Record a finished span [start, end] in nowSeconds() time. */
    void add(const std::string &name, std::uint64_t parent,
             std::uint64_t op, double start, double end);

    /** Chrome trace-event JSON ("X" events; args carry id/parent/op). */
    void writeChrome(std::ostream &os) const;

  private:
    struct Rec
    {
        std::string name;
        std::uint64_t parent = 0;
        std::uint64_t op = 0;
        unsigned tid = 0;
        double start = 0.0;
        double end = 0.0;
    };

    bool enabled_;
    mutable std::mutex mutex_; //!< guards recs_
    std::vector<Rec> recs_;
};

/** RAII span: open on construction, close on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, std::uint64_t parent,
         std::uint64_t op)
        : tracer_(tracer), id_(tracer.begin(name, parent, op))
    {
    }
    ~Span() { tracer_.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

/** JSON string literal for @p s. */
std::string quote(const std::string &s);

/** Flat JSON object builder. */
class JsonObject
{
  public:
    JsonObject &set(const std::string &key, double v);
    JsonObject &set(const std::string &key, std::uint64_t v);
    JsonObject &set(const std::string &key, const std::string &v);
    /** @p json must already be valid JSON. */
    JsonObject &raw(const std::string &key, const std::string &json);
    std::string str() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** One operation's modeled output and the checks it failed. */
struct OpRecord
{
    std::string op;                  //!< stable id, e.g. "D1B/hsu"
    JsonObject output;               //!< modeled values, pinned by run.py
    std::vector<std::string> failed; //!< checks this operation failed
};

/** One repetition of a workload's body. */
struct Iteration
{
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    double modeledCycles = 0.0; //!< summed over every simulation
    /** Modeled summary: hsu_speedup, and on fleet the Fig 9 numbers. */
    JsonObject modeled;
    std::vector<OpRecord> ops;
    /** Traced iterations: host counters and modeled sums the per-layer
     *  metrics are computed from (benchlib.layer_metrics). */
    JsonObject counters;
};

/** What a workload's set-up or body needs to know about the run. */
struct RunContext
{
    std::uint64_t seed = 1;
    unsigned workers = 1; //!< min(4, nproc)
    Tracer *tracer = nullptr;
    std::uint64_t parent = 0; //!< enclosing span (0 = none)
};

/** The GPU every workload simulates (Table III with 4 SMs, the config
 *  of the repo's figure benches). */
hsu::GpuConfig defaultGpu();

/** Add @p stats into @p sums with per-instance name parts folded
 *  ("l1d.3.rejects" -> "l1d.rejects"). */
void foldStats(const hsu::StatGroup &stats,
               std::map<std::string, double> &sums);

/** JSON object of @p sums. */
std::string sumsJson(const std::map<std::string, double> &sums);

/** Digest of every stat except the two loop diagnostics that may
 *  differ between equivalent simulator loops. */
std::string statsDigest(const hsu::StatGroup &stats);

/** Digest of a histogram: count, extremes, sum and fixed percentiles. */
std::string histogramDigest(const hsu::Histogram &h);

/** Highest percentile with at least ten samples beyond it, capped at
 *  p99, for @p count samples. */
double tailPercentile(std::uint64_t count);

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &vals);

/** JSON object of the program's emit/lower/simulate phase counters
 *  (common/phase_timer) accumulated since @p before. */
std::string phaseDelta(const hsu::PipelinePhaseReport &before);

// --- Workloads (fleet.cc, serving.cc) ---------------------------------

/** Run fn(i) for i in [0, n) on a fresh pool of @p workers threads. */
template <typename Fn>
void
parallelFor(unsigned workers, std::size_t n, Fn fn)
{
    hsu::ThreadPool pool(workers);
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < n; ++i)
        done.push_back(pool.submit([&fn, i] { fn(i); }));
    for (auto &f : done)
        f.get();
}

/** Build the runner's cached index assets of one dataset and its
 *  serving pool of @p pool_size, cold, through a one-query batch
 *  emission (the lightest public call that builds them). */
void warmRunnerAssets(const hsu::DatasetInfo &info, std::size_t pool_size);

/** Traced set-up only: time the dataset generators and index builders
 *  of @p datasets directly (workloads.gen, structures.*_build spans),
 *  on the inputs and parameters the runner's asset build uses. */
void probeBuilds(const RunContext &ctx,
                 const std::vector<hsu::DatasetInfo> &datasets);

/** Set-up: build every dataset, index and pool the workload uses, cold.
 *  With tracing on, each layer's builders are also timed directly. */
void setupFleet(const RunContext &ctx);
void setupServe(const RunContext &ctx);
void setupShard(const RunContext &ctx);

/** One repetition of the body; fills @p it. */
void runFleet(const RunContext &ctx, Iteration &it);
void runServe(const RunContext &ctx, Iteration &it);
void runShard(const RunContext &ctx, Iteration &it);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
