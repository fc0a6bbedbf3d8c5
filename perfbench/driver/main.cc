/**
 * @file
 * perfbench_driver: runs one workload of the repo benchmark and writes
 * its raw record (set-up time, per-repetition host times, every modeled
 * output) as JSON. perfbench/run.py builds it, calls it and turns the
 * records into the benchmark's metrics.
 *
 *   perfbench_driver --workload fleet|serve|shard --seed N --seconds S
 *                    --out FILE [--trace-file FILE]
 *   perfbench_driver --build-info
 *
 * The body repeats until another repetition would end after --seconds
 * (at least once).
 *
 * With --trace-file, repetitions alternate untraced and traced, spans
 * are written there as Chrome trace-event JSON, and the traced set-up
 * also times each layer's builders.
 *
 * The driver refuses (exit 3, no record) to measure a program other
 * than the one users run: a library environment variable that changes
 * what runs, or a build with assertions, audit checks or a sanitizer.
 */

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <thread>

#include <sys/resource.h>

#include "bench.hh"

namespace perfbench
{

namespace
{

const auto kStart = std::chrono::steady_clock::now();

unsigned
threadSlot()
{
    static std::atomic<unsigned> next{1};
    thread_local const unsigned slot = next.fetch_add(1);
    return slot;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kStart)
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

JsonObject &
JsonObject::set(const std::string &key, double v)
{
    return raw(key, num(v));
}

JsonObject &
JsonObject::set(const std::string &key, std::uint64_t v)
{
    return raw(key, std::to_string(v));
}

JsonObject &
JsonObject::set(const std::string &key, const std::string &v)
{
    return raw(key, quote(v));
}

JsonObject &
JsonObject::raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
    return *this;
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i)
            out += ", ";
        out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
}

std::uint64_t
Tracer::begin(const std::string &name, std::uint64_t parent,
              std::uint64_t op)
{
    if (!enabled_)
        return 0;
    const double t = nowSeconds();
    std::lock_guard lock(mutex_);
    recs_.push_back({name, parent, op, threadSlot(), t, t});
    return recs_.size();
}

void
Tracer::end(std::uint64_t id)
{
    if (id == 0)
        return;
    const double t = nowSeconds();
    std::lock_guard lock(mutex_);
    recs_[id - 1].end = t;
}

void
Tracer::add(const std::string &name, std::uint64_t parent,
            std::uint64_t op, double start, double end)
{
    if (!enabled_)
        return;
    std::lock_guard lock(mutex_);
    recs_.push_back({name, parent, op, threadSlot(), start, end});
}

void
Tracer::writeChrome(std::ostream &os) const
{
    std::lock_guard lock(mutex_);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < recs_.size(); ++i) {
        const Rec &r = recs_[i];
        os << (i ? ",\n" : "") << "{\"name\": " << quote(r.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
           << ", \"ts\": " << num(r.start * 1e6)
           << ", \"dur\": " << num((r.end - r.start) * 1e6)
           << ", \"args\": {\"id\": " << i + 1
           << ", \"parent\": " << r.parent << ", \"op\": " << r.op
           << "}}";
    }
    os << "\n]}\n";
}

std::string
phaseDelta(const hsu::PipelinePhaseReport &a)
{
    const hsu::PipelinePhaseReport b = hsu::pipelinePhaseReport();
    JsonObject o;
    o.set("emit_s", b.emitSeconds - a.emitSeconds)
        .set("emit_calls", b.emitCalls - a.emitCalls)
        .set("emit_cache_hits", b.emitCacheHits - a.emitCacheHits)
        .set("lower_s", b.lowerSeconds - a.lowerSeconds)
        .set("lower_calls", b.lowerCalls - a.lowerCalls)
        .set("simulate_s", b.simulateSeconds - a.simulateSeconds)
        .set("simulate_calls", b.simulateCalls - a.simulateCalls);
    return o.str();
}

hsu::GpuConfig
defaultGpu()
{
    hsu::GpuConfig cfg;
    cfg.numSms = 4;
    cfg.finalize();
    return cfg;
}

void
foldStats(const hsu::StatGroup &stats, std::map<std::string, double> &sums)
{
    for (const auto &[name, value] : stats.dump()) {
        std::string folded;
        std::size_t pos = 0;
        while (pos <= name.size()) {
            const std::size_t dot = std::min(name.find('.', pos),
                                             name.size());
            const std::string part = name.substr(pos, dot - pos);
            const bool index = !part.empty() &&
                               part.find_first_not_of("0123456789") ==
                                   std::string::npos;
            if (!index)
                folded += (folded.empty() ? "" : ".") + part;
            pos = dot + 1;
        }
        sums[folded] += value;
    }
}

std::string
sumsJson(const std::map<std::string, double> &sums)
{
    JsonObject o;
    for (const auto &[name, value] : sums)
        o.set(name, value);
    return o.str();
}

std::string
statsDigest(const hsu::StatGroup &stats)
{
    std::string text;
    for (const auto &[name, value] : stats.dump()) {
        if (name == "sim.ff_cycles" || name == "sim.horizon_cycles")
            continue;
        text += name + "=" + num(value) + "\n";
    }
    return digest(text);
}

std::string
histogramDigest(const hsu::Histogram &h)
{
    std::string text = std::to_string(h.count()) + "/" +
                       std::to_string(h.underflow()) + "/" +
                       num(h.min()) + "/" + num(h.max()) + "/" +
                       num(h.sum());
    for (const double p : {1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0,
                           99.0, 99.9, 100.0}) {
        text += '/';
        text += num(h.percentile(p));
    }
    return digest(text);
}

double
tailPercentile(std::uint64_t count)
{
    if (count <= 20)
        return 50.0;
    const double n = static_cast<double>(count);
    return std::min(99.0, 100.0 * (n - 10.0) / n);
}

double
geomean(const std::vector<double> &vals)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const double v : vals) {
        if (v > 0.0 && std::isfinite(v)) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

} // namespace perfbench

using namespace perfbench;

namespace
{

/** Environment variables the simulator libraries read: each changes
 *  what runs (a warm index cache, unskipped or parallel cycle loops,
 *  another worker count, quarter-size queries). */
const char *const kLibraryEnv[] = {"HSU_INDEX_CACHE", "HSU_NO_SKIP",
                                   "HSU_SIM_JOBS", "HSU_JOBS",
                                   "HSU_QUICK"};

std::string
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") ? "flags" : "";
#endif
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#ifdef HSU_AUDIT
constexpr bool kAudit = true;
#else
constexpr bool kAudit = false;
#endif

/** Reasons this process must not be measured (empty = fine). */
std::vector<std::string>
refusals()
{
    std::vector<std::string> out;
    for (const char *var : kLibraryEnv) {
        if (std::getenv(var) != nullptr)
            out.push_back(std::string("environment sets ") + var);
    }
    if (!kNdebug)
        out.push_back("build has assertions and emission-time linting "
                      "(NDEBUG undefined)");
    if (kAudit)
        out.push_back("build has HSU_AUDIT contract checks and "
                      "emission-time linting");
    if (!sanitizerName().empty())
        out.push_back("build uses a sanitizer");
    return out;
}

unsigned
workerCount()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string
hostJson()
{
    JsonObject o;
    o.set("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    o.set("workers", static_cast<std::uint64_t>(workerCount()));
#if defined(__clang__)
    o.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    o.set("compiler", std::string("gcc ") + __VERSION__);
#else
    o.set("compiler", std::string("unknown"));
#endif
    o.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
    o.set("cxx_flags", std::string(PERFBENCH_CXX_FLAGS));
    o.set("ndebug", std::string(kNdebug ? "yes" : "no"));
    o.set("audit", std::string(kAudit ? "yes" : "no"));
    o.set("sanitizer", sanitizerName());
    return o.str();
}

struct Workload
{
    const char *name;
    void (*setup)(const RunContext &);
    void (*run)(const RunContext &, Iteration &);
};

const Workload kWorkloads[] = {
    {"fleet", setupFleet, runFleet},
    {"serve", setupServe, runServe},
    {"shard", setupShard, runShard},
};

/** Repetitions stop after this many even if time is left. */
constexpr std::size_t kMaxIterations = 64;

std::string
iterationJson(const Iteration &it)
{
    std::string ops = "[";
    for (std::size_t i = 0; i < it.ops.size(); ++i) {
        const OpRecord &op = it.ops[i];
        std::string failed = "[";
        for (std::size_t j = 0; j < op.failed.size(); ++j)
            failed += (j ? ", " : "") + quote(op.failed[j]);
        ops += std::string(i ? ",\n    " : "\n    ") + "{\"op\": " +
               quote(op.op) + ", \"output\": " + op.output.str() +
               ", \"failed\": " + failed + "]}";
    }
    ops += "]";
    JsonObject o;
    o.set("traced", static_cast<std::uint64_t>(it.traced));
    o.set("wall_s", it.wallS);
    o.set("cpu_s", it.cpuS);
    o.set("modeled_cycles", it.modeledCycles);
    o.raw("modeled", it.modeled.str());
    o.raw("counters", it.counters.str());
    o.raw("ops", ops);
    return o.str();
}

int
usage(const char *why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload fleet|serve|shard "
                 "--seed N --seconds S --out FILE [--trace-file FILE]\n"
              << "       perfbench_driver --build-info\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_path, trace_path;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool build_info = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            workload = argv[++i];
        else if (a == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--out" && has_value)
            out_path = argv[++i];
        else if (a == "--trace-file" && has_value)
            trace_path = argv[++i];
        else if (a == "--build-info")
            build_info = true;
        else
            return usage(("bad argument " + a).c_str());
    }

    const std::vector<std::string> refused = refusals();
    if (build_info) {
        JsonObject o;
        std::string list = "[";
        for (std::size_t i = 0; i < refused.size(); ++i)
            list += (i ? ", " : "") + quote(refused[i]);
        o.raw("host", hostJson()).raw("refusals", list + "]");
        std::cout << o.str() << "\n";
        return 0;
    }
    if (!refused.empty()) {
        for (const std::string &why : refused)
            std::cerr << "perfbench_driver: refusing to measure: " << why
                      << "\n";
        return 3;
    }

    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (workload == cand.name)
            w = &cand;
    }
    if (w == nullptr)
        return usage("unknown or missing --workload");
    if (out_path.empty())
        return usage("missing --out");
    if (!(seconds > 0.0))
        return usage("--seconds must be positive");

    const bool trace = !trace_path.empty();
    Tracer tracer(trace);
    Tracer off(false);
    RunContext ctx;
    ctx.seed = seed;
    ctx.workers = workerCount();

    // Set-up: every dataset, index and pool the body uses, built cold.
    ctx.tracer = &tracer;
    const double setup_start = nowSeconds();
    {
        const Span span(tracer, "setup", 0, 0);
        ctx.parent = span.id();
        w->setup(ctx);
    }
    const double setup_s = nowSeconds() - setup_start;

    std::vector<Iteration> its;
    const double body_start = nowSeconds();
    while (its.size() < kMaxIterations) {
        Iteration it;
        it.traced = trace && its.size() % 2 == 1;
        Tracer &tr = it.traced ? tracer : off;
        ctx.tracer = &tr;
        const double t0 = nowSeconds();
        const double c0 = processCpuSeconds();
        {
            const Span span(tr, "body", 0, 0);
            ctx.parent = span.id();
            w->run(ctx, it);
        }
        it.wallS = nowSeconds() - t0;
        it.cpuS = processCpuSeconds() - c0;
        its.push_back(std::move(it));
        // Start another repetition only if it should end in time.
        const double elapsed = nowSeconds() - body_start;
        const std::size_t min_its = trace ? 2 : 1;
        if (its.size() >= min_its && elapsed + its.back().wallS > seconds)
            break;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::ofstream out(out_path);
    out << "{\"workload\": " << quote(w->name) << ", \"seed\": " << seed
        << ", \"seconds\": " << num(seconds)
        << ",\n \"host\": " << hostJson() << ",\n \"setup_s\": "
        << num(setup_s) << ", \"peak_rss_mb\": " << num(peak_rss_mb)
        << ",\n \"iterations\": [";
    for (std::size_t i = 0; i < its.size(); ++i)
        out << (i ? ",\n  " : "\n  ") << iterationJson(its[i]);
    out << "]}\n";
    out.close();
    if (!out) {
        std::cerr << "perfbench_driver: cannot write " << out_path << "\n";
        return 1;
    }
    if (trace) {
        std::ofstream tf(trace_path);
        tracer.writeChrome(tf);
        tf.close();
        if (!tf) {
            std::cerr << "perfbench_driver: cannot write " << trace_path
                      << "\n";
            return 1;
        }
    }
    return 0;
}
