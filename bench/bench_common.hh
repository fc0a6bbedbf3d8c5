/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench prints its reproduced rows through hsu::Table so output
 * is uniform and machine-parsable. Set HSU_QUICK=1 to shrink query
 * counts ~4x for a fast smoke pass.
 */

#ifndef HSU_BENCH_BENCH_COMMON_HH
#define HSU_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/phase_timer.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "search/runner.hh"

namespace hsu::bench
{

/** Process-start timestamp for total-wall-clock reporting (captured at
 *  static initialization, before main). */
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/** The HSU-enabled GPU configuration every experiment runs under
 *  (Table III, with the SM count scaled as documented in DESIGN.md). */
inline GpuConfig
defaultGpu()
{
    GpuConfig cfg;
    cfg.numSms = 4;
    cfg.finalize();
    return cfg;
}

/** Per-dataset runner options honoring HSU_QUICK. */
inline RunnerOptions
benchOptions(const DatasetInfo &info)
{
    return optionsFor(info, quickScale());
}

/** The (algo, dataset) pairs of the paper's evaluation, Fig 9 order. */
inline std::vector<std::pair<Algo, DatasetId>>
allWorkloads()
{
    std::vector<std::pair<Algo, DatasetId>> out;
    for (const Algo algo :
         {Algo::Ggnn, Algo::Flann, Algo::Bvhnn, Algo::Btree}) {
        for (const DatasetId id : datasetsForAlgo(algo))
            out.emplace_back(algo, id);
    }
    return out;
}

/**
 * A sensitivity sweep: for each (algo, dataset) case, one baseline run
 * under defaultGpu() and one HSU run per config in @p variants, all in
 * one parallelMap honoring HSU_QUICK and HSU_JOBS. Returns, per case,
 * the baseline's cycles over each variant's cycles, in variant order.
 *
 * The runs fan out case-major, each case's baseline first, so a case's
 * runs are in flight together and share one emission.
 */
inline std::vector<std::vector<double>>
sweepSpeedups(const std::vector<std::pair<Algo, DatasetId>> &cases,
              const std::vector<GpuConfig> &variants)
{
    const std::size_t runs = 1 + variants.size();
    const std::vector<RunResult> res =
        parallelMap(cases.size() * runs, [&](std::size_t i) {
            const auto &[algo, id] = cases[i / runs];
            const RunnerOptions opts = benchOptions(datasetInfo(id));
            StatGroup stats;
            if (i % runs == 0)
                return runBaseOnly(algo, id, defaultGpu(), opts, stats);
            return runHsuOnly(algo, id, variants[i % runs - 1], opts,
                              stats);
        });

    std::vector<std::vector<double>> out(cases.size());
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const double base = static_cast<double>(res[c * runs].cycles);
        for (std::size_t v = 1; v < runs; ++v)
            out[c].push_back(base /
                             static_cast<double>(res[c * runs + v].cycles));
    }
    return out;
}

/** Geometric-mean helper for summary rows. Non-positive entries have
 *  no logarithm; they are skipped (with a warning) rather than poisoning
 *  the whole mean with a NaN, which matters when a degenerate sweep
 *  point reports a 0.0 speedup. */
inline double
geomean(const std::vector<double> &vals)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const double v : vals) {
        if (v <= 0.0 || !std::isfinite(v)) {
            hsu_warn("geomean: skipping non-positive value ", v);
            continue;
        }
        log_sum += std::log(v);
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

/**
 * Write the per-phase pipeline breakdown of this bench run to
 * BENCH_pipeline.json in the working directory (CI uploads it as an
 * artifact and gates on the emit and build phases). Phase seconds are
 * CPU-seconds summed over worker threads — with HSU_JOBS > 1 they can
 * exceed total_wall_seconds. Call once, at the end of main.
 */
inline void
writePipelineReport(const std::string &bench_name)
{
    const PipelinePhaseReport r = pipelinePhaseReport();
    const double wall =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - kProcessStart)
            .count();
    std::ofstream out("BENCH_pipeline.json");
    if (!out) {
        hsu_warn("cannot write BENCH_pipeline.json");
        return;
    }
    out.precision(6);
    out << std::fixed;
    out << "{\n"
        << "  \"bench\": \"" << bench_name << "\",\n"
        << "  \"total_wall_seconds\": " << wall << ",\n"
        << "  \"emit_seconds\": " << r.emitSeconds << ",\n"
        << "  \"lower_seconds\": " << r.lowerSeconds << ",\n"
        << "  \"simulate_seconds\": " << r.simulateSeconds << ",\n"
        << "  \"emit_calls\": " << r.emitCalls << ",\n"
        << "  \"emit_cache_hits\": " << r.emitCacheHits << ",\n"
        << "  \"lower_calls\": " << r.lowerCalls << ",\n"
        << "  \"simulate_calls\": " << r.simulateCalls << ",\n"
        << "  \"build_seconds\": " << r.buildSeconds << ",\n"
        << "  \"build_calls\": " << r.buildCalls << ",\n"
        << "  \"peak_rss_bytes\": " << peakRssBytes() << "\n"
        << "}\n";
    // stderr, not stdout: wall-clock varies run to run, and stdout
    // tables are bit-identical by contract (diffable across knobs).
    std::cerr << "[pipeline] wall " << Table::num(wall, 2) << "s | build "
              << Table::num(r.buildSeconds, 2) << "s (" << r.buildCalls
              << " indexes) | emit " << Table::num(r.emitSeconds, 2) << "s ("
              << r.emitCalls << " emissions, " << r.emitCacheHits
              << " cache hits) | lower " << Table::num(r.lowerSeconds, 2)
              << "s | simulate " << Table::num(r.simulateSeconds, 2)
              << "s | peak RSS "
              << (peakRssBytes() >> 20) << " MiB\n";
}

} // namespace hsu::bench

#endif // HSU_BENCH_BENCH_COMMON_HH
