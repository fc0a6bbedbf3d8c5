/**
 * @file
 * Offload-fraction ablation (a Fig-7-style sweep made executable): each
 * workload's semantic trace is emitted once and lowered at PartialOffload
 * fractions 0..1, simulating the continuum between the non-RT baseline
 * and the full HSU design. The endpoints are cross-checked against the
 * two-point runBaseOnly/runHsuOnly paths — f=0 and f=1 must reproduce
 * their cycle counts exactly (the lowerings are bit-identical and an
 * idle HSU is timing-neutral), so this bench doubles as an end-to-end
 * consistency check of the lowering layer.
 */

#include <cstdlib>
#include <memory>
#include <utility>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "sim/trace_stats.hh"

using namespace hsu;

namespace
{

constexpr double kFractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("ablation_offload",
                   "cycles vs offloaded fraction of semantic ops");
    bool quick = false;
    unsigned jobs = 0;
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "quarter-size query batches");
    args.envOpt(jobs, "jobs", "HSU_JOBS",
                "worker threads for the sweep executor");
    if (!args.parse(argc, argv))
        return args.exitCode();

    const GpuConfig gpu = bench::defaultGpu(); // RT unit enabled
    Table t("Offload ablation: cycles vs offloaded fraction of "
            "semantic ops",
            {"Workload", "f", "Realized", "Cycles", "Speedup"});

    bool endpoints_ok = true;
    for (const Algo algo :
         {Algo::Ggnn, Algo::Flann, Algo::Bvhnn, Algo::Btree}) {
        const DatasetId id = datasetsForAlgo(algo).front();
        const DatasetInfo info = datasetInfo(id);
        const RunnerOptions opts = bench::benchOptions(info);
        const std::string label = workloadLabel(algo, info);

        // One shared emission, one lowering per sweep point. Each
        // worker lowers the semantic trace itself, so the five sweep
        // points hold one semantic trace between them, not five
        // pre-lowered copies.
        const std::shared_ptr<const SemKernelTrace> sem =
            emitSemanticShared(algo, id, opts);
        const std::vector<std::pair<double, RunResult>> res = parallelMap(
            std::size(kFractions),
            [&](std::size_t i) {
                const KernelTrace trace = lowerTrace(
                    *sem, Lowering::partial(kFractions[i], gpu.datapath));
                StatGroup stats;
                return std::pair{
                    analyzeTrace(trace).semanticOffloadFraction(),
                    simulateKernel(gpu, trace, stats)};
            },
            jobs);

        // Endpoint cross-check against the two-point API.
        StatGroup base_stats, hsu_stats;
        const RunResult base =
            runBaseOnly(algo, id, gpu, opts, base_stats);
        const RunResult full = runHsuOnly(algo, id, gpu, opts, hsu_stats);
        if (res.front().second.cycles != base.cycles ||
            res.back().second.cycles != full.cycles) {
            std::cerr << label
                      << ": endpoint mismatch (f=0: "
                      << res.front().second.cycles << " vs baseline "
                      << base.cycles << ", f=1: " << res.back().second.cycles
                      << " vs HSU " << full.cycles << ")\n";
            endpoints_ok = false;
        }

        for (std::size_t i = 0; i < std::size(kFractions); ++i) {
            const auto &[realized, run] = res[i];
            const double speedup =
                run.cycles ? static_cast<double>(base.cycles) /
                                 static_cast<double>(run.cycles)
                           : 0.0;
            t.addRow({label, Table::num(kFractions[i], 2),
                      Table::pct(realized), std::to_string(run.cycles),
                      Table::num(speedup, 2) + "x"});
        }
    }
    t.print(std::cout);
    bench::writePipelineReport("ablation_offload");
    if (!endpoints_ok) {
        std::cerr << "FAIL: partial-offload endpoints diverge from the "
                     "baseline/HSU lowerings\n";
        return 1;
    }
    return 0;
}
