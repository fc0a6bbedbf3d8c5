/**
 * @file
 * Simulator-throughput benchmark: one timed simulation of each fig-9
 * workload (baseline and HSU kernels) under the default GPU, with the
 * fleet executor bypassed so each simulation owns the machine. Prints
 * the simulated cycles on stdout and writes simulate seconds and
 * cycles/second per workload to BENCH_sim.json.
 */

#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "workloads/datasets.hh"

using namespace hsu;

namespace
{

struct WorkloadTiming
{
    std::string label;
    std::uint64_t totalCycles = 0; //!< base + hsu
    double simSeconds = 0.0;
    double cyclesPerSec = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perf_sim",
                   "simulate-phase wall time and cycles/second of "
                   "each fig-9 workload");
    bool quick = false;
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "shrink per-workload query counts ~4x");
    if (!args.parse(argc, argv))
        return args.exitCode();

    Table t("Simulator throughput: per-workload simulated cycles",
            {"Workload", "Base cycles", "HSU cycles"});

    std::vector<WorkloadTiming> timings;
    for (const auto &[algo, id] : bench::allWorkloads()) {
        const RunnerOptions opts = bench::benchOptions(datasetInfo(id));
        const double before = pipelinePhaseReport().simulateSeconds;
        const WorkloadResult res =
            runWorkload(algo, id, bench::defaultGpu(), opts);

        WorkloadTiming wt;
        wt.label = res.label;
        wt.totalCycles = res.base.cycles + res.hsu.cycles;
        wt.simSeconds = pipelinePhaseReport().simulateSeconds - before;
        wt.cyclesPerSec =
            wt.simSeconds > 0.0
                ? static_cast<double>(wt.totalCycles) / wt.simSeconds
                : 0.0;
        // Wall-clock varies run to run: stderr, not stdout.
        std::cerr << "[perf_sim] " << wt.label << " simulate "
                  << Table::num(wt.simSeconds, 3) << "s ("
                  << Table::num(wt.cyclesPerSec / 1e6, 3)
                  << " Mcycles/s)\n";
        t.addRow({wt.label, std::to_string(res.base.cycles),
                  std::to_string(res.hsu.cycles)});
        timings.push_back(std::move(wt));
    }
    t.print(std::cout);

    std::ofstream out("BENCH_sim.json");
    if (!out) {
        hsu_warn("cannot write BENCH_sim.json");
        return 0;
    }
    out.precision(6);
    out << std::fixed;
    out << "{\n  \"bench\": \"perf_sim\",\n  \"workloads\": [\n";
    for (std::size_t w = 0; w < timings.size(); ++w) {
        const WorkloadTiming &wt = timings[w];
        out << "    {\"label\": \"" << wt.label
            << "\", \"total_cycles\": " << wt.totalCycles
            << ", \"simulate_seconds\": " << wt.simSeconds
            << ", \"cycles_per_sec\": " << wt.cyclesPerSec << "}"
            << (w + 1 < timings.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return 0;
}
