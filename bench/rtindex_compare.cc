/**
 * @file
 * Section VI-G reproduction: RTIndeX re-implemented over the shared
 * LBVH. Baseline RT unit stores each 32-bit key as a triangle
 * primitive (288 bits, probed with ray-triangle tests); the HSU stores
 * keys natively (probed with KEY_COMPARE). The paper reports a 36.6%
 * lookup speedup and a 9:1 leaf-memory advantage at 163,840 lookups.
 */

#include "bench_common.hh"
#include "common/argparse.hh"
#include "search/rtindex.hh"
#include "workloads/datasets.hh"

using namespace hsu;

int
main(int argc, char **argv)
{
    ArgParser args("rtindex_compare",
                   "RTIndeX keys-as-triangles vs native HSU keys");
    bool quick = false;
    unsigned num_jobs = 0;
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "shrink the probe count ~4x");
    args.envOpt(num_jobs, "jobs", "HSU_JOBS",
                "worker threads for the variant simulations");
    if (!args.parse(argc, argv))
        return args.exitCode();

    // Scaled key store + lookups (paper: 163,840 lookups).
    const auto &info = datasetInfo(DatasetId::BTree1m);
    auto keys = generateKeys(info);
    const auto probes = generateKeyQueries(
        info,
        static_cast<std::size_t>(16384 * quickScale()));

    RtindexKernel index(std::move(keys));
    const GpuConfig cfg = bench::defaultGpu();

    Table t("Section VI-G: RTIndeX keys-as-triangles (RT unit) vs "
            "native keys (HSU); paper: +36.6%, 9:1 memory",
            {"Variant", "Leaf bytes/key", "Cycles", "Speedup"});

    const RtindexEmit tri = index.emit(probes, RtindexForm::Tri);
    const RtindexEmit key = index.emit(probes, RtindexForm::Native);

    // Both variants' sims are independent: fan them across the pool.
    const KernelTrace traces[] = {
        lowerTrace(tri.sem, Lowering::baseline()),
        lowerTrace(key.sem, Lowering::hsu()),
    };
    const std::vector<RunResult> results = parallelMap(
        std::size(traces),
        [&](std::size_t i) {
            StatGroup stats;
            return simulateKernel(cfg, traces[i], stats);
        },
        num_jobs);
    const RunResult &r_tri = results[0];
    const RunResult &r_key = results[1];

    t.addRow({"triangle keys (RT)",
              std::to_string(tri.leafBytesPerKey),
              std::to_string(r_tri.cycles), "1.000"});
    t.addRow({"native keys (HSU)",
              std::to_string(key.leafBytesPerKey),
              std::to_string(r_key.cycles),
              Table::num(static_cast<double>(r_tri.cycles) /
                             static_cast<double>(r_key.cycles),
                         3)});
    t.print(std::cout);

    // Sanity: both variants find the same keys.
    std::size_t hits = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (tri.found[i] != key.found[i]) {
            std::fprintf(stderr, "MISMATCH at probe %zu\n", i);
            return 1;
        }
        hits += key.found[i];
    }
    std::printf("lookups=%zu found=%zu (variants agree)\n",
                probes.size(), hits);
    return 0;
}
