/**
 * @file
 * Ablation: the two RT-unit design choices DESIGN.md calls out —
 * CISC fetch line-merging and warp-scheduler policy — evaluated on one
 * representative workload per algorithm class.
 */

#include "bench_common.hh"

using namespace hsu;

int
main()
{
    const std::pair<Algo, DatasetId> cases[] = {
        {Algo::Ggnn, DatasetId::Sift10k},
        {Algo::Bvhnn, DatasetId::Random10k},
        {Algo::Btree, DatasetId::BTree10k},
    };

    GpuConfig no_merge = bench::defaultGpu();
    no_merge.rtFetchMerging = false;
    GpuConfig rr = bench::defaultGpu();
    rr.scheduler = SchedulerPolicy::RoundRobin;
    const GpuConfig variants[] = {bench::defaultGpu(), no_merge, rr};

    // One baseline + three HSU-variant sims per workload, all
    // independent: fan the whole grid across the worker pool.
    const std::size_t runs = 1 + std::size(variants);
    const std::vector<RunResult> results =
        parallelMap(std::size(cases) * runs, [&](std::size_t i) {
            const auto &[algo, id] = cases[i / runs];
            const RunnerOptions opts =
                bench::benchOptions(datasetInfo(id));
            StatGroup stats;
            if (i % runs == 0)
                return runBaseOnly(algo, id, bench::defaultGpu(), opts,
                                   stats);
            return runHsuOnly(algo, id, variants[i % runs - 1], opts,
                              stats);
        });

    Table t("Ablation: fetch merging and scheduler policy (HSU speedup "
            "over the matching non-RT baseline)",
            {"Workload", "GTO+merge (default)", "GTO, no merge",
             "RR+merge"});

    std::size_t slot = 0;
    for (const auto &[algo, id] : cases) {
        const RunResult &base = results[slot++];
        auto speedup = [&](const RunResult &r) {
            return static_cast<double>(base.cycles) /
                   static_cast<double>(r.cycles);
        };
        const double dflt = speedup(results[slot++]);
        const double merge_off = speedup(results[slot++]);
        const double round_robin = speedup(results[slot++]);
        t.addRow({workloadLabel(algo, datasetInfo(id)),
                  Table::num(dflt, 3), Table::num(merge_off, 3),
                  Table::num(round_robin, 3)});
    }
    t.print(std::cout);
    return 0;
}
