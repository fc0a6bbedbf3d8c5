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
    const std::vector<std::pair<Algo, DatasetId>> cases = {
        {Algo::Ggnn, DatasetId::Sift10k},
        {Algo::Bvhnn, DatasetId::Random10k},
        {Algo::Btree, DatasetId::BTree10k},
    };

    GpuConfig no_merge = bench::defaultGpu();
    no_merge.rtFetchMerging = false;
    GpuConfig rr = bench::defaultGpu();
    rr.scheduler = SchedulerPolicy::RoundRobin;

    const std::vector<std::vector<double>> speedups =
        bench::sweepSpeedups(cases, {bench::defaultGpu(), no_merge, rr});

    Table t("Ablation: fetch merging and scheduler policy (HSU speedup "
            "over the matching non-RT baseline)",
            {"Workload", "GTO+merge (default)", "GTO, no merge",
             "RR+merge"});
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const auto &[algo, id] = cases[c];
        std::vector<std::string> row{workloadLabel(algo, datasetInfo(id))};
        for (const double s : speedups[c])
            row.push_back(Table::num(s, 3));
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    return 0;
}
