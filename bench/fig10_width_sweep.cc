/**
 * @file
 * Figure 10 reproduction: GGNN speedup at different datapath widths.
 * The legend widths refer to the Euclidean operating mode; the angular
 * width is architecturally half. Wider datapaths need fewer multi-beat
 * instructions per distance (lower latency), with diminishing returns
 * and occasional regressions from L1 contention (Section VI-H).
 */

#include "bench_common.hh"

using namespace hsu;

int
main()
{
    const unsigned widths[] = {4, 8, 16, 32};
    Table t("Fig 10: GGNN speedup vs non-RT baseline at datapath widths",
            {"Dataset", "w=4", "w=8", "w=16", "w=32"});

    // One baseline + four HSU runs per dataset, all independent: fan
    // the whole sweep across the pool and consume by index.
    const std::vector<DatasetId> ids = datasetsForAlgo(Algo::Ggnn);
    const std::size_t runs = 1 + std::size(widths);
    const std::vector<RunResult> res =
        parallelMap(ids.size() * runs, [&](std::size_t i) {
            const DatasetId id = ids[i / runs];
            const RunnerOptions opts =
                bench::benchOptions(datasetInfo(id));
            GpuConfig gpu = bench::defaultGpu();
            StatGroup stats;
            if (i % runs == 0)
                return runBaseOnly(Algo::Ggnn, id, gpu, opts, stats);
            gpu.datapath.euclidWidth = widths[i % runs - 1];
            return runHsuOnly(Algo::Ggnn, id, gpu, opts, stats);
        });

    std::size_t k = 0;
    for (const DatasetId id : ids) {
        const RunResult &base = res[k++];
        std::vector<std::string> row{datasetInfo(id).abbr};
        for (std::size_t w = 0; w < std::size(widths); ++w) {
            const RunResult &hsu = res[k++];
            row.push_back(Table::num(
                static_cast<double>(base.cycles) /
                    static_cast<double>(hsu.cycles),
                3));
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    bench::writePipelineReport("fig10_width_sweep");
    return 0;
}
