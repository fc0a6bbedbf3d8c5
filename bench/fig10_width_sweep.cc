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

    std::vector<std::pair<Algo, DatasetId>> cases;
    for (const DatasetId id : datasetsForAlgo(Algo::Ggnn))
        cases.emplace_back(Algo::Ggnn, id);
    std::vector<GpuConfig> variants;
    for (const unsigned w : widths) {
        GpuConfig gpu = bench::defaultGpu();
        gpu.datapath.euclidWidth = w;
        variants.push_back(gpu);
    }

    const std::vector<std::vector<double>> speedups =
        bench::sweepSpeedups(cases, variants);
    for (std::size_t c = 0; c < cases.size(); ++c) {
        std::vector<std::string> row{datasetInfo(cases[c].second).abbr};
        for (const double s : speedups[c])
            row.push_back(Table::num(s, 3));
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    bench::writePipelineReport("fig10_width_sweep");
    return 0;
}
