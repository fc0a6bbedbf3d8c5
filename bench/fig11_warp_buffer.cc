/**
 * @file
 * Figure 11 reproduction: HSU speedup at different warp buffer sizes
 * (1/4/8/16 entries) for the three hierarchical nearest-neighbor
 * algorithms. One entry permits no memory-level parallelism and is
 * worse than the baseline; 8 is the paper's sweet spot; 16 can regress
 * on high-dimensional datasets through MSHR pressure (Section VI-I).
 */

#include "bench_common.hh"

using namespace hsu;

namespace
{

void
sweep(Algo algo, const char *title)
{
    const unsigned sizes[] = {1, 4, 8, 16};
    Table t(title, {"Dataset", "wb=1", "wb=4", "wb=8", "wb=16"});

    std::vector<std::pair<Algo, DatasetId>> cases;
    for (const DatasetId id : datasetsForAlgo(algo))
        cases.emplace_back(algo, id);
    std::vector<GpuConfig> variants;
    for (const unsigned size : sizes) {
        GpuConfig gpu = bench::defaultGpu();
        gpu.warpBufferSize = size;
        variants.push_back(gpu);
    }

    const std::vector<std::vector<double>> speedups =
        bench::sweepSpeedups(cases, variants);
    for (std::size_t c = 0; c < cases.size(); ++c) {
        std::vector<std::string> row{
            workloadLabel(algo, datasetInfo(cases[c].second))};
        for (const double s : speedups[c])
            row.push_back(Table::num(s, 3));
        t.addRow(std::move(row));
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    sweep(Algo::Ggnn, "Fig 11a: GGNN speedup vs warp buffer size");
    sweep(Algo::Bvhnn, "Fig 11b: BVH-NN speedup vs warp buffer size");
    sweep(Algo::Flann, "Fig 11c: FLANN speedup vs warp buffer size");
    bench::writePipelineReport("fig11_warp_buffer");
    return 0;
}
