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

    const std::vector<DatasetId> ids = datasetsForAlgo(algo);
    const std::size_t runs = 1 + std::size(sizes);
    const std::vector<RunResult> res =
        parallelMap(ids.size() * runs, [&](std::size_t i) {
            const DatasetId id = ids[i / runs];
            const RunnerOptions opts =
                bench::benchOptions(datasetInfo(id));
            GpuConfig gpu = bench::defaultGpu();
            StatGroup stats;
            if (i % runs == 0)
                return runBaseOnly(algo, id, gpu, opts, stats);
            gpu.warpBufferSize = sizes[i % runs - 1];
            return runHsuOnly(algo, id, gpu, opts, stats);
        });

    std::size_t k = 0;
    for (const DatasetId id : ids) {
        const RunResult &base = res[k++];
        std::vector<std::string> row{
            workloadLabel(algo, datasetInfo(id))};
        for (std::size_t s = 0; s < std::size(sizes); ++s) {
            const RunResult &hsu = res[k++];
            row.push_back(Table::num(
                static_cast<double>(base.cycles) /
                    static_cast<double>(hsu.cycles),
                3));
        }
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
