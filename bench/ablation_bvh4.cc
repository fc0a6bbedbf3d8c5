/**
 * @file
 * Ablation: binary BVH vs BVH4 traversal in BVH-NN.
 *
 * Section VI-E: "the BVH-NN implementation used a binary BVH tree.
 * Thus only two child node boxes were traversed per thread at a time,
 * and the application did not fully utilize the ray-box test hardware.
 * A BVH4 tree would likely have better performance in our unit for
 * this reason." This bench implements the hypothesis: the same
 * queries run over the paper's binary tree and over the collapsed
 * 4-wide tree, both HSU-accelerated, against the common non-RT
 * baseline.
 */

#include "bench_common.hh"
#include "search/bvhnn.hh"

using namespace hsu;

namespace
{

struct CaseInfo
{
    std::string label;
    double boxTestRatio = 0.0; //!< BVH4 box tests / binary box tests
};

} // namespace

int
main()
{
    const GpuConfig cfg = bench::defaultGpu();
    GpuConfig base_cfg = cfg;
    base_cfg.rtUnitEnabled = false;

    // Emission is serial per dataset; the three sims per dataset are
    // independent and fan across the worker pool.
    std::vector<CaseInfo> cases;
    std::vector<KernelTrace> traces;
    for (const DatasetId id : datasetsForAlgo(Algo::Bvhnn)) {
        const DatasetInfo &info = datasetInfo(id);
        const RunnerOptions opts = bench::benchOptions(info);
        const PointSet points = generatePoints(info);
        const PointSet queries = generateQueries(info,
                                                 opts.pointQueries);
        const float radius = pickRadius(points);
        const Lbvh bvh = Lbvh::buildFromPoints(points, radius);

        BvhnnKernel binary(points, bvh, BvhnnConfig{radius, false});
        BvhnnKernel wide(points, bvh, BvhnnConfig{radius, true});

        const BvhnnEmit bin_emit = binary.emit(queries);
        const BvhnnEmit wide_emit = wide.emit(queries);

        // Results must agree between tree shapes.
        for (std::size_t q = 0; q < queries.size(); ++q) {
            if (bin_emit.results[q].index != wide_emit.results[q].index) {
                std::fprintf(stderr, "BVH4 result mismatch (q=%zu)\n",
                             q);
                return 1;
            }
        }

        CaseInfo c;
        c.label = workloadLabel(Algo::Bvhnn, info);
        c.boxTestRatio = static_cast<double>(wide_emit.boxTests) /
                         static_cast<double>(bin_emit.boxTests);
        cases.push_back(std::move(c));

        traces.push_back(lowerTrace(bin_emit.sem, Lowering::baseline()));
        traces.push_back(lowerTrace(bin_emit.sem, Lowering::hsu()));
        traces.push_back(lowerTrace(wide_emit.sem, Lowering::hsu()));
    }
    // Every third trace is a baseline; the other two run on the HSU.
    const std::vector<RunResult> results =
        parallelMap(traces.size(), [&](std::size_t i) {
            StatGroup stats;
            return simulateKernel(i % 3 == 0 ? base_cfg : cfg, traces[i],
                                  stats);
        });

    Table t("Ablation: BVH-NN binary vs BVH4 traversal (HSU speedup "
            "over non-RT baseline)",
            {"Dataset", "binary", "BVH4", "BVH4 box tests / binary"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const RunResult &base = results[3 * i];
        const RunResult &bin = results[3 * i + 1];
        const RunResult &w4 = results[3 * i + 2];
        t.addRow({cases[i].label,
                  Table::num(static_cast<double>(base.cycles) /
                                 static_cast<double>(bin.cycles),
                             3),
                  Table::num(static_cast<double>(base.cycles) /
                                 static_cast<double>(w4.cycles),
                             3),
                  Table::num(cases[i].boxTestRatio, 3)});
    }
    t.print(std::cout);
    return 0;
}
