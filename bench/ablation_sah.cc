/**
 * @file
 * Ablation: LBVH (fast Morton build) vs binned-SAH BVH quality.
 *
 * Section VI-E: "Our BVH-NN implementation used a BVH construction
 * algorithm known for its fast construction time but not for its
 * quality [Karras 2012] ... A more optimized BVH that uses surface
 * area heuristic to determine partitioning would further improve
 * performance." This bench builds both trees over the 3-D datasets and
 * compares SAH cost, traversal work, and end-to-end HSU speedup.
 */

#include "bench_common.hh"
#include "search/bvhnn.hh"

using namespace hsu;

namespace
{

/** Per-dataset facts gathered at emission time (tree quality and
 *  traversal work are properties of the trace, not the simulation). */
struct CaseInfo
{
    std::string label;
    double mortonSah = 0.0;
    double sahSah = 0.0;
    double boxTestRatio = 0.0;
};

} // namespace

int
main()
{
    const GpuConfig cfg = bench::defaultGpu();
    GpuConfig base_cfg = cfg;
    base_cfg.rtUnitEnabled = false;

    // Tree builds and trace emission run serially per dataset (the
    // kernels are bench-local, not memoized); the three sims per
    // dataset are independent and fan across the worker pool.
    std::vector<CaseInfo> cases;
    std::vector<KernelTrace> traces;
    for (const DatasetId id : datasetsForAlgo(Algo::Bvhnn)) {
        const DatasetInfo &info = datasetInfo(id);
        const RunnerOptions opts = bench::benchOptions(info);
        const PointSet points = generatePoints(info);
        const PointSet queries =
            generateQueries(info, opts.pointQueries);
        const float radius = pickRadius(points);

        const Lbvh morton = Lbvh::buildFromPoints(points, radius);
        const Lbvh sah = Lbvh::buildSahFromPoints(points, radius);

        BvhnnKernel morton_kernel(points, morton, BvhnnConfig{radius});
        BvhnnKernel sah_kernel(points, sah, BvhnnConfig{radius});

        const BvhnnEmit morton_emit = morton_kernel.emit(queries);
        const BvhnnEmit sah_emit = sah_kernel.emit(queries);

        for (std::size_t q = 0; q < queries.size(); ++q) {
            if (morton_emit.results[q].index !=
                sah_emit.results[q].index) {
                std::fprintf(stderr, "SAH result mismatch (q=%zu)\n",
                             q);
                return 1;
            }
        }

        CaseInfo c;
        c.label = workloadLabel(Algo::Bvhnn, info);
        c.mortonSah = morton.sahCost();
        c.sahSah = sah.sahCost();
        c.boxTestRatio = static_cast<double>(sah_emit.boxTests) /
                         static_cast<double>(morton_emit.boxTests);
        cases.push_back(std::move(c));

        traces.push_back(lowerTrace(morton_emit.sem, Lowering::baseline()));
        traces.push_back(lowerTrace(morton_emit.sem, Lowering::hsu()));
        traces.push_back(lowerTrace(sah_emit.sem, Lowering::hsu()));
    }
    // Every third trace is a baseline; the other two run on the HSU.
    const std::vector<RunResult> results =
        parallelMap(traces.size(), [&](std::size_t i) {
            StatGroup stats;
            return simulateKernel(i % 3 == 0 ? base_cfg : cfg, traces[i],
                                  stats);
        });

    Table t("Ablation: Morton LBVH vs binned-SAH BVH (BVH-NN, HSU)",
            {"Dataset", "SAH cost (LBVH)", "SAH cost (SAH)",
             "box tests ratio", "speedup LBVH", "speedup SAH"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const RunResult &base = results[3 * i];
        const RunResult &mr = results[3 * i + 1];
        const RunResult &sr = results[3 * i + 2];
        t.addRow({cases[i].label, Table::num(cases[i].mortonSah, 1),
                  Table::num(cases[i].sahSah, 1),
                  Table::num(cases[i].boxTestRatio, 3),
                  Table::num(static_cast<double>(base.cycles) /
                                 static_cast<double>(mr.cycles),
                             3),
                  Table::num(static_cast<double>(base.cycles) /
                                 static_cast<double>(sr.cycles),
                             3)});
    }
    t.print(std::cout);
    return 0;
}
