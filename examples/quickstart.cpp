/**
 * @file
 * Quickstart: the 5-minute tour of the HSU library.
 *
 * Builds a small 3-D point index, runs a nearest-neighbor search
 * through the HSU device API functionally, then lowers the kernel's
 * one trace with and without the HSU, simulates both on the modeled
 * GPU and prints the speedup — the paper's headline experiment in
 * miniature.
 *
 * Run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "hsu/device_api.hh"
#include "search/bvhnn.hh"
#include "search/runner.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "structures/lbvh.hh"
#include "workloads/datasets.hh"

using namespace hsu;

int
main()
{
    std::printf("== HSU quickstart ==\n\n");

    // 1. The device intrinsics (Section III-B): distance functions
    //    that lower to POINT_EUCLID / POINT_ANGULAR instructions.
    const float a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const float b[8] = {8, 7, 6, 5, 4, 3, 2, 1};
    std::printf("__euclid_dist(a, b, 8)   = %.1f  (%u instruction)\n",
                euclidDist(a, b, 8), euclidInstrCount(8));
    const auto ang = angularDistRaw(a, b, 8);
    std::printf("__angular_dist(a, b, 8)  = dot %.1f, norm %.1f\n\n",
                ang.dotSum, ang.normSum);

    // 2. Build a search structure over a synthetic 3-D point cloud.
    const auto &info = datasetInfo(DatasetId::Random10k);
    const PointSet points = generatePoints(info);
    const float radius = pickRadius(points);
    const Lbvh bvh = Lbvh::buildFromPoints(points, radius);
    std::printf("built LBVH over %zu points (%zu nodes, radius %.3f)\n",
                points.size(), bvh.size(), radius);

    // 3. Run a radius nearest-neighbor kernel functionally. It emits
    //    one semantic trace: which ops run on the HSU is decided later,
    //    when the trace is lowered.
    BvhnnKernel kernel(points, bvh, BvhnnConfig{radius});
    const PointSet queries = generateQueries(info, 512);
    const BvhnnEmit emitted = kernel.emit(queries);
    std::size_t found = 0;
    for (const auto &r : emitted.results)
        found += r.index >= 0;
    std::printf("radius search: %zu/%zu queries found a neighbor "
                "(%llu box tests)\n\n",
                found, queries.size(),
                static_cast<unsigned long long>(emitted.boxTests));

    // 4. Lower the trace both ways and simulate on the modeled GPU:
    //    baseline vs HSU.
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();

    StatGroup base_stats, hsu_stats;
    GpuConfig base_cfg = cfg;
    base_cfg.rtUnitEnabled = false;
    const RunResult base = simulateKernel(
        base_cfg, lowerTrace(emitted.sem, Lowering::baseline()),
        base_stats);
    const RunResult hsu = simulateKernel(
        cfg, lowerTrace(emitted.sem, Lowering::hsu()), hsu_stats);

    std::printf("baseline GPU : %llu cycles\n",
                static_cast<unsigned long long>(base.cycles));
    std::printf("with HSU     : %llu cycles  (%.0f HSU instructions)\n",
                static_cast<unsigned long long>(hsu.cycles),
                hsu.hsuCompleted);
    std::printf("speedup      : %.2fx\n",
                static_cast<double>(base.cycles) /
                    static_cast<double>(hsu.cycles));
    return 0;
}
