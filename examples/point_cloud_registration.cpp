/**
 * @file
 * Point-cloud correspondence search (the paper's 3-D motivation:
 * point cloud registration): for every point of a transformed scan,
 * find its nearest neighbor in the reference scan within a radius —
 * the inner loop of ICP — using the RTNN-style LBVH kernel, and
 * estimate the rigid translation from the matches.
 *
 * Run:  ./build/examples/point_cloud_registration
 */

#include <cstdio>

#include "search/bvhnn.hh"
#include "search/runner.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "workloads/datasets.hh"

using namespace hsu;

int
main()
{
    std::printf("== point-cloud correspondence (ICP inner loop) ==\n\n");

    // Reference scan: the bunny-like surface cloud.
    const auto &info = datasetInfo(DatasetId::Bunny);
    const PointSet reference = generatePoints(info);

    // Moving scan: the same surface shifted by a known translation
    // plus per-point noise.
    const Vec3 true_shift{0.03f, -0.02f, 0.015f};
    PointSet moving(3);
    Rng noise(99);
    for (std::size_t i = 0; i < reference.size(); i += 8) {
        moving.add(reference.vec3(i) + true_shift +
                   Vec3{noise.gaussian(0, 0.002f),
                        noise.gaussian(0, 0.002f),
                        noise.gaussian(0, 0.002f)});
    }
    std::printf("reference: %zu points; moving scan: %zu points\n",
                reference.size(), moving.size());

    // Index the reference with an RTNN-style LBVH.
    const float radius = pickRadius(reference);
    const Lbvh bvh = Lbvh::buildFromPoints(reference, radius);
    BvhnnKernel kernel(reference, bvh, BvhnnConfig{radius});
    std::printf("LBVH: %zu nodes, search radius %.4f\n\n", bvh.size(),
                radius);

    // Correspondences for every moving point.
    const BvhnnEmit search = kernel.emit(moving);

    // Estimate the translation from matched pairs.
    Vec3 delta{0, 0, 0};
    std::size_t matched = 0;
    for (std::size_t i = 0; i < moving.size(); ++i) {
        const auto &hit = search.results[i];
        if (hit.index < 0)
            continue;
        delta += moving.vec3(i) -
                 reference.vec3(static_cast<std::size_t>(hit.index));
        ++matched;
    }
    if (matched > 0)
        delta = delta / static_cast<float>(matched);
    std::printf("matched %zu/%zu points\n", matched, moving.size());
    std::printf("estimated shift: (%.4f, %.4f, %.4f)\n", delta.x,
                delta.y, delta.z);
    std::printf("true shift:      (%.4f, %.4f, %.4f)\n\n", true_shift.x,
                true_shift.y, true_shift.z);

    // How much does the HSU help this kernel on the modeled GPU?
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();
    GpuConfig base_cfg = cfg;
    base_cfg.rtUnitEnabled = false;
    StatGroup sb, sh;
    const RunResult base = simulateKernel(
        base_cfg, lowerTrace(search.sem, Lowering::baseline()), sb);
    const RunResult hsu =
        simulateKernel(cfg, lowerTrace(search.sem, Lowering::hsu()), sh);
    std::printf("baseline GPU: %llu cycles; with HSU: %llu cycles\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(hsu.cycles));
    std::printf("speedup: %.2fx (RAY_INTERSECT box tests: %.0f)\n",
                static_cast<double>(base.cycles) /
                    static_cast<double>(hsu.cycles),
                sh.get("rtu.completed_box"));
    return 0;
}
