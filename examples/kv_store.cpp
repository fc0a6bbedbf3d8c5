/**
 * @file
 * Key-value store index (the paper's 1-D search application): a
 * B+tree over integer keys probed through KEY_COMPARE, plus the
 * RTIndeX comparison — the same index expressed as ray-traced triangle
 * primitives on the baseline RT unit versus native keys on the HSU
 * (Section VI-G).
 *
 * Run:  ./build/examples/kv_store
 */

#include <cstdio>

#include "search/btree_kernel.hh"
#include "search/rtindex.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "workloads/datasets.hh"

using namespace hsu;

int
main()
{
    std::printf("== key-value store on the HSU ==\n\n");

    const auto &info = datasetInfo(DatasetId::BTree10k);
    const auto keys = generateKeys(info);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    pairs.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        pairs.emplace_back(keys[i], static_cast<std::uint32_t>(i * 10));

    const BTree tree = BTree::build(pairs);
    std::printf("B+tree: %zu keys, order %u, height %u\n", keys.size(),
                tree.order(), tree.height());

    // Point lookups.
    std::printf("lookup(%u) -> %u\n", keys[100],
                tree.lookup(keys[100]).value());
    std::printf("lookup(1)  -> %s\n\n",
                tree.lookup(1).has_value() ? "hit" : "miss");

    // Batch lookups through the kernel, baseline vs HSU.
    const auto probes = generateKeyQueries(info, 2048);
    BtreeKernel kernel(tree);
    const BtreeEmit lookups = kernel.emit(probes);

    std::size_t hits = 0;
    for (const auto &r : lookups.results)
        hits += r.has_value();
    std::printf("batch of %zu probes: %zu hits, %llu separator "
                "comparisons\n",
                probes.size(), hits,
                static_cast<unsigned long long>(lookups.keyCompares));

    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.finalize();
    GpuConfig base_cfg = cfg;
    base_cfg.rtUnitEnabled = false;
    StatGroup sb, sh;
    const RunResult base = simulateKernel(
        base_cfg, lowerTrace(lookups.sem, Lowering::baseline()), sb);
    const RunResult hsu =
        simulateKernel(cfg, lowerTrace(lookups.sem, Lowering::hsu()), sh);
    std::printf("baseline %llu cycles vs HSU %llu cycles: %.2fx "
                "(KEY_COMPARE ops: %.0f)\n\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(hsu.cycles),
                static_cast<double>(base.cycles) /
                    static_cast<double>(hsu.cycles),
                sh.get("rtu.completed_keycmp"));

    // --- RTIndeX comparison (Section VI-G) -------------------------
    std::printf("== RTIndeX: triangle keys vs native keys ==\n");
    RtindexKernel index(keys);
    const auto probes2 = generateKeyQueries(info, 1024);
    const RtindexEmit tri = index.emit(probes2, RtindexForm::Tri);
    const RtindexEmit nat = index.emit(probes2, RtindexForm::Native);
    StatGroup st, sn;
    const RunResult tri_r = simulateKernel(
        cfg, lowerTrace(tri.sem, Lowering::baseline()), st);
    const RunResult nat_r =
        simulateKernel(cfg, lowerTrace(nat.sem, Lowering::hsu()), sn);
    std::printf("triangle keys: %llu bytes/key leaf data, %llu cycles\n",
                static_cast<unsigned long long>(tri.leafBytesPerKey),
                static_cast<unsigned long long>(tri_r.cycles));
    std::printf("native keys:   %llu bytes/key leaf data, %llu cycles "
                "(%.2fx)\n",
                static_cast<unsigned long long>(nat.leafBytesPerKey),
                static_cast<unsigned long long>(nat_r.cycles),
                static_cast<double>(tri_r.cycles) /
                    static_cast<double>(nat_r.cycles));
    return 0;
}
