/**
 * @file
 * trace_lint: run the static trace/IR linter (analysis/trace_lint.hh)
 * over the five search kernels' semantic emissions and their
 * Baseline / Hsu / PartialOffload lowerings, plus emissions against
 * shard sub-indexes (search/runner emitIndexSem over
 * shard/shard_index shardIndex) that otherwise only get linted in
 * debug/HSU_AUDIT builds.
 *
 * Exit status: 0 when every selected workload lints clean of errors,
 * 1 otherwise (warnings are printed but non-fatal). `--rules` prints
 * the rule catalog. CI runs `trace_lint --quick` as the lint job's
 * trace smoke.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_lint.hh"
#include "common/argparse.hh"
#include "common/rng.hh"
#include "search/btree_kernel.hh"
#include "search/bvhnn.hh"
#include "search/flann.hh"
#include "search/ggnn.hh"
#include "search/rtindex.hh"
#include "shard/shard_index.hh"
#include "structures/btree.hh"
#include "structures/graph.hh"
#include "structures/kdtree.hh"
#include "structures/lbvh.hh"

namespace
{

using namespace hsu;

PointSet
randomCloud(std::size_t n, unsigned dim, std::uint64_t seed)
{
    PointSet pts(dim);
    pts.reserve(n);
    Rng rng(seed);
    std::vector<float> p(dim);
    for (std::size_t i = 0; i < n; ++i) {
        for (auto &x : p)
            x = rng.uniform(-10.0f, 10.0f);
        pts.add(p.data());
    }
    return pts;
}

struct Workload
{
    std::string name;
    SemKernelTrace sem;
};

/** Fixed-seed miniature workloads, one per kernel (two for rtindex:
 *  the triangle and native leaf forms emit different traces). */
std::vector<Workload>
buildWorkloads(const std::string &algo, bool quick)
{
    const auto scale = [quick](std::size_t n) {
        return quick ? std::max<std::size_t>(8, n / 4) : n;
    };
    const bool all = algo == "all";
    std::vector<Workload> out;

    if (all || algo == "ggnn") {
        const PointSet pts = randomCloud(scale(600), 24, 29);
        const PointSet queries = randomCloud(scale(16), 24, 30);
        const HnswGraph g = HnswGraph::build(pts, Metric::Euclidean);
        const GgnnKernel k(g, GgnnConfig{});
        out.push_back({"ggnn-euclid", k.emit(queries).sem});

        const PointSet apts = randomCloud(scale(400), 16, 31);
        const PointSet aqueries = randomCloud(scale(8), 16, 32);
        const HnswGraph ag = HnswGraph::build(apts, Metric::Angular);
        const GgnnKernel ak(ag, GgnnConfig{});
        out.push_back({"ggnn-angular", ak.emit(aqueries).sem});
    }
    if (all || algo == "flann" || algo == "bvhnn") {
        const PointSet pts = randomCloud(scale(500), 3, 27);
        const PointSet queries = randomCloud(scale(64), 3, 28);
        const float radius = 0.6f;
        if (all || algo == "flann") {
            const KdTree tree = KdTree::build(pts, 16);
            const FlannKernel k(tree);
            out.push_back({"flann", k.emit(queries).sem});
        }
        if (all || algo == "bvhnn") {
            const Lbvh bvh = Lbvh::buildFromPoints(pts, radius);
            const BvhnnKernel k(pts, bvh, BvhnnConfig{radius});
            out.push_back({"bvhnn", k.emit(queries).sem});
            BvhnnConfig cfg4{radius};
            cfg4.useBvh4 = true;
            const BvhnnKernel k4(pts, bvh, cfg4);
            out.push_back({"bvhnn-bvh4", k4.emit(queries).sem});
        }
    }
    if (all || algo == "btree") {
        Rng rng(33);
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
        for (std::uint32_t i = 0; i < scale(8000); ++i) {
            pairs.emplace_back(
                static_cast<std::uint32_t>(rng.nextBounded(1u << 24)),
                i);
        }
        std::vector<std::uint32_t> probes;
        for (std::size_t i = 0; i < scale(200); ++i) {
            probes.push_back(
                static_cast<std::uint32_t>(rng.nextBounded(1u << 24)));
        }
        const BTree tree = BTree::build(std::move(pairs), 256);
        const BtreeKernel k(tree);
        out.push_back({"btree", k.emit(probes).sem});
    }
    if (all || algo == "shard") {
        // Golden serving datasets, one per kernel family, emitted
        // against a 2-way shard sub-index under both partition
        // policies — release-build coverage of the lane emitters'
        // emission path.
        struct ShardCase
        {
            const char *name;
            Algo algo;
            DatasetId dataset;
        };
        const ShardCase cases[] = {
            {"shard-ggnn", Algo::Ggnn, DatasetId::Sift10k},
            {"shard-flann", Algo::Flann, DatasetId::Bunny},
            {"shard-bvhnn", Algo::Bvhnn, DatasetId::Random10k},
            {"shard-btree", Algo::Btree, DatasetId::BTree10k},
        };
        const std::size_t pool_size = 256;
        std::vector<std::uint32_t> ids;
        for (std::uint32_t q = 0; q < scale(48); ++q)
            ids.push_back((q * 7) % pool_size);
        for (const ShardCase &c : cases) {
            for (const shard::PartitionPolicy policy :
                 {shard::PartitionPolicy::Spatial,
                  shard::PartitionPolicy::Hash}) {
                const std::string name =
                    std::string(c.name) +
                    (policy == shard::PartitionPolicy::Spatial
                         ? "-spatial"
                         : "-hash");
                out.push_back(
                    {name,
                     emitIndexSem(c.algo,
                                  shard::shardIndex(c.dataset, policy, 2, 0),
                                  ids, pool_size)});
            }
        }
    }
    if (all || algo == "rtindex") {
        Rng rng(34);
        std::vector<std::uint32_t> keys;
        std::uint32_t cur = 100;
        for (std::size_t i = 0; i < scale(2000); ++i)
            keys.push_back(cur += 1 + rng.nextBounded(5));
        std::vector<std::uint32_t> probes;
        for (std::size_t i = 0; i < scale(200); ++i) {
            probes.push_back(
                static_cast<std::uint32_t>(rng.nextBounded(cur + 50)));
        }
        const RtindexKernel k(keys);
        out.push_back({"rtindex-tri",
                       k.emit(probes, RtindexForm::Tri).sem});
        out.push_back({"rtindex-native",
                       k.emit(probes, RtindexForm::Native).sem});
    }
    return out;
}

void
printCatalog()
{
    std::printf("%-6s %-8s %s\n", "RULE", "SEVERITY", "SUMMARY");
    for (const LintRuleInfo &rule : lintRuleCatalog()) {
        std::printf("%-6s %-8s %s\n       fix: %s\n", rule.id.c_str(),
                    rule.severity == LintSeverity::Error ? "error"
                                                         : "warning",
                    rule.summary.c_str(), rule.fixit.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("trace_lint",
                   "static linter over semantic kernel traces and "
                   "their lowerings");
    bool quick = false;
    bool rules = false;
    std::string algo = "all";
    double fraction = 0.5;
    args.envFlag(quick, "quick", "HSU_QUICK",
                 "quarter-size workloads (CI smoke)");
    args.flag(rules, "rules", "print the rule catalog and exit");
    args.opt(algo, "algo",
             "ggnn|flann|bvhnn|btree|rtindex|shard|all");
    args.opt(fraction, "fraction",
             "PartialOffload fraction audited alongside the endpoints");
    if (!args.parse(argc, argv))
        return args.exitCode();

    if (rules) {
        printCatalog();
        return 0;
    }

    const std::vector<Workload> workloads = buildWorkloads(algo, quick);
    if (workloads.empty()) {
        std::fprintf(stderr, "trace_lint: unknown --algo '%s'\n",
                     algo.c_str());
        return 64;
    }

    std::size_t errors = 0, warnings = 0;
    for (const Workload &w : workloads) {
        const LintReport report =
            lintWorkload(w.sem, DatapathConfig{}, fraction);
        errors += report.errorCount();
        warnings += report.warningCount();
        std::printf("%-16s %4zu warps %8zu sem ops: %s\n",
                    w.name.c_str(), w.sem.warps.size(), w.sem.totalOps(),
                    report.clean()
                        ? "clean"
                        : (report.errorCount() ? "FAIL" : "warnings"));
        if (!report.clean())
            std::fputs(report.str().c_str(), stdout);
    }
    std::printf("trace_lint: %zu workloads, %zu errors, %zu warnings\n",
                workloads.size(), errors, warnings);
    return errors ? 1 : 0;
}
