/**
 * @file
 * The `fleet` workload: the paper's Fig 9 fleet at the quick query
 * scale. The 21 (algorithm, dataset) pairs, each simulated on the
 * baseline and the HSU GPU, go to runWorkloadsParallel at once on a
 * fixed pool (a closed batch of 42 simulations).
 *
 * A traced repetition runs the same work through the calls
 * runWorkloadsParallel makes (emitSemanticShared, lowerTrace and
 * simulateKernel on a ThreadPool) so it can put a span around each.
 */

#include <cmath>
#include <iterator>

#include "bench.hh"
#include "structures/btree.hh"
#include "structures/kdtree.hh"
#include "structures/lbvh.hh"

namespace perfbench
{

namespace
{

using namespace hsu;

/** HSU_QUICK's query scale: what `HSU_QUICK=1 fig9_speedup` runs. */
constexpr double kQuickScale = 0.25;

/** The paper's per-algorithm Fig 9 geomean speedups. */
const std::pair<Algo, double> kPaperSpeedup[] = {
    {Algo::Ggnn, 1.248},
    {Algo::Flann, 1.164},
    {Algo::Bvhnn, 1.339},
    {Algo::Btree, 1.135},
};

/** The (algorithm, dataset) pairs of Fig 9, in the figure's order. */
std::vector<std::pair<Algo, DatasetId>>
fleetPairs()
{
    std::vector<std::pair<Algo, DatasetId>> out;
    for (const auto &entry : kPaperSpeedup) {
        for (const DatasetId id : datasetsForAlgo(entry.first))
            out.emplace_back(entry.first, id);
    }
    return out;
}

void
addSimOp(Iteration &it, const std::string &label, const char *side,
         const RunResult &run, const StatGroup &stats)
{
    OpRecord op;
    op.op = label + "/" + side;
    op.output.set("cycles", run.cycles)
        .set("instrs", run.instrsIssued)
        .set("hsu_ops", run.hsuCompleted)
        .set("stats", statsDigest(stats));
    it.ops.push_back(std::move(op));
}

/** Fig 9 summary of one repetition: per-pair speedups -> hsu_speedup,
 *  per-algorithm geomeans and their mean gap to the paper. */
void
summarize(Iteration &it, const std::vector<WorkloadResult> &results)
{
    std::vector<double> all;
    std::map<Algo, std::vector<double>> per_algo;
    for (const WorkloadResult &r : results) {
        addSimOp(it, r.label, "base", r.base, r.baseStats);
        addSimOp(it, r.label, "hsu", r.hsu, r.hsuStats);
        it.modeledCycles += static_cast<double>(r.base.cycles) +
                            static_cast<double>(r.hsu.cycles);
        all.push_back(r.speedup());
        per_algo[r.algo].push_back(r.speedup());
    }
    double gap = 0.0;
    for (const auto &[algo, paper] : kPaperSpeedup) {
        const double got = geomean(per_algo[algo]);
        it.modeled.set("speedup_" + toString(algo), got);
        gap += std::fabs(got - paper) * 100.0;
    }
    it.modeled.set("hsu_speedup", geomean(all));
    it.modeled.set("paper_gap_pct",
                   gap / static_cast<double>(std::size(kPaperSpeedup)));
}

/** One pair as runWorkload runs it, with a span around each call. */
WorkloadResult
tracedPair(Tracer &tr, std::uint64_t parent, std::uint64_t op, Algo algo,
           DatasetId dataset, std::size_t &sem_ops,
           std::size_t &lowered_ops)
{
    const Span job(tr, "fleet.job", parent, op);
    const RunnerOptions opts =
        optionsFor(datasetInfo(dataset), kQuickScale);
    WorkloadResult out;
    out.algo = algo;
    out.dataset = dataset;
    out.label = workloadLabel(algo, datasetInfo(dataset));
    for (const bool hsu_side : {false, true}) {
        GpuConfig cfg = defaultGpu();
        cfg.rtUnitEnabled = hsu_side;
        const Lowering low = hsu_side ? Lowering::hsu(cfg.datapath)
                                      : Lowering::baseline(cfg.datapath);
        std::shared_ptr<const SemKernelTrace> sem;
        {
            const Span s(tr, "search.emit", job.id(), op);
            sem = emitSemanticShared(algo, dataset, opts);
        }
        KernelTrace trace;
        {
            const Span s(tr, "sim.lower", job.id(), op);
            trace = lowerTrace(*sem, low);
        }
        {
            const Span s(tr, "sim.simulate", job.id(), op);
            (hsu_side ? out.hsu : out.base) = simulateKernel(
                cfg, trace, hsu_side ? out.hsuStats : out.baseStats);
        }
        sem_ops += sem->totalOps();
        lowered_ops += trace.totalOps();
    }
    return out;
}

} // namespace

void
warmRunnerAssets(const DatasetInfo &info, std::size_t pool_size)
{
    const Algo algo = info.kind == DatasetKind::HighDim   ? Algo::Ggnn
                      : info.kind == DatasetKind::Point3d ? Algo::Bvhnn
                                                          : Algo::Btree;
    emitBatchTrace(algo, info.id, KernelVariant::Baseline,
                   DatapathConfig{}, {0}, pool_size);
}

void
probeBuilds(const RunContext &ctx, const std::vector<DatasetInfo> &datasets)
{
    Tracer &tr = *ctx.tracer;
    parallelFor(ctx.workers, datasets.size(), [&](std::size_t i) {
        const DatasetInfo &info = datasets[i];
        const std::uint64_t op = i + 1;
        if (info.kind == DatasetKind::Keys) {
            std::vector<std::uint32_t> keys;
            {
                const Span s(tr, "workloads.gen", ctx.parent, op);
                keys = generateKeys(info);
            }
            std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
            for (std::size_t k = 0; k < keys.size(); ++k)
                pairs.emplace_back(keys[k], static_cast<std::uint32_t>(k));
            const Span s(tr, "structures.btree_build", ctx.parent, op);
            BTree::build(std::move(pairs));
            return;
        }
        PointSet points;
        {
            const Span s(tr, "workloads.gen", ctx.parent, op);
            points = generatePoints(info);
        }
        if (info.kind == DatasetKind::HighDim) {
            const Span s(tr, "structures.hnsw_build", ctx.parent, op);
            HnswGraph::build(points, info.metric);
            return;
        }
        const float radius = pickRadius(points);
        {
            const Span s(tr, "structures.lbvh_build", ctx.parent, op);
            Lbvh::buildFromPoints(points, radius);
        }
        const Span s(tr, "structures.kdtree_build", ctx.parent, op);
        KdTree::build(points, 16);
    });
}

void
setupFleet(const RunContext &ctx)
{
    const std::vector<DatasetInfo> &datasets = allDatasets();
    if (ctx.tracer->enabled())
        probeBuilds(ctx, datasets);
    parallelFor(ctx.workers, datasets.size(), [&](std::size_t i) {
        const Span s(*ctx.tracer, "setup.assets", ctx.parent, i + 1);
        warmRunnerAssets(datasets[i], 1);
    });
}

void
runFleet(const RunContext &ctx, Iteration &it)
{
    Tracer &tr = *ctx.tracer;
    const auto pairs = fleetPairs();
    if (!tr.enabled()) {
        summarize(it, runWorkloadsParallel(pairs, defaultGpu(),
                                           kQuickScale, ctx.workers));
        return;
    }

    const PipelinePhaseReport before = pipelinePhaseReport();
    std::vector<std::size_t> sem_ops(pairs.size()), lowered(pairs.size());
    std::vector<WorkloadResult> results;
    {
        ThreadPool pool(ctx.workers);
        std::vector<std::future<WorkloadResult>> futures;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            const double submitted = nowSeconds();
            futures.push_back(pool.submit([&, i, submitted] {
                const std::uint64_t op = i + 1;
                tr.add("common.pool_wait", ctx.parent, op, submitted,
                       nowSeconds());
                return tracedPair(tr, ctx.parent, op, pairs[i].first,
                                  pairs[i].second, sem_ops[i], lowered[i]);
            }));
        }
        for (auto &f : futures)
            results.push_back(f.get());
    }
    summarize(it, results);

    std::map<std::string, double> sums;
    double hsu_cycles = 0.0, instrs = 0.0;
    for (const WorkloadResult &r : results) {
        foldStats(r.baseStats, sums);
        foldStats(r.hsuStats, sums);
        hsu_cycles += static_cast<double>(r.hsu.cycles);
        instrs += r.base.instrsIssued + r.hsu.instrsIssued;
    }
    std::size_t total_sem = 0, total_lowered = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        total_sem += sem_ops[i];
        total_lowered += lowered[i];
    }
    it.counters.raw("phases", phaseDelta(before))
        .set("sem_ops", static_cast<std::uint64_t>(total_sem))
        .set("lowered_ops", static_cast<std::uint64_t>(total_lowered))
        .set("instrs", instrs)
        .set("hsu_cycles", hsu_cycles)
        .set("num_sms", static_cast<std::uint64_t>(defaultGpu().numSms))
        .raw("stats", sumsJson(sums));
}

} // namespace perfbench
