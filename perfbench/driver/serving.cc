/**
 * @file
 * The `serve` and `shard` workloads: open-loop request streams replayed
 * through serve::Server (one simulated GPU, 2 instances) and
 * shard::ClusterServer (4 spatial shards x 1 replica), each stream under
 * the baseline and the HSU GPU.
 *
 * Offered rates are pinned multiples of each family's baseline
 * full-batch capacity, measured once on the default GPU
 * (launch overhead included), so the program receives only the stream
 * generated from the benchmark's seed. Run.py checks each stream's
 * report against the pinned reference at the default seed and checks
 * request conservation at every seed; `shard` also checks sharded
 * answers against the unsharded oracle.
 *
 * The event loops run on the calling thread and hand every batch
 * emission and simulation to pool workers, so the loop's own host time
 * is the calling thread's CPU time during run().
 */

#include <cstdio>
#include <iterator>
#include <numeric>

#include "bench.hh"
#include "common/rng.hh"
#include "serve/server.hh"
#include "shard/answers.hh"
#include "shard/cluster.hh"
#include "shard/shard_index.hh"
#include "structures/btree.hh"
#include "structures/kdtree.hh"
#include "structures/lbvh.hh"

namespace perfbench
{

namespace
{

using namespace hsu;

/** One serving family: workload, batch width, pinned capacity and the
 *  requests per generated stream. */
struct Family
{
    Algo algo;
    DatasetId dataset;
    unsigned maxBatch;
    /** Baseline full-batch capacity (QPS at 1 GHz): maxBatch x
     *  instances / (cycles + launch overhead) on the default GPU. */
    double capacityQps;
    std::size_t requests;
};

constexpr std::uint32_t kPoolSize = 1024;

/** serve_latency's families and batch widths; capacity for 2 instances. */
const Family kServeFamilies[] = {
    {Algo::Ggnn, DatasetId::Sift10k, 32, 557011.0, 64},
    {Algo::Flann, DatasetId::Bunny, 256, 27556512.0, 2048},
    {Algo::Bvhnn, DatasetId::Random10k, 1024, 34452014.0, 1024},
    {Algo::Btree, DatasetId::BTree10k, 512, 202491596.0, 2048},
};
constexpr double kServeLoads[] = {0.5, 1.2};
constexpr unsigned kServeInstances = 2;

/** serve_sharded's families and batch widths; single-GPU capacity. */
const Family kShardFamilies[] = {
    {Algo::Ggnn, DatasetId::Sift10k, 32, 278505.0, 64},
    {Algo::Flann, DatasetId::Random10k, 256, 7990761.0, 256},
    {Algo::Bvhnn, DatasetId::Random10k, 512, 12965964.0, 1024},
    {Algo::Btree, DatasetId::BTree10k, 512, 101245798.0, 2048},
};
constexpr double kShardLoad = 0.5;
constexpr unsigned kShards = 4;
constexpr std::size_t kAnswerQueries = 64;

/** Root of the pinned arrival seeds: every --seed offers the same
 *  arrival schedule and the same cache-hit pattern, so the amount of
 *  work does not vary with the seed; the seed permutes which pool
 *  queries the requests ask for. */
constexpr std::uint64_t kArrivalSeed = 0x5eed;

/** One generated request stream and where it goes. */
struct Stream
{
    const Family *family;
    double load;
    std::string id; //!< e.g. "GGNN/S10K/x0.5"
    std::vector<serve::Request> requests;
};

std::vector<Stream> &
streams()
{
    static std::vector<Stream> s;
    return s;
}

std::string
familyId(const Family &f)
{
    return toString(f.algo) + "/" + datasetInfo(f.dataset).abbr;
}

std::string
loadTag(double load)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "x%g", load);
    return buf;
}

/** Stream @p index: Poisson arrivals at @p load x capacity with a
 *  deadline of 40 full-batch service times, as in the serve benches,
 *  and query ids mapped through a permutation of the pool drawn from
 *  @p seed. */
Stream
makeStream(const Family &f, double load, unsigned instances,
           serve::QueryDist dist, std::uint64_t index, std::uint64_t seed)
{
    serve::ArrivalConfig arr;
    arr.process = serve::ArrivalProcess::Poisson;
    arr.ratePerCycle =
        serve::ArrivalConfig::ratePerCycleFromQps(load * f.capacityQps);
    arr.queryPoolSize = kPoolSize;
    arr.deadlineCycles = static_cast<Cycle>(
        40.0 * serve::kClockHz * f.maxBatch * instances / f.capacityQps);
    arr.queryDist = dist;
    arr.zipfExponent = 1.3;
    arr.seed = deriveSeed(kArrivalSeed, index);
    Stream s;
    s.family = &f;
    s.load = load;
    s.id = familyId(f) + "/" + loadTag(load);
    s.requests =
        serve::ArrivalGenerator(arr, f.algo, f.dataset).generate(f.requests);
    std::vector<std::uint32_t> perm(kPoolSize);
    std::iota(perm.begin(), perm.end(), 0u);
    Rng rng(deriveSeed(seed, index));
    for (std::size_t i = perm.size() - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.nextBounded(i + 1)]);
    for (serve::Request &r : s.requests)
        r.queryId = perm[r.queryId];
    return s;
}

serve::PipelineConfig
pipelineFor(const Family &f)
{
    serve::PipelineConfig p;
    p.batch.maxBatch = f.maxBatch;
    p.degrade.highWater = 2 * f.maxBatch;
    p.degrade.shedWater = 16 * f.maxBatch;
    return p;
}

/** Host and modeled sums over a repetition's serving runs. */
struct Totals
{
    double runS = 0.0;
    double loopS = 0.0;
    std::uint64_t offered = 0, completed = 0, shed = 0, degraded = 0;
    std::uint64_t partial = 0, batches = 0, cacheHits = 0;
    std::uint64_t subqueries = 0, fanoutCount = 0;
    double batchSizeSum = 0.0, fanoutSum = 0.0;
    double kernelCycles = 0.0, l1Accesses = 0.0, l1Misses = 0.0;
    double hsuRtuBusy = 0.0, hsuSmCycles = 0.0;
    std::vector<double> p50Us, p99Us, queueP99Us;
    std::vector<double> tailRatios; //!< baseline / HSU tail latency

    JsonObject
    json() const
    {
        JsonObject o;
        o.set("run_s", runS).set("loop_s", loopS);
        o.set("offered", offered).set("completed", completed);
        o.set("shed", shed).set("degraded", degraded);
        o.set("partial", partial).set("batches", batches);
        o.set("cache_hits", cacheHits).set("subqueries", subqueries);
        o.set("batch_size_sum", batchSizeSum);
        o.set("fanout_count", fanoutCount).set("fanout_sum", fanoutSum);
        o.set("kernel_cycles", kernelCycles);
        o.set("l1_accesses", l1Accesses).set("l1_misses", l1Misses);
        o.set("hsu_rtu_busy_cycles", hsuRtuBusy);
        o.set("hsu_sm_cycles", hsuSmCycles);
        o.set("p50_us_geomean", geomean(p50Us));
        o.set("p99_us_geomean", geomean(p99Us));
        o.set("queue_wait_p99_us_geomean", geomean(queueP99Us));
        return o;
    }
};

double
us(const Histogram &h, double p)
{
    return h.percentile(p) / serve::kClockHz * 1.0e6;
}

/** Baseline / HSU latency at the highest percentile both streams can
 *  resolve with ten requests beyond it. */
double
tailRatio(const Histogram &base, const Histogram &hsu)
{
    const double p = std::min(tailPercentile(base.count()),
                              tailPercentile(hsu.count()));
    const double h = hsu.percentile(p);
    return h > 0.0 ? base.percentile(p) / h : 0.0;
}

/** Time one run() call: wall into runS, the calling thread's CPU (the
 *  event loop itself) into loopS. */
template <typename Fn>
auto
timedRun(Totals &t, Tracer &tr, std::uint64_t parent, std::uint64_t op,
         const char *span, Fn fn)
{
    const Span s(tr, span, parent, op);
    const double w0 = nowSeconds(), c0 = threadCpuSeconds();
    auto report = fn();
    t.runS += nowSeconds() - w0;
    t.loopS += threadCpuSeconds() - c0;
    return report;
}

// --- serve --------------------------------------------------------------

OpRecord
serveOp(const std::string &id, const serve::ServeReport &r)
{
    OpRecord op;
    op.op = id;
    op.output.set("offered", r.offered)
        .set("admitted", r.admitted)
        .set("completed", r.completed)
        .set("shed_admission", r.shedAdmission)
        .set("shed_expired", r.shedExpired)
        .set("degraded", r.degraded)
        .set("batches", r.batches)
        .set("cache_hits", r.cacheHits)
        .set("last_completion_cycle", r.lastCompletionCycle)
        .set("kernel_cycles", r.kernelCycles)
        .set("sm_cycles", r.smCycles)
        .set("l1_accesses", r.l1Accesses)
        .set("l1_misses", r.l1Misses)
        .set("rtu_busy_cycles", r.rtuBusyCycles)
        .set("latency", histogramDigest(r.latencyCycles))
        .set("queue_wait", histogramDigest(r.queueWaitCycles))
        .set("batch_size", histogramDigest(r.batchSize));
    if (r.completed + r.shedAdmission + r.shedExpired != r.offered)
        op.failed.push_back("lost requests: completed + shed != offered");
    return op;
}

void
addServe(Totals &t, const serve::ServeReport &r, bool hsu_side)
{
    t.offered += r.offered;
    t.completed += r.completed;
    t.shed += r.shedAdmission + r.shedExpired;
    t.degraded += r.degraded;
    t.batches += r.batches;
    t.cacheHits += r.cacheHits;
    t.batchSizeSum += r.batchSize.sum();
    t.kernelCycles += static_cast<double>(r.kernelCycles);
    t.l1Accesses += r.l1Accesses;
    t.l1Misses += r.l1Misses;
    if (hsu_side) {
        t.hsuRtuBusy += r.rtuBusyCycles;
        t.hsuSmCycles += static_cast<double>(r.smCycles);
    }
    t.p50Us.push_back(us(r.latencyCycles, 50.0));
    t.p99Us.push_back(us(r.latencyCycles, 99.0));
    t.queueP99Us.push_back(us(r.queueWaitCycles, 99.0));
}

// --- shard --------------------------------------------------------------

const DatasetId kShardDatasets[] = {DatasetId::Sift10k,
                                    DatasetId::Random10k,
                                    DatasetId::BTree10k};

shard::ClusterConfig
clusterFor(const Family &f, bool hsu_side, unsigned workers)
{
    shard::ClusterConfig cfg;
    cfg.gpu = defaultGpu();
    cfg.gpu.rtUnitEnabled = hsu_side;
    cfg.partition = shard::PartitionPolicy::Spatial;
    cfg.numShards = kShards;
    cfg.replicasPerShard = 1;
    cfg.pipeline = pipelineFor(f);
    cfg.pipeline.cache.capacity = 256;
    cfg.queryPoolSize = kPoolSize;
    // serve_sharded's NVLink-class hop and router merge cost.
    cfg.link.latencyCycles = 2'000;
    cfg.link.bytesPerCycle = 16.0;
    cfg.mergeCyclesPerShard = 200;
    cfg.jobs = workers;
    return cfg;
}

OpRecord
shardOp(const std::string &id, const shard::ClusterReport &r)
{
    OpRecord op;
    op.op = id;
    std::string per_shard;
    for (const shard::ShardReport &s : r.shards) {
        per_shard += std::to_string(s.subqueries) + "/" +
                     std::to_string(s.batches) + "/" +
                     std::to_string(s.shedAdmission) + "/" +
                     std::to_string(s.shedExpired) + "/" +
                     std::to_string(s.degraded) + "/" +
                     histogramDigest(s.queueWaitCycles) + ";";
    }
    op.output.set("offered", r.offered)
        .set("completed", r.completed)
        .set("partial", r.partialAnswers)
        .set("shed_requests", r.shedRequests)
        .set("subqueries", r.subqueries)
        .set("cache_hits", r.cacheHits)
        .set("last_completion_cycle", r.lastCompletionCycle)
        .set("kernel_cycles", r.kernelCycles)
        .set("sm_cycles", r.smCycles)
        .set("l1_accesses", r.l1Accesses)
        .set("l1_misses", r.l1Misses)
        .set("rtu_busy_cycles", r.rtuBusyCycles)
        .set("latency", histogramDigest(r.latencyCycles))
        .set("fanout", histogramDigest(r.fanout))
        .set("batch_size", histogramDigest(r.batchSize))
        .set("queue_wait", histogramDigest(r.queueWaitCycles))
        .set("shards", digest(per_shard));
    if (r.completed + r.shedRequests != r.offered)
        op.failed.push_back("lost requests: completed + shed != offered");
    return op;
}

void
addShard(Totals &t, const shard::ClusterReport &r, bool hsu_side)
{
    t.offered += r.offered;
    t.completed += r.completed;
    t.shed += r.shedRequests;
    t.partial += r.partialAnswers;
    t.cacheHits += r.cacheHits;
    t.subqueries += r.subqueries;
    t.fanoutCount += r.fanout.count();
    t.fanoutSum += r.fanout.sum();
    t.batchSizeSum += r.batchSize.sum();
    t.batches += r.batchSize.count();
    for (const shard::ShardReport &s : r.shards)
        t.degraded += s.degraded;
    t.kernelCycles += static_cast<double>(r.kernelCycles);
    t.l1Accesses += r.l1Accesses;
    t.l1Misses += r.l1Misses;
    if (hsu_side) {
        t.hsuRtuBusy += r.rtuBusyCycles;
        t.hsuSmCycles += static_cast<double>(r.smCycles);
    }
    t.p50Us.push_back(us(r.latencyCycles, 50.0));
    t.p99Us.push_back(us(r.latencyCycles, 99.0));
    t.queueP99Us.push_back(us(r.queueWaitCycles, 99.0));
}

std::string
answersDigest(const shard::AnswerSet &a)
{
    std::string text;
    for (const auto &list : a.topk) {
        for (const Neighbor &n : list)
            text += std::to_string(n.index) + ":" + num(n.dist2) + ",";
        text += ";";
    }
    for (const Neighbor &n : a.nearest)
        text += std::to_string(n.index) + ":" + num(n.dist2) + ";";
    for (const RadiusHit &h : a.radius)
        text += std::to_string(h.index) + ":" + num(h.dist2) + ";";
    for (const auto &v : a.values)
        text += (v ? std::to_string(*v) : std::string("-")) + ";";
    return digest(text);
}

/** Traced set-up only: time the generators and the per-shard index
 *  builders directly, on the slices and parameters shardIndex uses. */
void
probeShardBuilds(const RunContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    parallelFor(ctx.workers, std::size(kShardDatasets) * kShards,
                [&](std::size_t i) {
        const DatasetInfo &info = datasetInfo(kShardDatasets[i / kShards]);
        const std::uint64_t op = i + 1;
        const shard::ShardSlice &slice =
            shard::cachedPartitioning(info.id,
                                      shard::PartitionPolicy::Spatial,
                                      kShards)
                .shards[i % kShards];
        if (info.kind == DatasetKind::Keys) {
            std::vector<std::uint32_t> keys;
            {
                const Span s(tr, "workloads.gen", ctx.parent, op);
                keys = generateKeys(info);
            }
            std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
            for (const std::uint32_t rank : slice.ids)
                pairs.emplace_back(keys[rank], rank);
            const Span s(tr, "structures.btree_build", ctx.parent, op);
            BTree::build(std::move(pairs));
            return;
        }
        PointSet full;
        {
            const Span s(tr, "workloads.gen", ctx.parent, op);
            full = generatePoints(info);
        }
        PointSet points(full.dim());
        for (const std::uint32_t id : slice.ids)
            points.add(full[id]);
        if (info.kind == DatasetKind::HighDim) {
            const Span s(tr, "structures.hnsw_build", ctx.parent, op);
            HnswGraph::build(points, info.metric);
            return;
        }
        const float radius = shard::datasetRadius(info.id);
        {
            const Span s(tr, "structures.lbvh_build", ctx.parent, op);
            Lbvh::buildFromPoints(points, radius);
        }
        const Span s(tr, "structures.kdtree_build", ctx.parent, op);
        KdTree::build(points, 16);
    });
}

} // namespace

void
setupServe(const RunContext &ctx)
{
    std::vector<DatasetInfo> datasets;
    for (const Family &f : kServeFamilies)
        datasets.push_back(datasetInfo(f.dataset));
    if (ctx.tracer->enabled())
        probeBuilds(ctx, datasets);
    parallelFor(ctx.workers, datasets.size(), [&](std::size_t i) {
        const Span s(*ctx.tracer, "setup.assets", ctx.parent, i + 1);
        warmRunnerAssets(datasets[i], kPoolSize);
    });
    streams().clear();
    for (const Family &f : kServeFamilies) {
        for (const double load : kServeLoads) {
            const std::uint64_t n = streams().size();
            streams().push_back(makeStream(f, load, kServeInstances,
                                           serve::QueryDist::Uniform, n,
                                           ctx.seed));
        }
    }
}

void
runServe(const RunContext &ctx, Iteration &it)
{
    Tracer &tr = *ctx.tracer;
    const PipelinePhaseReport before = pipelinePhaseReport();
    Totals t;
    std::uint64_t op = 0;
    for (const Stream &s : streams()) {
        ++op;
        const Family &f = *s.family;
        serve::ServeReport reports[2];
        for (const bool hsu_side : {false, true}) {
            serve::ServerConfig cfg;
            cfg.gpu = defaultGpu();
            cfg.gpu.rtUnitEnabled = hsu_side;
            cfg.numInstances = kServeInstances;
            cfg.pipeline = pipelineFor(f);
            cfg.queryPoolSize = kPoolSize;
            cfg.jobs = ctx.workers;
            serve::ServeReport &r = reports[hsu_side];
            r = timedRun(t, tr, ctx.parent, op, "serve.run", [&] {
                return serve::Server(f.algo, f.dataset, cfg)
                    .run(s.requests);
            });
            it.ops.push_back(
                serveOp(s.id + (hsu_side ? "/hsu" : "/base"), r));
            addServe(t, r, hsu_side);
            it.modeledCycles += static_cast<double>(r.kernelCycles);
        }
        t.tailRatios.push_back(
            tailRatio(reports[0].latencyCycles, reports[1].latencyCycles));
    }
    it.modeled.set("hsu_speedup", geomean(t.tailRatios));
    if (tr.enabled())
        it.counters = t.json().raw("phases", phaseDelta(before));
}

void
setupShard(const RunContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    parallelFor(ctx.workers, std::size(kShardDatasets), [&](std::size_t i) {
        const Span s(tr, "shard.partition", ctx.parent, i + 1);
        shard::cachedPartitioning(kShardDatasets[i],
                                  shard::PartitionPolicy::Spatial, kShards);
    });
    if (tr.enabled())
        probeShardBuilds(ctx);
    parallelFor(ctx.workers, std::size(kShardDatasets) * kShards,
                [&](std::size_t i) {
        const DatasetId dataset = kShardDatasets[i / kShards];
        const Span s(tr, "shard.subindex_build", ctx.parent, i + 1);
        shard::shardIndex(dataset, shard::PartitionPolicy::Spatial, kShards,
                          static_cast<unsigned>(i % kShards));
        if (i % kShards != 0)
            return;
        if (datasetInfo(dataset).kind == DatasetKind::Keys)
            serveQueryKeys(dataset, kPoolSize);
        else
            serveQueryPoints(dataset, kPoolSize);
    });
    streams().clear();
    for (const Family &f : kShardFamilies) {
        const std::uint64_t n = streams().size();
        streams().push_back(makeStream(f, kShardLoad, 1,
                                       serve::QueryDist::Zipf, n,
                                       ctx.seed));
    }
}

void
runShard(const RunContext &ctx, Iteration &it)
{
    Tracer &tr = *ctx.tracer;
    const PipelinePhaseReport before = pipelinePhaseReport();
    Totals t;
    std::uint64_t op = 0;
    for (const Stream &s : streams()) {
        ++op;
        const Family &f = *s.family;
        shard::ClusterReport reports[2];
        for (const bool hsu_side : {false, true}) {
            const shard::ClusterConfig cfg =
                clusterFor(f, hsu_side, ctx.workers);
            shard::ClusterReport &r = reports[hsu_side];
            r = timedRun(t, tr, ctx.parent, op, "shard.run", [&] {
                return shard::ClusterServer(f.algo, f.dataset, cfg)
                    .run(s.requests);
            });
            it.ops.push_back(
                shardOp(s.id + (hsu_side ? "/hsu" : "/base"), r));
            addShard(t, r, hsu_side);
            it.modeledCycles += static_cast<double>(r.kernelCycles);
        }
        t.tailRatios.push_back(
            tailRatio(reports[0].latencyCycles, reports[1].latencyCycles));
    }

    // Sharded answers for a seed-drawn query batch per family must equal
    // the unsharded oracle's.
    for (std::size_t fi = 0; fi < std::size(kShardFamilies); ++fi) {
        const Family &f = kShardFamilies[fi];
        Rng rng(deriveSeed(ctx.seed, 1000 + fi));
        std::vector<std::uint32_t> ids(kAnswerQueries);
        for (std::uint32_t &id : ids)
            id = static_cast<std::uint32_t>(rng.nextBounded(kPoolSize));
        const Span span(tr, "shard.answer", ctx.parent, ++op);
        const shard::AnswerSet sharded = shard::answerSharded(
            f.algo, f.dataset, shard::PartitionPolicy::Spatial, kShards,
            ids, kPoolSize);
        const shard::AnswerSet oracle =
            shard::answerUnsharded(f.algo, f.dataset, ids, kPoolSize);
        OpRecord rec;
        rec.op = familyId(f) + "/answers";
        rec.output.set("queries", static_cast<std::uint64_t>(ids.size()))
            .set("answers", answersDigest(sharded));
        if (!(sharded == oracle))
            rec.failed.push_back("sharded answers differ from the "
                                 "unsharded oracle");
        it.ops.push_back(std::move(rec));
    }
    it.modeled.set("hsu_speedup", geomean(t.tailRatios));
    if (tr.enabled())
        it.counters = t.json().raw("phases", phaseDelta(before));
}

} // namespace perfbench
