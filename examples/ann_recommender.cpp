/**
 * @file
 * Recommendation-style vector search (the paper's motivating GGNN
 * workload): angular-metric approximate nearest neighbors over a
 * word-embedding-like corpus with a hierarchical graph index.
 *
 * Demonstrates: HnswGraph construction, angular-metric kNN through the
 * GGNN kernel, recall measurement against brute force, and the
 * baseline-vs-HSU simulation for a high-dimensional angular workload
 * (where the multi-beat POINT_ANGULAR instructions shine).
 *
 * Run:  ./build/examples/ann_recommender
 */

#include <algorithm>
#include <cstdio>

#include "search/ggnn.hh"
#include "sim/gpu.hh"
#include "sim/lower.hh"
#include "workloads/datasets.hh"

using namespace hsu;

namespace
{

double
recallAt10(const PointSet &corpus, const PointSet &queries,
           const std::vector<std::vector<Neighbor>> &got)
{
    double recall = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        // Brute force under the angular metric.
        std::vector<Neighbor> all;
        all.reserve(corpus.size());
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            all.push_back({static_cast<std::uint32_t>(i),
                           metricDist(Metric::Angular, queries[q],
                                      corpus[i], corpus.dim())});
        }
        std::sort(all.begin(), all.end());
        std::size_t hits = 0;
        for (unsigned w = 0; w < 10; ++w) {
            for (const auto &g : got[q]) {
                if (g.index == all[w].index) {
                    ++hits;
                    break;
                }
            }
        }
        recall += hits / 10.0;
    }
    return recall / static_cast<double>(queries.size());
}

} // namespace

int
main()
{
    std::printf("== item-embedding recommender (angular ANN) ==\n\n");

    // A scaled glove-like corpus: 200-dimensional angular embeddings.
    const auto &info = datasetInfo(DatasetId::Glove);
    const PointSet corpus = generatePoints(info);
    std::printf("corpus: %zu embeddings, %u dims, angular metric\n",
                corpus.size(), corpus.dim());

    std::printf("building hierarchical graph index...\n");
    const HnswGraph graph = HnswGraph::build(corpus, Metric::Angular);
    std::printf("graph: %u layers, entry point %u\n\n",
                graph.numLayers(), graph.entryPoint());

    // "Users" are fresh embeddings; recommend their 10 nearest items.
    const PointSet users = generateQueries(info, 48);
    GgnnConfig gcfg;
    gcfg.k = 10;
    GgnnKernel kernel(graph, gcfg);
    const GgnnEmit search = kernel.emit(users);

    std::printf("first user's top-5 items: ");
    for (unsigned i = 0; i < 5 && i < search.results[0].size(); ++i) {
        std::printf("#%u(%.3f) ", search.results[0][i].index,
                    search.results[0][i].dist2);
    }
    std::printf("\nrecall@10 vs brute force: %.1f%%\n",
                100.0 * recallAt10(corpus, users, search.results));
    std::printf("distance evaluations: %llu (%.0f per query)\n\n",
                static_cast<unsigned long long>(search.distanceTests),
                static_cast<double>(search.distanceTests) / users.size());

    // Simulate both GPU variants.
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
    std::printf("baseline GPU: %llu cycles; with HSU: %llu cycles "
                "(POINT_ANGULAR beats: %.0f)\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(hsu.cycles),
                sh.get("rtu.completed_angular"));
    std::printf("speedup: %.2fx\n",
                static_cast<double>(base.cycles) /
                    static_cast<double>(hsu.cycles));
    return 0;
}
