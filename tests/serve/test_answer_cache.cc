/**
 * @file
 * Answer-cache semantics: deterministic LRU replacement, exact vs
 * recall-tolerant hit keys (B+tree always exact), and the serving
 * integration — hits complete in the hit latency, bypass the queue,
 * and the accounting still balances, bit-identically across HSU_JOBS.
 */

#include <gtest/gtest.h>

#include <memory>

#include "serve/cache.hh"
#include "serve/server.hh"

namespace hsu::serve
{
namespace
{

constexpr std::uint32_t kPool = 64;

TEST(AnswerCache, LruEvictsLeastRecentlyUsed)
{
    AnswerCacheConfig cfg;
    cfg.capacity = 2;
    AnswerCache cache(cfg, Algo::Btree, DatasetId::BTree10k, kPool);

    EXPECT_FALSE(cache.lookup(1));
    cache.insert(1);
    cache.insert(2);
    EXPECT_TRUE(cache.lookup(1)); // 1 becomes most-recent
    cache.insert(3);              // evicts 2, the LRU entry
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.insertions(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(AnswerCache, ReinsertOnlyRefreshesRecency)
{
    AnswerCacheConfig cfg;
    cfg.capacity = 2;
    AnswerCache cache(cfg, Algo::Btree, DatasetId::BTree10k, kPool);
    cache.insert(1);
    cache.insert(2);
    cache.insert(1); // refresh, not a new entry
    EXPECT_EQ(cache.insertions(), 2u);
    cache.insert(3); // now 2 is LRU and goes
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(1));
}

TEST(AnswerCache, CopyOutlivesItsOriginal)
{
    // A copy owns its entries: with the original gone, it hits,
    // refreshes and evicts exactly like a twin that was never copied.
    AnswerCacheConfig cfg;
    cfg.capacity = 2;
    AnswerCache twin(cfg, Algo::Btree, DatasetId::BTree10k, kPool);
    auto original = std::make_unique<AnswerCache>(
        cfg, Algo::Btree, DatasetId::BTree10k, kPool);
    for (AnswerCache *c : {&twin, original.get()}) {
        c->insert(1);
        c->insert(2);
    }
    AnswerCache copy = *original;
    original.reset();

    for (AnswerCache *c : {&twin, &copy}) {
        EXPECT_TRUE(c->lookup(1)); // refreshes 1: 2 is now LRU
        c->insert(3);              // evicts 2
        EXPECT_FALSE(c->lookup(2));
        EXPECT_TRUE(c->lookup(1));
        c->insert(2); // evicts 3
        EXPECT_FALSE(c->lookup(3));
        EXPECT_TRUE(c->lookup(2));
    }
    EXPECT_EQ(copy.size(), twin.size());
    EXPECT_EQ(copy.hits(), twin.hits());
    EXPECT_EQ(copy.misses(), twin.misses());
    EXPECT_EQ(copy.insertions(), twin.insertions());
    EXPECT_EQ(copy.evictions(), twin.evictions());
}

TEST(AnswerCache, DisabledCacheNeverHitsOrCounts)
{
    AnswerCache cache(AnswerCacheConfig{}, Algo::Btree,
                      DatasetId::BTree10k, kPool);
    cache.insert(1);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCache, TolerantCollapsesMortonCells)
{
    // Tolerance past the full 63-bit code puts every point query in
    // one cell: any answered query serves every other.
    AnswerCacheConfig cfg;
    cfg.capacity = 8;
    cfg.mode = CacheMode::Tolerant;
    cfg.toleranceLevels = 21;
    AnswerCache cache(cfg, Algo::Bvhnn, DatasetId::Random10k, kPool);
    cache.insert(0);
    EXPECT_TRUE(cache.lookup(63));

    // So does any larger tolerance, including levels whose 3x
    // overflows 32 bits (1431655766 x 3 wraps to a shift of 2).
    for (const unsigned levels : {22u, 1'431'655'765u, 1'431'655'766u}) {
        AnswerCacheConfig wide = cfg;
        wide.toleranceLevels = levels;
        AnswerCache all(wide, Algo::Bvhnn, DatasetId::Random10k, kPool);
        all.insert(0);
        for (std::uint32_t q = 1; q < kPool; ++q)
            EXPECT_TRUE(all.lookup(q)) << levels << " levels, query " << q;
    }

    // Zero tolerance keeps full Morton codes: two queries with
    // different codes never alias.
    const std::vector<std::uint64_t> &keys =
        serveQueryCoherenceKeys(DatasetId::Random10k, kPool);
    std::uint32_t other = 1;
    while (other < kPool && keys[other] == keys[0])
        ++other;
    ASSERT_LT(other, kPool); // a 64-query pool has distinct codes
    AnswerCacheConfig exact_cells = cfg;
    exact_cells.toleranceLevels = 0;
    AnswerCache strict(exact_cells, Algo::Bvhnn, DatasetId::Random10k,
                       kPool);
    strict.insert(0);
    EXPECT_FALSE(strict.lookup(other));
}

TEST(AnswerCache, BtreeIsAlwaysExact)
{
    // Key lookups return exact values; tolerance must never apply.
    AnswerCacheConfig cfg;
    cfg.capacity = 8;
    cfg.mode = CacheMode::Tolerant;
    cfg.toleranceLevels = 21;
    AnswerCache cache(cfg, Algo::Btree, DatasetId::BTree10k, kPool);
    cache.insert(0);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(0));
}

ServerConfig
cachedConfig()
{
    ServerConfig cfg;
    cfg.gpu.numSms = 2;
    cfg.gpu.finalize();
    cfg.numInstances = 1;
    cfg.pipeline.batch.maxBatch = 8;
    cfg.pipeline.batch.maxWaitCycles = 20'000;
    cfg.pipeline.cache.capacity = 16;
    cfg.queryPoolSize = kPool;
    return cfg;
}

std::vector<Request>
zipfStream(std::size_t n, std::uint64_t seed,
           QueryDist dist = QueryDist::Zipf)
{
    ArrivalConfig arr;
    arr.ratePerCycle = 1.0e-4;
    arr.queryPoolSize = kPool;
    arr.queryDist = dist;
    arr.zipfExponent = 1.2;
    arr.seed = seed;
    return ArrivalGenerator(arr, Algo::Btree, DatasetId::BTree10k)
        .generate(n);
}

TEST(AnswerCache, ServerHitsBypassTheQueue)
{
    const auto reqs = zipfStream(128, 33);
    Server server(Algo::Btree, DatasetId::BTree10k, cachedConfig());
    const ServeReport rep = server.run(reqs);

    EXPECT_GT(rep.cacheHits, 0u);
    EXPECT_GT(rep.cacheHitRate(), 0.0);
    // Conservation: every request completes or is shed; hits complete
    // without ever occupying a queue slot.
    EXPECT_EQ(rep.completed + rep.shedAdmission + rep.shedExpired,
              rep.offered);
    EXPECT_EQ(rep.queueWaitCycles.count() + rep.cacheHits +
                  rep.shedAdmission + rep.shedExpired,
              rep.offered);
    // A hit's latency is exactly the configured lookup cost — far
    // below any queued request's batching wait.
    EXPECT_EQ(rep.latencyCycles.min(),
              static_cast<double>(
                  cachedConfig().pipeline.cache.hitLatencyCycles));
}

TEST(AnswerCache, ServerCacheDeterministicAcrossJobs)
{
    const auto reqs = zipfStream(96, 5);
    ServerConfig cfg = cachedConfig();
    cfg.jobs = 1;
    const ServeReport rep1 =
        Server(Algo::Btree, DatasetId::BTree10k, cfg).run(reqs);
    cfg.jobs = 4;
    Server parallel(Algo::Btree, DatasetId::BTree10k, cfg);
    const ServeReport rep4 = parallel.run(reqs);
    const ServeReport again = parallel.run(reqs);
    for (const ServeReport *r : {&rep4, &again}) {
        EXPECT_EQ(rep1.cacheHits, r->cacheHits);
        EXPECT_EQ(rep1.completed, r->completed);
        EXPECT_EQ(rep1.batches, r->batches);
        EXPECT_EQ(rep1.lastCompletionCycle, r->lastCompletionCycle);
        EXPECT_EQ(rep1.latencyCycles.sum(), r->latencyCycles.sum());
    }
}

TEST(AnswerCache, ZipfStreamBeatsUniformHitRate)
{
    // The cache earns its keep on skewed traffic: the same server
    // under a Zipf stream must hit strictly more often than under a
    // uniform stream of the same length.
    Server server(Algo::Btree, DatasetId::BTree10k, cachedConfig());
    const ServeReport zipf = server.run(zipfStream(192, 11));
    const ServeReport uniform =
        server.run(zipfStream(192, 11, QueryDist::Uniform));
    EXPECT_GT(zipf.cacheHitRate(), uniform.cacheHitRate());
}

} // namespace
} // namespace hsu::serve
