#include "serve/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu::serve
{

std::string
toString(CacheMode mode)
{
    switch (mode) {
      case CacheMode::Exact:
        return "exact";
      case CacheMode::Tolerant:
        return "tolerant";
    }
    hsu_panic("unknown cache mode");
}

AnswerCache::AnswerCache(const AnswerCacheConfig &cfg, Algo algo,
                         DatasetId dataset, std::size_t pool_size,
                         ScheduleRecorder recorder)
    : cfg_(cfg), rec_(recorder)
{
    exactOnly_ =
        cfg_.mode == CacheMode::Exact || algo == Algo::Btree;
    if (cfg_.enabled() && !exactOnly_)
        codes_ = &serveQueryCoherenceKeys(dataset, pool_size);
    if (cfg_.enabled()) {
        std::uint64_t flags = 0;
        if (exactOnly_)
            flags |= kCacheExactOnly;
        if (algo == Algo::Btree)
            flags |= kCacheBtree;
        if (cfg_.mode == CacheMode::Tolerant)
            flags |= kCacheTolerantMode;
        rec_.record(0, ScheduleEventKind::CacheConfig, cfg_.capacity,
                    flags, cfg_.hitLatencyCycles);
    }
}

std::uint64_t
AnswerCache::keyFor(std::uint32_t query_id) const
{
    if (exactOnly_)
        return query_id;
    // Widen before multiplying: 3 x levels wraps in 32 bits.
    const std::uint64_t shift =
        std::min<std::uint64_t>(63, 3 * std::uint64_t{cfg_.toleranceLevels});
    return (*codes_)[query_id] >> shift;
}

void
AnswerCache::touch(std::uint64_t key)
{
    const auto it = stampOf_.find(key);
    byStamp_.erase(it->second);
    it->second = ++clock_;
    byStamp_.emplace(clock_, key);
}

bool
AnswerCache::lookup(std::uint32_t query_id, Cycle now)
{
    if (!cfg_.enabled())
        return false;
    const std::uint64_t key = keyFor(query_id);
    if (stampOf_.find(key) == stampOf_.end()) {
        misses_ += 1;
        rec_.record(now, ScheduleEventKind::CacheMiss, query_id, key);
        return false;
    }
    hits_ += 1;
    touch(key);
    rec_.record(now, ScheduleEventKind::CacheHit, query_id, key);
    return true;
}

void
AnswerCache::insert(std::uint32_t query_id, Cycle now)
{
    if (!cfg_.enabled())
        return;
    const std::uint64_t key = keyFor(query_id);
    if (stampOf_.find(key) != stampOf_.end()) {
        touch(key);
        rec_.record(now, ScheduleEventKind::CacheInsert, query_id, key,
                    1);
        return;
    }
    insertions_ += 1;
    stampOf_.emplace(key, ++clock_);
    byStamp_.emplace(clock_, key);
    rec_.record(now, ScheduleEventKind::CacheInsert, query_id, key, 0);
    if (stampOf_.size() > cfg_.capacity) {
        evictions_ += 1;
        const auto lru = byStamp_.begin();
        const std::uint64_t victim = lru->second;
        byStamp_.erase(lru);
        stampOf_.erase(victim);
        rec_.record(now, ScheduleEventKind::CacheEvict, victim);
    }
}

} // namespace hsu::serve
