/**
 * @file
 * Deterministic LRU answer cache for the serving frontend.
 *
 * Serving streams are skewed (serve/arrivals models Zipf query
 * popularity); a small cache in front of the scheduler answers repeat
 * queries in a fixed lookup latency instead of a queue + kernel
 * launch. Because every answer in this model is a pure function of
 * (algo, dataset, query), the cache only has to track KEYS — a hit is
 * correct by construction in Exact mode, and "close enough" by policy
 * in Tolerant mode:
 *
 *  - Exact: the key is the query id; a hit returns precisely the
 *    cached query's answer.
 *  - Tolerant: point queries map to their Morton code
 *    (serveQueryCoherenceKeys) truncated by 3 bits per tolerance
 *    level — queries landing in the same octree cell share an answer,
 *    trading recall for hit rate. B+tree lookups are exact values, so
 *    Keys datasets always use Exact keys regardless of mode.
 *
 * The replacement order is a pure function of the lookup/insert
 * sequence (recency stamps from a counter, no pointer ordering), so
 * cache behavior is bit-identical across runs and HSU_JOBS settings.
 * The cache holds plain values only: a copy shares nothing with its
 * original and replays the same hits and evictions (the serving loop
 * copies its router's cache to run ahead).
 */

#ifndef HSU_SERVE_CACHE_HH
#define HSU_SERVE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/schedule_log.hh"
#include "common/cycletime.hh"
#include "search/runner.hh"

namespace hsu::serve
{

/** Hit-key semantics. */
enum class CacheMode : std::uint8_t
{
    Exact,    //!< hit only on the identical query id
    Tolerant, //!< hit on any query in the same Morton cell
};

std::string toString(CacheMode mode);

/** Answer-cache knobs. */
struct AnswerCacheConfig
{
    /** Cached answers held; 0 disables the cache entirely. */
    std::size_t capacity = 0;
    /** Frontend lookup + answer-copy cost charged to a hit. */
    Cycle hitLatencyCycles = 2'000;
    CacheMode mode = CacheMode::Exact;
    /** Tolerant: Morton bits dropped per key = 3 x this (one octree
     *  refinement level each). */
    unsigned toleranceLevels = 6;

    bool
    enabled() const
    {
        return capacity > 0;
    }
};

/** Fixed-capacity LRU set of answered query keys. */
class AnswerCache
{
  public:
    AnswerCache(const AnswerCacheConfig &cfg, Algo algo,
                DatasetId dataset, std::size_t pool_size,
                ScheduleRecorder recorder = {});

    /**
     * Probe for @p query_id's key: a hit refreshes its recency and
     * returns true. Counts one hit or miss; a disabled cache returns
     * false without counting. @p now stamps the schedule-log event.
     */
    bool lookup(std::uint32_t query_id, Cycle now = 0);

    /** Record @p query_id's answer, evicting the LRU key at capacity.
     *  Re-inserting a resident key only refreshes its recency.
     *  @p now stamps the schedule-log events. */
    void insert(std::uint32_t query_id, Cycle now = 0);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t evictions() const { return evictions_; }
    std::size_t size() const { return stampOf_.size(); }
    const AnswerCacheConfig &config() const { return cfg_; }

    /** Stop recording schedule events (a run-ahead copy's cache). */
    void detachRecorder() { rec_ = {}; }

  private:
    /** The cache key of one query id under (mode, algo). */
    std::uint64_t keyFor(std::uint32_t query_id) const;

    /** Restamp a resident key as most-recently-used. */
    void touch(std::uint64_t key);

    AnswerCacheConfig cfg_;
    ScheduleRecorder rec_;
    bool exactOnly_ = true; //!< Exact mode, or a Keys (B+tree) dataset
    /** Tolerant point queries: per-id coherence keys (borrowed from
     *  the process-wide memoized table; null when exactOnly_). */
    const std::vector<std::uint64_t> *codes_ = nullptr;

    /** Recency: each resident key's last-use stamp, and the keys by
     *  stamp (begin = least recently used). */
    std::unordered_map<std::uint64_t, std::uint64_t> stampOf_;
    std::map<std::uint64_t, std::uint64_t> byStamp_;
    std::uint64_t clock_ = 0; //!< last stamp handed out

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace hsu::serve

#endif // HSU_SERVE_CACHE_HH
