#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <deque>

#include "common/logging.hh"

namespace hsu
{

MshrIndex::MshrIndex(unsigned max_entries)
    : table_(std::bit_ceil(2 * std::max(1u, max_entries))),
      mask_(table_.size() - 1),
      shift_(64 - static_cast<unsigned>(std::countr_zero(table_.size())))
{
}

void
MshrIndex::insert(std::uint64_t line, std::uint32_t slot)
{
    std::size_t b = homeBucket(line);
    for (; table_[b].slot != kNoSlot; b = (b + 1) & mask_) {
        hsu_debug_assert(table_[b].line != line,
                         "MSHR index: line mapped twice");
    }
    table_[b] = Bucket{line, slot};
}

std::uint32_t
MshrIndex::erase(std::uint64_t line)
{
    std::size_t hole = homeBucket(line);
    for (; table_[hole].line != line; hole = (hole + 1) & mask_) {
        if (table_[hole].slot == kNoSlot)
            return kNoSlot;
    }
    const std::uint32_t slot = table_[hole].slot;
    if (slot == kNoSlot)
        return kNoSlot;
    // Backward shift: pull each later entry of the run into the hole
    // when the hole lies on its probe path (from its home bucket to
    // where it sits), so every remaining line stays findable.
    for (std::size_t b = (hole + 1) & mask_; table_[b].slot != kNoSlot;
         b = (b + 1) & mask_) {
        const std::size_t home_to_b =
            (b - homeBucket(table_[b].line)) & mask_;
        if (home_to_b >= ((b - hole) & mask_)) {
            table_[hole] = table_[b];
            hole = b;
        }
    }
    table_[hole].slot = kNoSlot;
    return slot;
}

Cache::Cache(CacheParams params, StatGroup &stats)
    : params_(std::move(params)), mshrIndex_(params_.mshrEntries),
      statAccesses_(stats.scalar(params_.name + ".accesses")),
      statReadAccesses_(stats.scalar(params_.name + ".read_accesses")),
      statHits_(stats.scalar(params_.name + ".hits")),
      statHitReserved_(stats.scalar(params_.name + ".hit_reserved")),
      statMisses_(stats.scalar(params_.name + ".misses")),
      statWrites_(stats.scalar(params_.name + ".writes")),
      statRejects_(stats.scalar(params_.name + ".rejects"))
{
    hsu_assert(params_.lineBytes > 0 && params_.assoc > 0,
               "bad cache geometry");
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    hsu_assert(lines >= params_.assoc, "cache smaller than one set");
    numSets_ = static_cast<unsigned>(lines / params_.assoc);
    tags_.assign(std::size_t{numSets_} * params_.assoc, kNoTag);
    lastUse_.assign(tags_.size(), 0);
    mshrWaiters_.resize(std::size_t{params_.mshrEntries} *
                        params_.mshrMergesPerEntry);
    mshrWaiterCount_.assign(params_.mshrEntries, 0);
    // Slot 0 is handed out first; slot choice is never observable.
    for (unsigned slot = params_.mshrEntries; slot-- > 0;)
        mshrFree_.push_back(slot);
}

std::size_t
Cache::findWay(std::size_t set, std::uint64_t tag) const
{
    for (std::size_t w = set; w < set + params_.assoc; ++w) {
        if (tags_[w] == tag)
            return w;
    }
    return kNoWay;
}

bool
Cache::lookup(std::uint64_t line_addr, std::uint64_t now)
{
    const std::size_t w = findWay(setOf(line_addr), tagOf(line_addr));
    if (w == kNoWay)
        return false;
    lastUse_[w] = now;
    return true;
}

void
Cache::install(std::uint64_t line_addr, std::uint64_t now)
{
    const std::size_t set = setOf(line_addr);
    const std::uint64_t tag = tagOf(line_addr);
    // Already present (e.g. two MSHR-free fills of the same line)?
    std::size_t victim = findWay(set, tag);
    if (victim == kNoWay) {
        // Prefer the first empty way, else evict the first LRU way.
        victim = set;
        for (std::size_t w = set; w < set + params_.assoc; ++w) {
            if (tags_[w] == kNoTag) {
                victim = w;
                break;
            }
            if (lastUse_[w] < lastUse_[victim])
                victim = w;
        }
        tags_[victim] = tag;
    }
    lastUse_[victim] = now;
}

CacheOutcome
Cache::access(std::uint64_t addr, bool write, MemCompletion done,
              std::uint64_t now)
{
    const std::uint64_t line = lineOf(addr);

    if (write) {
        // Write-through, no-allocate: the store retires after the hit
        // latency while the write packet drains toward memory.
        if (missQueue_.size() >= params_.missQueueCapacity) {
            ++statRejects_;
            return CacheOutcome::RejectQueueFull;
        }
        ++statAccesses_;
        ++statWrites_;
        lookup(line, now); // refresh LRU if present
        missQueue_.emplace_back(line, true);
        if (done)
            ready_.push(kHitStream, now + params_.hitLatency, done);
        return CacheOutcome::Hit;
    }

    // Read path. Structural rejections are checked before counting the
    // access so a retried request is not double-counted.
    if (lookup(line, now)) {
        ++statAccesses_;
        ++statReadAccesses_;
        ++statHits_;
        if (done)
            ready_.push(kHitStream, now + params_.hitLatency, done);
        return CacheOutcome::Hit;
    }

    const unsigned merges = params_.mshrMergesPerEntry;
    std::uint32_t slot = mshrIndex_.find(line);
    if (slot != MshrIndex::kNoSlot) {
        unsigned &waiters = mshrWaiterCount_[slot];
        if (waiters >= merges) {
            ++statRejects_;
            return CacheOutcome::RejectMshrFull;
        }
        ++statAccesses_;
        ++statReadAccesses_;
        ++statHitReserved_;
        mshrWaiters_[std::size_t{slot} * merges + waiters++] = done;
        return CacheOutcome::HitReserved;
    }

    if (mshrFree_.empty()) {
        ++statRejects_;
        return CacheOutcome::RejectMshrFull;
    }
    if (missQueue_.size() >= params_.missQueueCapacity) {
        ++statRejects_;
        return CacheOutcome::RejectQueueFull;
    }

    ++statAccesses_;
    ++statReadAccesses_;
    ++statMisses_;
    slot = mshrFree_.back();
    mshrFree_.pop_back();
    mshrIndex_.insert(line, slot);
    mshrWaiters_[std::size_t{slot} * merges] = done;
    mshrWaiterCount_[slot] = 1;
    missQueue_.emplace_back(line, false);
    return CacheOutcome::Miss;
}

void
Cache::fill(std::uint64_t line_addr, std::uint64_t now)
{
    install(line_addr, now);
    const std::uint32_t slot = mshrIndex_.erase(line_addr);
    hsu_assert(slot != MshrIndex::kNoSlot, params_.name,
               ": fill for line with no MSHR entry");
    const MemCompletion *waiters =
        &mshrWaiters_[std::size_t{slot} * params_.mshrMergesPerEntry];
    for (unsigned i = 0; i < mshrWaiterCount_[slot]; ++i) {
        if (waiters[i])
            ready_.push(kFillStream, now, waiters[i]);
    }
    mshrWaiterCount_[slot] = 0;
    mshrFree_.push_back(slot);
    ++freeGen_;
}

void
Cache::tick(std::uint64_t now)
{
    // Retire due completions. The callback may access this cache
    // again, so popDue removes it first.
    bool fired = false;
    MemCompletion done;
    while (ready_.popDue(now, done)) {
        done();
        fired = true;
    }
    // Drain the miss/write queue downstream while accepted.
    while (!missQueue_.empty() && sendLower_ &&
           sendLower_(missQueue_.front().first, missQueue_.front().second,
                      now)) {
        missQueue_.pop_front();
        ++freeGen_;
    }
    if (completionObserver_ && (fired || freeGen_ != observedGen_)) {
        observedGen_ = freeGen_;
        completionObserver_();
    }
}

bool
Cache::idle() const
{
    return mshrFree_.size() == params_.mshrEntries && missQueue_.empty() &&
           ready_.empty();
}

Cycle
Cache::nextEventCycle(Cycle now) const
{
    if (!missQueue_.empty())
        return now + 1;
    if (!ready_.empty())
        return std::max(ready_.headReady(), now + 1);
    return kNeverCycle;
}

} // namespace hsu
