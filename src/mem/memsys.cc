#include "mem/memsys.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu
{

MemorySystem::MemorySystem(MemSysParams params, StatGroup &stats)
    : params_(params),
      down_(params.icntLatency, params.icntLinesPerCycle,
            params.icntCapacity),
      up_(params.icntLatency, params.icntLinesPerCycle,
          params.icntCapacity),
      toDram_(20, params.icntLinesPerCycle, params.icntCapacity),
      statL2Lines_(stats.scalar("l2.lines_accessed"))
{
    for (unsigned i = 0; i < params_.numL1; ++i) {
        CacheParams p = params_.l1;
        p.name = p.name + "." + std::to_string(i);
        l1s_.push_back(std::make_unique<Cache>(p, stats));
        // L1 misses/writes head into the shared down-channel.
        l1s_.back()->setSendLower(
            [this, i](std::uint64_t line, bool write, std::uint64_t now) {
                return down_.trySend(DownPacket{line, write, i}, now);
            });
    }

    l2_ = std::make_unique<Cache>(params_.l2, stats);
    l2_->setSendLower(
        [this](std::uint64_t line, bool write, std::uint64_t now) {
            return toDram_.trySend(DramPacket{line, write}, now);
        });

    dram_ = std::make_unique<Dram>(params_.dram, stats);

    down_.setSink([this](DownPacket &&pkt) { l2Access(pkt, now_); });
    up_.setSink([this](UpPacket &&pkt) {
        l1s_[pkt.src]->fill(pkt.lineAddr, now_);
    });
    toDram_.setSink([this](DramPacket &&pkt) {
        if (pkt.write) {
            dram_->enqueue(pkt.lineAddr, true, MemCompletion{}, now_);
        } else {
            const std::uint64_t line = pkt.lineAddr;
            dram_->enqueue(line, false,
                           [this, line]() { l2_->fill(line, now_); },
                           now_);
        }
    });
}

void
MemorySystem::l2Access(const DownPacket &pkt, std::uint64_t now)
{
    // Caches address by byte; packets carry line numbers.
    const std::uint64_t byte_addr = pkt.lineAddr * params_.l2.lineBytes;
    MemCompletion done;
    if (!pkt.write) {
        const UpPacket up{pkt.lineAddr, pkt.src};
        done = [this, up]() { upPending_.push_back(up); };
    }
    const CacheOutcome outcome =
        l2_->access(byte_addr, pkt.write, std::move(done), now);
    if (outcome == CacheOutcome::RejectMshrFull ||
        outcome == CacheOutcome::RejectQueueFull) {
        // Structural stall at the L2: retry on a later cycle. Only
        // accepted accesses count as lines accessed.
        l2Retry_.push_back(pkt);
        return;
    }
    ++statL2Lines_;
}

void
MemorySystem::tick(std::uint64_t now)
{
    // The one point where SM traffic reaches shared state: the SMs only
    // stage requests in their private L1 miss queues, drained here (the
    // l1s_ loop below) in SM-index order. Time must not run backwards
    // between ticks.
    hsu_contract(now >= now_, "memory system ticked backwards: ", now,
                 " after ", now_);
    now_ = now;

    // Responses first so a fill can unblock same-direction traffic.
    dram_->tick(now);
    l2_->tick(now);
    toDram_.tick(now);

    // L2 -> L1 responses.
    while (!upPending_.empty() &&
           up_.trySend(upPending_.front(), now)) {
        upPending_.pop_front();
    }
    up_.tick(now);

    // Retries of structurally-rejected L2 accesses, oldest first
    // (bounded per cycle: the L2 can only start a few accesses).
    const std::size_t retries = std::min<std::size_t>(
        l2Retry_.size(), 4);
    for (std::size_t n = retries; n > 0; --n) {
        DownPacket pkt = l2Retry_.front();
        l2Retry_.pop_front();
        l2Access(pkt, now);
    }

    // L1 -> L2 requests.
    down_.tick(now);
    for (auto &l1 : l1s_)
        l1->tick(now);
}

Cycle
MemorySystem::nextEventCycle(Cycle now) const
{
    // Pending retries and responses are attempted every cycle.
    if (!upPending_.empty() || !l2Retry_.empty())
        return now + 1;
    Cycle next = std::min({down_.nextEventCycle(now),
                           up_.nextEventCycle(now),
                           toDram_.nextEventCycle(now),
                           l2_->nextEventCycle(now),
                           dram_->nextEventCycle(now)});
    for (const auto &l1 : l1s_)
        next = std::min(next, l1->nextEventCycle(now));
    return next;
}

bool
MemorySystem::idle() const
{
    if (!down_.idle() || !up_.idle() || !toDram_.idle())
        return false;
    if (!l2Retry_.empty() || !upPending_.empty())
        return false;
    if (!l2_->idle() || !dram_->idle())
        return false;
    for (const auto &l1 : l1s_) {
        if (!l1->idle())
            return false;
    }
    return true;
}

} // namespace hsu
