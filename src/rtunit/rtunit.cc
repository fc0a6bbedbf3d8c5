#include "rtunit/rtunit.hh"

#include <algorithm>
#include <bit>

#include "common/audit.hh"
#include "common/logging.hh"

namespace hsu
{

namespace
{

[[maybe_unused]] HSU_AUDIT_NONDET_SOURCE(
    kPendingLinesAudit, audit::NondetKind::UnorderedIteration,
    "rtunit.cc:pendingLines_",
    "hash map accessed by fetched-line key only; waiter wakeup order "
    "is the entry-index vector, not hash order");

} // namespace

RtUnit::RtUnit(RtUnitParams params, Cache &l1, StatGroup &stats)
    : params_(std::move(params)), l1_(l1),
      entries_(params_.warpBufferSize),
      statDispatched_(stats.scalar(params_.name + ".dispatched")),
      statCompleted_(stats.scalar(params_.name + ".completed")),
      statCompletedBox_(stats.scalar(params_.name + ".completed_box")),
      statCompletedTri_(stats.scalar(params_.name + ".completed_tri")),
      statCompletedEuclid_(
          stats.scalar(params_.name + ".completed_euclid")),
      statCompletedAngular_(
          stats.scalar(params_.name + ".completed_angular")),
      statCompletedKeyCmp_(
          stats.scalar(params_.name + ".completed_keycmp")),
      statBusyCycles_(stats.scalar(params_.name + ".busy_cycles")),
      statMemRequests_(stats.scalar(params_.name + ".mem_requests")),
      statRejectNoEntry_(stats.scalar(params_.name + ".reject_no_entry")),
      statRejectArbiter_(stats.scalar(params_.name + ".reject_arbiter"))
{
    hsu_assert(params_.warpBufferSize >= 1, "warp buffer needs >= 1 entry");
}

unsigned
RtUnit::freeEntries(std::uint64_t now) const
{
    unsigned n = 0;
    for (const Entry &e : entries_) {
        if (e.state == EntryState::Free ||
            (e.state == EntryState::Issuing && e.issueEndsAt <= now)) {
            ++n;
        }
    }
    return n;
}

int
RtUnit::findFreeEntry(std::uint64_t now)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        if (e.state == EntryState::Free)
            return static_cast<int>(i);
        // An issuing entry's slot recycles once its last thread-beat
        // has entered the datapath.
        if (e.state == EntryState::Issuing && e.issueEndsAt <= now) {
            e.state = EntryState::Free;
            return static_cast<int>(i);
        }
    }
    return -1;
}

bool
RtUnit::tryDispatch(unsigned sub_core, unsigned warp_id,
                    const WarpTrace &trace, const TraceOp &op,
                    MemCompletion on_done, std::uint64_t now)
{
    if (now != lastDispatchCycle_) {
        lastDispatchCycle_ = now;
        dispatchedThisCycle_ = false;
    }
    if (dispatchedThisCycle_) {
        ++statRejectArbiter_;
        return false;
    }

    const int idx = findFreeEntry(now);
    if (idx < 0) {
        ++statRejectNoEntry_;
        return false;
    }

    Entry &e = entries_[static_cast<std::size_t>(idx)];
    e.state = EntryState::Gathering;
    e.warpId = warp_id;
    e.subCore = sub_core;
    e.seq = seq_++;
    e.mode = op.hsuMode;
    e.beats = op.count;
    e.lanes = std::popcount(op.activeMask);
    e.onDone = std::move(on_done);

    // Gather every beat's node operands: each active thread pushes its
    // requests into the FIFO memory access queue. The fetch engine
    // merges duplicate lines (across beats of one point, and across
    // threads sharing a node).
    std::vector<std::uint64_t> lines;
    lines.reserve(kWarpSize * op.count);
    const unsigned line_bytes = l1_.params().lineBytes;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(op.activeMask & (1u << lane)))
            continue;
        const std::uint64_t base = trace.laneAddr(op, lane);
        for (unsigned beat = 0; beat < op.count; ++beat) {
            const std::uint64_t addr =
                base + static_cast<std::uint64_t>(beat) *
                           op.bytesPerLane;
            const std::uint64_t first = addr / line_bytes;
            const std::uint64_t last =
                (addr + op.bytesPerLane - 1) / line_bytes;
            for (std::uint64_t l = first; l <= last; ++l)
                lines.push_back(l);
        }
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());

    unsigned fresh = 0;
    e.pendingLines = static_cast<unsigned>(lines.size());
    if (e.pendingLines == 0) {
        e.state = EntryState::Ready; // degenerate: no active lanes
    } else if (params_.fetchMerging) {
        for (const auto line : lines) {
            auto [it, inserted] = pendingLines_.try_emplace(line);
            it->second.push_back(static_cast<std::size_t>(idx));
            if (inserted) {
                fifo_.push_back(FifoReq{line, -1});
                ++fresh;
            }
        }
    } else {
        // Ablation: every request pays its own L1 access.
        for (const auto line : lines) {
            fifo_.push_back(FifoReq{line, idx});
            ++fresh;
        }
    }

    dispatchedThisCycle_ = true;
    ++statDispatched_;
    statMemRequests_ += static_cast<double>(fresh);
    return true;
}

int
RtUnit::selectReadyEntry() const
{
    // Warp-buffer entries enter the datapath oldest-first among Ready
    // entries, and per warp strictly in dispatch order (a warp's
    // instruction results must retire in order).
    int best = -1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (e.state != EntryState::Ready)
            continue;
        bool oldest = true;
        for (std::size_t j = 0; j < entries_.size(); ++j) {
            const Entry &o = entries_[j];
            if (j == i || o.warpId != e.warpId)
                continue;
            if ((o.state == EntryState::Gathering ||
                 o.state == EntryState::Ready) &&
                o.seq < e.seq) {
                oldest = false;
                break;
            }
        }
        if (!oldest)
            continue;
        if (best < 0 ||
            e.seq < entries_[static_cast<std::size_t>(best)].seq) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

void
RtUnit::startIssue(std::size_t idx, std::uint64_t now)
{
    Entry &e = entries_[idx];
    // One thread-beat per cycle: lanes x beats cycles of single-lane
    // datapath occupancy for the whole (multi-beat) instruction.
    const unsigned issue_cycles =
        std::max(1u, e.lanes) * std::max(1u, e.beats);
    e.state = EntryState::Issuing;
    e.issueEndsAt = now + issue_cycles;
    datapathBusyUntil_ = e.issueEndsAt;
    // The slot recycles at issueEndsAt, so the writeback carries
    // everything it needs by value.
    writebacks_.push(Writeback{e.issueEndsAt + params_.pipelineDepth,
                               seq_++, e.mode, e.beats,
                               std::move(e.onDone)});
    e.onDone = nullptr;
}

bool
RtUnit::tick(bool port_granted, std::uint64_t now)
{
    // 1. Retire writebacks whose results exit the pipeline. Each beat
    //    counts as one completed HSU instruction (the roofline metric).
    while (!writebacks_.empty() && writebacks_.top().ready <= now) {
        Writeback wb = std::move(const_cast<Writeback &>(
            writebacks_.top()));
        writebacks_.pop();
        statCompleted_ += static_cast<double>(wb.beats);
        switch (wb.mode) {
          case HsuMode::RayBox:
            statCompletedBox_ += static_cast<double>(wb.beats);
            break;
          case HsuMode::RayTri:
            statCompletedTri_ += static_cast<double>(wb.beats);
            break;
          case HsuMode::Euclid:
            statCompletedEuclid_ += static_cast<double>(wb.beats);
            break;
          case HsuMode::Angular:
            statCompletedAngular_ += static_cast<double>(wb.beats);
            break;
          case HsuMode::KeyCompare:
            statCompletedKeyCmp_ += static_cast<double>(wb.beats);
            break;
        }
        if (wb.done)
            wb.done();
    }

    // 2. Datapath: start streaming the next ready entry.
    bool started = false;
    if (datapathBusyUntil_ <= now) {
        const int pick = selectReadyEntry();
        if (pick >= 0) {
            startIssue(static_cast<std::size_t>(pick), now);
            started = true;
        }
    }
    if (datapathBusyUntil_ > now)
        ++statBusyCycles_;

    // 3. FIFO memory access queue: one L1 access per granted cycle. A
    //    parked head would be refused again: count the reject only.
    if (!port_granted || fifo_.empty())
        return started;
    if (fifoParked()) {
        l1_.accountParkedRejects(1);
        return started;
    }
    const FifoReq req = fifo_.front();
    const std::uint64_t byte_addr = req.line * l1_.params().lineBytes;
    MemCompletion done;
    if (req.entryIdx >= 0) {
        Entry *entry = &entries_[static_cast<std::size_t>(req.entryIdx)];
        done = [entry]() {
            if (--entry->pendingLines == 0 &&
                entry->state == EntryState::Gathering) {
                entry->state = EntryState::Ready;
            }
        };
    } else {
        const std::uint64_t line = req.line;
        done = [this, line]() { lineArrived(line); };
    }
    const CacheOutcome outcome =
        l1_.access(byte_addr, false, std::move(done), now);
    if (outcome == CacheOutcome::RejectMshrFull ||
        outcome == CacheOutcome::RejectQueueFull) {
        fifoParkedGen_ = l1_.freeGeneration();
    } else {
        fifo_.pop_front();
        fifoParkedGen_ = kNotParked;
    }
    return started;
}

void
RtUnit::accountParkedGrants(double n)
{
    // Per-gap path: release builds skip the check.
    hsu_debug_assert(!fifo_.empty() && fifoParkedGen_ != kNotParked,
                     "parked grants counted for an unparked FIFO");
    l1_.accountParkedRejects(n);
}

Cycle
RtUnit::nextIssuingEnd(Cycle now) const
{
    Cycle next = kNeverCycle;
    for (const Entry &e : entries_) {
        if (e.state == EntryState::Issuing && e.issueEndsAt > now)
            next = std::min(next, e.issueEndsAt);
    }
    return next;
}

void
RtUnit::lineArrived(std::uint64_t line)
{
    auto it = pendingLines_.find(line);
    hsu_assert(it != pendingLines_.end(),
               "node-fetch completion for unknown line");
    for (const std::size_t idx : it->second) {
        Entry &e = entries_[idx];
        if (--e.pendingLines == 0 && e.state == EntryState::Gathering)
            e.state = EntryState::Ready;
    }
    pendingLines_.erase(it);
}

Cycle
RtUnit::nextEventCycle(Cycle now) const
{
    // An unparked node fetch retries for the L1 port every cycle, and
    // the dispatch arbiter frees next cycle after an acceptance (a warp
    // it rejected this cycle may dispatch then).
    if (!fifo_.empty() && !fifoParked())
        return now + 1;
    if (lastDispatchCycle_ == now && dispatchedThisCycle_)
        return now + 1;

    Cycle next = kNeverCycle;
    if (!writebacks_.empty())
        next = std::min(next, std::max(writebacks_.top().ready, now + 1));
    bool any_ready = false;
    for (const Entry &e : entries_) {
        if (e.state == EntryState::Issuing)
            next = std::min(next, std::max(e.issueEndsAt, now + 1));
        else if (e.state == EntryState::Ready)
            any_ready = true;
    }
    if (any_ready)
        next = std::min(next, std::max(datapathBusyUntil_, now + 1));
    if (datapathBusyUntil_ > now) {
        // Busy-cycle accounting changes when the datapath frees.
        next = std::min(next, datapathBusyUntil_);
    }
    return next;
}

void
RtUnit::fastForwardStats(Cycle now, Cycle next)
{
    // The skipped cycles (now, next) are eventless, so the datapath is
    // busy for all of them or none: when busy, datapathBusyUntil_ is
    // itself an event bounding `next` from above.
    if (datapathBusyUntil_ > now)
        statBusyCycles_ += static_cast<double>(next - now - 1);
}

bool
RtUnit::drained() const
{
    if (!fifo_.empty() || !writebacks_.empty() || !pendingLines_.empty())
        return false;
    for (const auto &e : entries_) {
        if (e.state == EntryState::Gathering ||
            e.state == EntryState::Ready) {
            return false;
        }
    }
    return true;
}

} // namespace hsu
