#include "sim/sm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu
{

Sm::Sm(const GpuConfig &cfg, unsigned sm_id, Cache &l1, StatGroup &stats)
    : cfg_(cfg), smId_(sm_id), l1_(l1),
      statSlotCycles_(stats.scalar("sm.slot_cycles")),
      statBusyCycles_(stats.scalar("sm.busy_cycles")),
      statOffloadableCycles_(stats.scalar("sm.offloadable_cycles")),
      statStallCycles_(stats.scalar("sm.stall_cycles")),
      statIdleCycles_(stats.scalar("sm.idle_cycles")),
      statInstrsIssued_(stats.scalar("sm.instrs_issued")),
      statWarpsRetired_(stats.scalar("sm.warps_retired"))
{
    lsu_ = std::make_unique<Lsu>(cfg.lsuQueueSize, l1, stats, "lsu");
    if (cfg.rtUnitEnabled) {
        RtUnitParams rp;
        rp.warpBufferSize = cfg.warpBufferSize;
        rp.fetchMerging = cfg.rtFetchMerging;
        rp.pipelineDepth = cfg.datapath.pipelineDepth;
        rp.name = "rtu";
        rt_ = std::make_unique<RtUnit>(rp, l1, stats);
    }

    warps_.resize(cfg.maxWarpsPerSm);
    subCores_.resize(cfg.subCoresPerSm);

    // Every cross-boundary wake (LSU group done, store retire, HSU op
    // done, RT line arrival) funnels through this L1's completion
    // queue, so one observer invalidates the cached next-event value
    // whenever the memory system touched this SM's state.
    l1.setCompletionObserver([this] { wakePending_ = true; });
}

void
Sm::addWarp(const WarpTrace *trace)
{
    pending_.push_back(trace);
}

void
Sm::activatePending()
{
    for (unsigned slot = 0; slot < warps_.size() && !pending_.empty();
         ++slot) {
        WarpCtx &w = warps_[slot];
        if (w.active)
            continue;
        w.trace = pending_.front();
        pending_.pop_front();
        w.pc = 0;
        w.pendingTokens = 0;
        w.clearedSinceTick = 0;
        w.outstanding = 0;
        w.blockEnd = 0;
        w.linesPc = kNoPc;
        w.order = nextOrder_++;
        w.active = true;
        ++activeCount_;
        if (w.trace->ops.empty())
            ++finishing_;
        // Slot s belongs to sub-core s % subCoresPerSm. Activation
        // order is age order, so appending keeps `live` oldest-first.
        subCores_[slot % subCores_.size()].live.push_back(slot);
        ++epoch_;
    }
}

void
Sm::retireFinished(std::uint64_t now)
{
    for (auto &sc : subCores_) {
        auto keep = sc.live.begin();
        for (const unsigned slot : sc.live) {
            WarpCtx &w = warps_[slot];
            if (w.pc >= w.trace->ops.size() && w.outstanding == 0 &&
                w.blockEnd <= now) {
                // Per-cycle path: release builds skip the check.
                hsu_debug_assert(w.pendingTokens == 0,
                                 "warp retired with pending tokens");
                w.active = false;
                w.trace = nullptr;
                --activeCount_;
                --finishing_;
                ++statWarpsRetired_;
                ++epoch_;
            } else {
                *keep++ = slot;
            }
        }
        sc.live.erase(keep, sc.live.end());
    }
}

Sm::TryResult
Sm::tryIssue(unsigned slot, SubCore &sc, std::uint64_t now,
             bool &offloadable_attr)
{
    WarpCtx &w = warps_[slot];
    const TraceOp &op = w.trace->ops[w.pc];
    offloadable_attr = op.offloadable;

    const std::uint32_t prod_mask =
        op.produces != kNoToken ? (1u << op.produces) : 0u;
    if ((op.consumesMask | prod_mask) & w.pendingTokens)
        return TryResult::TokenBlocked;

    const unsigned sub_core_id =
        static_cast<unsigned>(&sc - subCores_.data());

    // Load and HSU completions clear the op's token: that can unblock
    // a stalled candidate, so it ends every sub-core's stall replay.
    WarpCtx *wp = &w;
    const auto token_done = [this, wp, prod_mask]() {
        wp->pendingTokens &= ~prod_mask;
        wp->clearedSinceTick |= prod_mask;
        anyCleared_ = true;
        --wp->outstanding;
        ++epoch_;
    };

    switch (op.type) {
      case OpType::Alu:
      case OpType::Shared:
        // A block of `count` back-to-back SIMD instructions occupies
        // the sub-core's issue port for `count` cycles (GTO would issue
        // them greedily back-to-back anyway).
        sc.busyUntil = now + op.count;
        sc.busyOffloadable = op.offloadable;
        w.blockEnd = now + op.count;
        statInstrsIssued_ += static_cast<double>(op.count);
        ++w.pc;
        return TryResult::Issued;

      case OpType::Load:
      case OpType::Store: {
        if (w.linesPc != w.pc) {
            coalesceLines(*w.trace, op, l1_.params().lineBytes, w.lines);
            w.linesPc = w.pc;
            if (w.lines.size() > cfg_.lsuQueueSize) {
                hsu_fatal("memory op at pc ", w.pc, " coalesces to ",
                          w.lines.size(),
                          " line requests, more than the LSU queue "
                          "holds (lsuQueueSize = ",
                          cfg_.lsuQueueSize, "); it could never issue");
            }
        }
        // Ask for room first: a refused attempt builds nothing.
        if (!lsu_->hasRoom(w.lines.size()))
            return TryResult::UnitBlocked;
        const bool accepted =
            op.type == OpType::Load
                ? lsu_->issue(w.lines, false, token_done)
                : lsu_->issue(w.lines, true,
                              [wp]() { --wp->outstanding; });
        hsu_debug_assert(accepted, "LSU refused an issue it had room for");
        if (op.type == OpType::Load)
            w.pendingTokens |= prod_mask;
        ++w.outstanding;
        ++statInstrsIssued_;
        ++w.pc;
        return TryResult::Issued;
      }

      case OpType::HsuOp: {
        hsu_assert(rt_ != nullptr,
                   "HSU op in trace but RT unit disabled");
        if (!rt_->tryDispatch(sub_core_id, slot, *w.trace, op, token_done,
                              now)) {
            return TryResult::UnitBlocked;
        }
        // The warp streams the sequence's `count` instructions from
        // its issue port back-to-back (GTO keeps it greedy, §IV-F).
        sc.busyUntil = now + op.count;
        sc.busyOffloadable = false;
        w.blockEnd = now + op.count;
        w.pendingTokens |= prod_mask;
        ++w.outstanding;
        statInstrsIssued_ += static_cast<double>(op.count);
        ++w.pc;
        return TryResult::Issued;
      }
    }
    hsu_panic("unreachable op type");
}

unsigned
Sm::buildCandidateOrder(const SubCore &sc,
                        unsigned order[kMaxWarpsPerSubCore],
                        unsigned &greedy_count) const
{
    // Fixed scratch storage (this runs every sub-core cycle — no heap
    // traffic allowed): greedy warp first (GTO), then the rest
    // oldest-first, which is `live` order.
    unsigned count = 0;
    if (sc.greedy >= 0) {
        const WarpCtx &g = warps_[static_cast<unsigned>(sc.greedy)];
        if (g.active && g.pc < g.trace->ops.size())
            order[count++] = static_cast<unsigned>(sc.greedy);
    }
    greedy_count = count;
    for (const unsigned slot : sc.live) {
        if (static_cast<int>(slot) == sc.greedy)
            continue;
        const WarpCtx &w = warps_[slot];
        if (w.pc >= w.trace->ops.size())
            continue; // draining outstanding ops only
        order[count++] = slot;
    }
    return count;
}

void
Sm::issueSubCore(SubCore &sc, std::uint64_t now)
{
    ++statSlotCycles_;

    if (sc.busyUntil > now) {
        // Mid-block: the issue port is streaming a compressed
        // multi-instruction block.
        ++statBusyCycles_;
        if (sc.busyOffloadable)
            ++statOffloadableCycles_;
        return;
    }

    if (sc.stallValid && sc.stallEpoch == epoch_ && now < sc.stallUntil) {
        // Nothing that could unblock a candidate happened since the
        // last evaluation stalled: this one would stall identically.
        ++statStallCycles_;
        if (sc.stallOffloadable)
            ++statOffloadableCycles_;
        if (sc.stallNoEntry != 0)
            rt_->accountSkippedDispatchRejects(sc.stallNoEntry);
        return;
    }
    sc.stallValid = false;

    unsigned order[kMaxWarpsPerSubCore];
    unsigned greedy_count = 0;
    unsigned count = buildCandidateOrder(sc, order, greedy_count);
    if (cfg_.scheduler == SchedulerPolicy::RoundRobin &&
        count > greedy_count + 1) {
        // Rotate the non-greedy candidates for a loose round-robin.
        const unsigned n = count - greedy_count;
        const unsigned shift = static_cast<unsigned>(now % n);
        std::rotate(order + greedy_count, order + greedy_count + shift,
                    order + count);
    }

    bool first_block_attr = false;
    bool have_block_attr = false;
    unsigned no_entry = 0;
    for (unsigned idx = 0; idx < count; ++idx) {
        const unsigned slot = order[idx];
        bool offl = false;
        const TryResult r = tryIssue(slot, sc, now, offl);
        if (r == TryResult::Issued) {
            sc.greedy = static_cast<int>(slot);
            ++statBusyCycles_;
            if (offl)
                ++statOffloadableCycles_;
            ++epoch_;
            lastIssue_ = now;
            const WarpCtx &w = warps_[slot];
            if (w.pc == w.trace->ops.size())
                ++finishing_;
            return;
        }
        if (r == TryResult::UnitBlocked &&
            warps_[slot].trace->ops[warps_[slot].pc].type ==
                OpType::HsuOp) {
            ++no_entry;
        }
        if (!have_block_attr) {
            have_block_attr = true;
            first_block_attr = offl;
        }
    }

    if (!have_block_attr) {
        ++statIdleCycles_;
        return;
    }
    ++statStallCycles_;
    if (first_block_attr)
        ++statOffloadableCycles_;

    // Record the stall for replay. Round-robin rotates the order every
    // cycle, so only GTO replays. A cycle in which the RT arbiter
    // accepted a dispatch refused this sub-core's HSU candidates for
    // the arbiter, not for want of an entry; next cycle they may
    // dispatch, so such a stall is not recorded.
    if (cfg_.scheduler != SchedulerPolicy::Gto ||
        (rt_ && rt_->dispatchAcceptedAt(now))) {
        return;
    }
    sc.stallValid = true;
    sc.stallOffloadable = first_block_attr;
    sc.stallNoEntry = no_entry;
    sc.stallEpoch = epoch_;
    sc.stallUntil = rt_ ? rt_->nextIssuingEnd(now) : kNeverCycle;
}

void
Sm::tick(std::uint64_t now)
{
    wakePending_ = false;
    if (anyCleared_) {
        // Ticking consumes the catch-up token bookkeeping: from here
        // on, skipped-gap accounting starts from the current state.
        for (const auto &sc : subCores_) {
            for (const unsigned slot : sc.live)
                warps_[slot].clearedSinceTick = 0;
        }
        anyCleared_ = false;
    }
    // L1 port arbitration: the LSU and the RT unit's FIFO queue
    // time-share the single L1D access port, alternating priority.
    const bool rt_wants = rt_ && rt_->wantsAccess();
    const bool lsu_wants = lsu_->wantsAccess();
    const bool rt_turn = (now & 1) == 0;
    const bool grant_rt = rt_wants && (rt_turn || !lsu_wants);
    const bool grant_lsu = lsu_wants && !grant_rt;

    // An entry starting to issue moves the RT unit's next slot-free
    // cycle; a queue pop makes LSU room. Either can unblock a stall.
    if (rt_ && rt_->tick(grant_rt, now))
        ++epoch_;
    if (lsu_->tick(grant_lsu, now))
        ++epoch_;

    // Only a warp that has issued its last op can retire.
    if (finishing_ != 0)
        retireFinished(now);
    if (!pending_.empty())
        activatePending();

    for (auto &sc : subCores_)
        issueSubCore(sc, now);
}

bool
Sm::done() const
{
    if (!pending_.empty() || activeCount_ != 0)
        return false;
    if (!lsu_->drained())
        return false;
    if (rt_ && !rt_->drained())
        return false;
    return true;
}

Cycle
Sm::nextEventCycle(Cycle now) const
{
    // A sub-core that issued may issue again next cycle: a load or a
    // store sets no busyUntil, and the LSU it went to may be parked.
    if (lastIssue_ == now)
        return now + 1;

    // An unparked LSU or RT FIFO head contends for the L1 port every
    // cycle. A parked one waits for the L1's free generation to move,
    // and the fill or pop that moves it wakes this SM through the
    // completion observer; fastForwardStats counts its grants.
    Cycle next = lsu_->nextEventCycle(now);
    if (rt_)
        next = std::min(next, rt_->nextEventCycle(now));
    for (const auto &sc : subCores_) {
        if (sc.busyUntil > now)
            next = std::min(next, sc.busyUntil);
        // A warp's trailing block (its retirement) is only in the
        // future while it is its sub-core's current block, so
        // busyUntil already covers it.
        for (const unsigned slot : sc.live) {
            hsu_debug_assert(warps_[slot].blockEnd <= now ||
                                 warps_[slot].blockEnd == sc.busyUntil,
                             "warp block ends after its sub-core's");
        }
    }
    return next;
}

Cycle
Sm::nextEventAfterTick(Cycle now)
{
    if (probeHold_ > 0) {
        // Dense phase: skip the scan, answer conservatively. Extra
        // ticks of an eventless SM are no-ops, so this cannot change
        // results — it only caps the probe cost where the scan would
        // keep answering "next cycle" anyway.
        --probeHold_;
        return now + 1;
    }
    const Cycle next = nextEventCycle(now);
    if (next == now + 1) {
        if (cfg_.probeDenseStreak != 0 &&
            ++denseStreak_ >= cfg_.probeDenseStreak) {
            probeHold_ = cfg_.probeInterval;
            denseStreak_ = 0;
        }
    } else {
        denseStreak_ = 0;
    }
    return next;
}

namespace
{

/** Number of cycles t in [first, last] with t % n == residue. */
std::uint64_t
cyclesWithResidue(std::uint64_t first, std::uint64_t last, std::uint64_t n,
                  std::uint64_t residue)
{
    const std::uint64_t start = first + (residue + n - first % n) % n;
    return start > last ? 0 : (last - start) / n + 1;
}

} // namespace

void
Sm::fastForwardStats(Cycle now, Cycle next)
{
    hsu_debug_assert(next > now + 1, "fast-forward needs a non-empty gap");
    const std::uint64_t gap_cycles = next - now - 1;
    const double gap = static_cast<double>(gap_cycles);

    if (rt_)
        rt_->fastForwardStats(now, next);

    // A queue with requests in a gap is parked (an unparked head is an
    // event next cycle). The L1 port arbiter grants the RT FIFO on even
    // cycles when both want it, else whoever wants it; each grant would
    // have counted one refusal.
    const bool lsu_wants = lsu_->wantsAccess();
    const bool rt_wants = rt_ && rt_->wantsAccess();
    const std::uint64_t rt_grants =
        !rt_wants ? 0
        : lsu_wants ? cyclesWithResidue(now + 1, next - 1, 2, 0)
                    : gap_cycles;
    if (rt_grants != 0)
        rt_->accountParkedGrants(static_cast<double>(rt_grants));
    if (lsu_wants && rt_grants != gap_cycles)
        lsu_->accountParkedGrants(
            static_cast<double>(gap_cycles - rt_grants));

    for (auto &sc : subCores_) {
        statSlotCycles_ += gap;
        if (sc.busyUntil > now) {
            // busyUntil is an event bounding `next`, so the block is
            // mid-stream for every skipped cycle.
            statBusyCycles_ += gap;
            if (sc.busyOffloadable)
                statOffloadableCycles_ += gap;
            continue;
        }

        unsigned order[kMaxWarpsPerSubCore];
        unsigned greedy_count = 0;
        const unsigned count = buildCandidateOrder(sc, order,
                                                   greedy_count);
        if (count == 0) {
            statIdleCycles_ += gap;
            continue;
        }
        // Candidates exist but none can issue during an eventless gap:
        // every skipped cycle is a stall, attributed (as in
        // issueSubCore) to the first candidate tried that cycle.
        statStallCycles_ += gap;
        // issueSubCore tries every candidate each cycle until one
        // issues; in a gap none do, so each candidate whose tokens are
        // clear re-attempts its HSU dispatch every skipped cycle and
        // is rejected for lack of a free buffer entry (a free entry
        // would have made the dispatch an event bounding the gap).
        // The per-cycle loop counts each of those attempts; compensate
        // them here. Gap-time token state is pendingTokens plus any
        // bits completions cleared after the gap but before this call.
        for (unsigned s = 0; s < count; ++s) {
            const WarpCtx &w = warps_[order[s]];
            const TraceOp &op = w.trace->ops[w.pc];
            if (op.type != OpType::HsuOp)
                continue;
            const std::uint32_t prod =
                op.produces != kNoToken ? (1u << op.produces) : 0u;
            if ((op.consumesMask | prod) &
                (w.pendingTokens | w.clearedSinceTick)) {
                continue; // token-blocked: never reaches the dispatcher
            }
            rt_->accountSkippedDispatchRejects(gap);
        }
        if (cfg_.scheduler == SchedulerPolicy::RoundRobin &&
            count > greedy_count + 1 && greedy_count == 0) {
            // The per-cycle rotation (shift = now % n) changes which
            // blocked warp is tried first; count each head's cycles.
            for (unsigned s = 0; s < count; ++s) {
                const WarpCtx &w = warps_[order[s]];
                if (!w.trace->ops[w.pc].offloadable)
                    continue;
                statOffloadableCycles_ += static_cast<double>(
                    cyclesWithResidue(now + 1, next - 1, count, s));
            }
        } else {
            // GTO, a lone candidate, or a greedy head: the first
            // candidate is the same every skipped cycle.
            const WarpCtx &w = warps_[order[0]];
            if (w.trace->ops[w.pc].offloadable)
                statOffloadableCycles_ += gap;
        }
    }
}

} // namespace hsu
