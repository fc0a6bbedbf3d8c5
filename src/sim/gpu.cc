#include "sim/gpu.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "common/phase_timer.hh"

namespace hsu
{

namespace
{

/**
 * The environment default is latched on first use: a Gpu is constructed
 * per kernel run and a bench fleet runs thousands of them, so per-run
 * getenv() calls are both measurable and a determinism hazard (a
 * mid-run setenv would flip behavior between simulations). Tests that
 * need a non-default value use the GpuConfig override instead.
 */
bool
processNoSkipDefault()
{
    static const bool v = [] {
        // audit[env-read]: read once per process (see file comment)
        const char *e = std::getenv("HSU_NO_SKIP");
        return e != nullptr && e[0] != '\0' && e[0] != '0';
    }();
    return v;
}

} // namespace

Gpu::Gpu(const GpuConfig &cfg, StatGroup &stats)
    : cfg_(cfg), stats_(stats),
      statFfCycles_(stats.scalar("sim.ff_cycles")),
      statHorizonCycles_(stats.scalar("sim.horizon_cycles"))
{
    cfg_.finalize();
    cfg_.validate();
    mem_ = std::make_unique<MemorySystem>(cfg_.mem, stats_);
    for (unsigned i = 0; i < cfg_.numSms; ++i)
        sms_.push_back(std::make_unique<Sm>(cfg_, i, mem_->l1(i), stats_));
}

bool
Gpu::allDone() const
{
    for (const auto &sm : sms_) {
        if (!sm->done())
            return false;
    }
    return mem_->idle();
}

void
Gpu::panicWedged(const char *why, std::uint64_t now)
{
    // Dump forensic state before dying: a wedged simulation is always
    // a simulator bug.
    for (const auto &[name, value] : stats_.dump())
        // audit[stray-stdio]: forensic dump on the panic path
        std::fprintf(stderr, "  %s = %.0f\n", name.c_str(), value);
    hsu_panic(why, " at cycle ", now);
}

void
Gpu::catchUpAndTick(unsigned i, Cycle now)
{
    Sm &sm = *sms_[i];
    const Cycle last = smLastTicked_[i];
    if (last + 1 < now) {
        // The SM sat out (last, now): no self-event was due and no
        // completion reached it (a completion forces a tick that same
        // cycle), so its state is exactly what a per-cycle loop would
        // have carried through the gap — account the occupancy stats
        // the skipped ticks would have recorded. This cycle's
        // completions (applied just before this call) don't disturb
        // the accounting: fastForwardStats reads only SM-phase state.
        sm.fastForwardStats(last, now);
        statHorizonCycles_ += static_cast<double>(now - last - 1);
    }
    sm.tick(now);
    smNextEvent_[i] = sm.nextEventCycle(now);
    smLastTicked_[i] = now;
}

Cycle
Gpu::runLoop(std::uint64_t max_cycles, bool stepped)
{
    const unsigned n = static_cast<unsigned>(sms_.size());
    smNextEvent_.assign(n, 0); // everyone ticks at cycle 0
    smLastTicked_.assign(n, 0);
    // Stepped mode: the predicted end of the current eventless gap;
    // every cycle strictly inside it must confirm the prediction.
    Cycle predicted = 0;

    for (Cycle now = 0;;) {
        if (now >= max_cycles)
            panicWedged("simulation exceeded cycle bound", now);

        // The memory system ticks first: it drains the SMs' L1 miss
        // queues in SM-index order and fires completions, flagging the
        // SMs they woke.
        mem_->tick(now);

        Cycle next = kNeverCycle;
        for (unsigned i = 0; i < n; ++i) {
            Sm &sm = *sms_[i];
            if (sm.wakePending() || smNextEvent_[i] <= now) {
                catchUpAndTick(i, now);
            } else if (stepped) {
                // Skipping rests on this tick changing nothing the SM
                // predicts; the stepped loop runs it and checks.
                sm.tick(now);
                smLastTicked_[i] = now;
                if (sm.nextEventCycle(now) != smNextEvent_[i]) {
                    panicWedged("event-skip invariant violated: an SM "
                                "neither due nor woken changed its "
                                "next event",
                                now);
                }
            }
            next = std::min(next, smNextEvent_[i]);
        }

        // Exact completion: no check-period slack inflating the count.
        if (allDone()) {
            // SMs that sat out the tail account per-cycle occupancy
            // through the completion cycle.
            for (unsigned i = 0; i < n; ++i) {
                const Cycle last = smLastTicked_[i];
                if (last < now) {
                    sms_[i]->fastForwardStats(last, now + 1);
                    statHorizonCycles_ += static_cast<double>(now - last);
                }
            }
            return now;
        }

        // Every cached SM event and every memory-system event lies
        // after now, so a horizon of now + 1 needs no memory probe;
        // this keeps the probe out of dense phases.
        if (next > now + 1)
            next = std::min(next, mem_->nextEventCycle(now));
        if (next == kNeverCycle)
            panicWedged("no future event but simulation not done", now);
        // Main simulation loop: release builds skip the check.
        hsu_debug_assert(next > now,
                         "next event cycle must be in the future");

        if (stepped) {
            if (now + 1 >= predicted) {
                predicted = next;
            } else if (next != predicted) {
                panicWedged("event-skip invariant violated: event "
                            "appeared inside predicted gap",
                            now);
            }
            ++now;
        } else {
            if (next > now + 1)
                statFfCycles_ += static_cast<double>(next - now - 1);
            now = next;
        }
    }
}

RunResult
Gpu::run(const KernelTrace &trace, std::uint64_t max_cycles)
{
    // Distribute warps round-robin across SMs (thread-block scheduler).
    for (std::size_t i = 0; i < trace.warps.size(); ++i)
        sms_[i % sms_.size()]->addWarp(&trace.warps[i]);

    const bool stepped =
        cfg_.noSkip < 0 ? processNoSkipDefault() : cfg_.noSkip != 0;
    const Cycle last = runLoop(max_cycles, stepped);

    RunResult r;
    r.cycles = last + 1;
    r.instrsIssued = stats_.get("sm.instrs_issued");
    r.hsuCompleted = stats_.get("rtu.completed");
    r.l2LinesAccessed = stats_.get("l2.lines_accessed");
    for (unsigned i = 0; i < cfg_.numSms; ++i) {
        const std::string p = "l1d." + std::to_string(i);
        r.l1Accesses += stats_.get(p + ".accesses");
        r.l1Misses += stats_.get(p + ".misses");
    }
    r.dramRowLocality = mem_->dram().rowLocality();
    const double busy = stats_.get("sm.busy_cycles") +
                        stats_.get("sm.stall_cycles");
    r.offloadableFraction =
        busy > 0 ? stats_.get("sm.offloadable_cycles") / busy : 0.0;
    return r;
}

RunResult
simulateKernel(const GpuConfig &cfg, const KernelTrace &trace,
               StatGroup &stats)
{
    const ScopedPhaseTimer timer(PipelinePhase::Simulate);
    Gpu gpu(cfg, stats);
    return gpu.run(trace);
}

RunResult
simulateKernel(const GpuConfig &cfg,
               const std::shared_ptr<const KernelTrace> &trace,
               StatGroup &stats)
{
    hsu_assert(trace, "simulateKernel: null shared trace");
    return simulateKernel(cfg, *trace, stats);
}

} // namespace hsu
