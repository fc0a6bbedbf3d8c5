#include "mem/dram.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace hsu
{

Dram::Dram(DramParams params, StatGroup &stats)
    : params_(params), banks_(params.banks),
      queuedBanks_((params.banks + 63) / 64),
      statAccesses_(stats.scalar("dram.accesses")),
      statActivations_(stats.scalar("dram.activations")),
      statRowHits_(stats.scalar("dram.row_hits"))
{
    hsu_assert((params_.banks & (params_.banks - 1)) == 0,
               "bank count must be a power of two");
}

unsigned
Dram::bankOf(std::uint64_t line_addr) const
{
    return static_cast<unsigned>(line_addr & (params_.banks - 1));
}

std::uint64_t
Dram::rowOf(std::uint64_t line_addr) const
{
    return (line_addr / params_.banks) / params_.linesPerRow;
}

void
Dram::enqueue(std::uint64_t line_addr, bool write, MemCompletion done,
              std::uint64_t now)
{
    const unsigned b = bankOf(line_addr);
    banks_[b].queue.push_back(Request{line_addr, rowOf(line_addr), write,
                                      std::move(done), now});
    queuedBanks_[b / 64] |= std::uint64_t{1} << (b % 64);
}

void
Dram::tick(std::uint64_t now)
{
    // Fire due completions.
    MemCompletion done;
    while (inService_.popDue(now, done)) {
        if (done)
            done();
    }

    // Start a new service on every free bank using FR-FCFS: first
    // request hitting the open row wins, else the oldest request.
    // Banks with queued requests are visited in ascending order.
    for (std::size_t w = 0; w < queuedBanks_.size(); ++w) {
        for (std::uint64_t bits = queuedBanks_[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned b =
                static_cast<unsigned>(w * 64 + std::countr_zero(bits));
            Bank &bank = banks_[b];
            if (bank.readyAt > now)
                continue;

            auto pick = bank.queue.end();
            if (bank.rowValid) {
                for (auto it = bank.queue.begin(); it != bank.queue.end();
                     ++it) {
                    if (it->row == bank.openRow) {
                        pick = it;
                        break;
                    }
                }
            }
            const bool row_hit = pick != bank.queue.end();
            if (!row_hit)
                pick = bank.queue.begin();

            ++statAccesses_;
            unsigned latency;
            if (row_hit) {
                ++statRowHits_;
                latency = params_.rowHitLatency;
            } else {
                ++statActivations_;
                bank.openRow = pick->row;
                bank.rowValid = true;
                latency = params_.rowMissLatency;
            }

            // The bank is busy until the access completes (activation
            // and column access do not overlap with the next request).
            bank.readyAt =
                now + std::max<std::uint64_t>(latency,
                                              params_.bankCycleTime);
            inService_.push(row_hit ? kRowHitStream : kRowMissStream,
                            now + latency, pick->done);
            bank.queue.erase(pick);
            if (bank.queue.empty())
                queuedBanks_[w] &= ~(std::uint64_t{1} << (b % 64));
        }
    }
}

bool
Dram::idle() const
{
    if (!inService_.empty())
        return false;
    for (const std::uint64_t bits : queuedBanks_) {
        if (bits != 0)
            return false;
    }
    return true;
}

Cycle
Dram::nextEventCycle(Cycle now) const
{
    Cycle next = kNeverCycle;
    if (!inService_.empty())
        next = std::max(inService_.headReady(), now + 1);
    for (std::size_t w = 0; w < queuedBanks_.size(); ++w) {
        for (std::uint64_t bits = queuedBanks_[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t b = w * 64 + std::countr_zero(bits);
            next = std::min(next, std::max(banks_[b].readyAt, now + 1));
        }
    }
    return next;
}

double
Dram::rowLocality() const
{
    const double activations = statActivations_.value();
    if (activations == 0.0)
        return 0.0;
    return statAccesses_.value() / activations;
}

} // namespace hsu
