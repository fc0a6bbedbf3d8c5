#include "sim/lsu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu
{

void
coalesceLines(const WarpTrace &trace, const TraceOp &op,
              unsigned line_bytes, std::vector<std::uint64_t> &lines)
{
    lines.clear();
    bool ascending = true;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!(op.activeMask & (1u << lane)))
            continue;
        const std::uint64_t addr = trace.laneAddr(op, lane);
        const std::uint64_t first = addr / line_bytes;
        const std::uint64_t last =
            (addr + op.bytesPerLane - 1) / line_bytes;
        for (std::uint64_t l = first; l <= last; ++l) {
            if (!lines.empty()) {
                if (l == lines.back())
                    continue;
                ascending = ascending && l > lines.back();
            }
            lines.push_back(l);
        }
    }
    if (!ascending) {
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    }
}

Lsu::Lsu(unsigned queue_capacity, Cache &l1, StatGroup &stats,
         const std::string &name)
    : capacity_(queue_capacity), l1_(l1),
      statInstrs_(stats.scalar(name + ".mem_instrs")),
      statLineReqs_(stats.scalar(name + ".line_reqs")),
      statPortCycles_(stats.scalar(name + ".port_cycles")),
      statRetries_(stats.scalar(name + ".retries"))
{
}

bool
Lsu::issue(const std::vector<std::uint64_t> &lines, bool write,
           MemCompletion done)
{
    // Per-memory-instruction path: release builds skip the check.
    hsu_debug_assert(!lines.empty(), "memory instruction with no lines");
    if (!hasRoom(lines.size()))
        return false;

    ++statInstrs_;
    statLineReqs_ += static_cast<double>(lines.size());

    std::uint32_t group;
    if (freeGroups_.empty()) {
        group = static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back();
    } else {
        group = freeGroups_.back();
        freeGroups_.pop_back();
    }
    groups_[group].remaining = static_cast<unsigned>(lines.size());
    groups_[group].done = done;

    for (const auto line : lines)
        queue_.push_back(LineReq{line, group, write});
    return true;
}

void
Lsu::lineDone(std::uint32_t group)
{
    Group &g = groups_[group];
    if (--g.remaining != 0)
        return;
    const MemCompletion done = g.done;
    g.done = nullptr;
    freeGroups_.push_back(group);
    if (done)
        done();
}

bool
Lsu::tick(bool port_granted, std::uint64_t now)
{
    if (!port_granted || queue_.empty())
        return false;

    ++statPortCycles_;
    if (parked()) {
        ++statRetries_;
        l1_.accountParkedRejects(1);
        return false;
    }
    const LineReq &req = queue_.front();
    const std::uint32_t group = req.group;
    const std::uint64_t byte_addr = req.line * l1_.params().lineBytes;
    const CacheOutcome outcome = l1_.access(
        byte_addr, req.write, [this, group]() { lineDone(group); }, now);

    if (outcome == CacheOutcome::RejectMshrFull ||
        outcome == CacheOutcome::RejectQueueFull) {
        // Structural stall; the request stays at the head, parked
        // until the L1's free generation moves.
        ++statRetries_;
        parkedGen_ = l1_.freeGeneration();
        return false;
    }
    queue_.pop_front();
    parkedGen_ = kNotParked;
    return true;
}

void
Lsu::accountParkedGrants(double n)
{
    // Per-gap path: release builds skip the check.
    hsu_debug_assert(!queue_.empty() && parkedGen_ != kNotParked,
                     "parked grants counted for an unparked LSU");
    statPortCycles_ += n;
    statRetries_ += n;
    l1_.accountParkedRejects(n);
}

} // namespace hsu
