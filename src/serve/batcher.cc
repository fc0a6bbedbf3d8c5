#include "serve/batcher.hh"

#include "common/logging.hh"

namespace hsu::serve
{

DynamicBatcher::DynamicBatcher(const BatchPolicy &policy)
    : policy_(policy)
{
    if (policy_.maxBatch == 0)
        hsu_fatal("batcher needs maxBatch >= 1");
}

void
DynamicBatcher::push(const Request &req)
{
    hsu_assert(queue_.empty() ||
                   queue_.back().arrivalCycle <= req.arrivalCycle,
               "batcher pushes must be in arrival order");
    queue_.push_back(req);
}

bool
DynamicBatcher::batchReady(Cycle now) const
{
    if (queue_.empty())
        return false;
    if (queue_.size() >= policy_.maxBatch)
        return true;
    return now >= saturatingAdd(oldestArrival(), policy_.maxWaitCycles);
}

std::vector<Request>
DynamicBatcher::popBatch(Cycle now, std::vector<Request> &expired)
{
    std::vector<Request> batch;
    batch.reserve(std::min<std::size_t>(queue_.size(),
                                        policy_.maxBatch));
    while (!queue_.empty() && batch.size() < policy_.maxBatch) {
        const Request &front = queue_.front();
        if (front.deadlineCycle < now)
            expired.push_back(front);
        else
            batch.push_back(front);
        queue_.pop_front();
    }
    return batch;
}

Cycle
DynamicBatcher::oldestArrival() const
{
    hsu_assert(!queue_.empty(), "oldestArrival on empty batcher");
    return queue_.front().arrivalCycle;
}

Cycle
DynamicBatcher::nextForceCycle() const
{
    if (queue_.empty())
        return kNeverCycle;
    return saturatingAdd(oldestArrival(), policy_.maxWaitCycles);
}

} // namespace hsu::serve
