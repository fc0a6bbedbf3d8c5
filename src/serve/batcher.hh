/**
 * @file
 * Dynamic batcher: packs pending requests into kernel launches.
 *
 * Requests queue in strict FIFO order and leave as batches under a
 * max-batch-size / max-wait policy: a batch forms as soon as a full
 * batch is pending, or when the oldest pending request has waited
 * maxWaitCycles (so a lone request is never parked indefinitely).
 * Requests whose deadline has already passed when their batch forms are
 * dropped at pop time instead of being launched — completing them
 * could not meet the SLO and would steal service from live requests.
 *
 * Invariants (tested in tests/serve/test_batcher.cc):
 *  - FIFO: popped requests appear in push order; nothing is reordered.
 *  - A batch never exceeds maxBatch requests.
 *  - A popped request either made its deadline check at pop time or is
 *    returned through the expired list, never silently vanishes.
 */

#ifndef HSU_SERVE_BATCHER_HH
#define HSU_SERVE_BATCHER_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "common/cycletime.hh"
#include "serve/arrivals.hh"

namespace hsu::serve
{

/** Batch-formation policy. */
struct BatchPolicy
{
    /** Max requests per kernel launch. GGNN maps one warp per query;
     *  the point/key kernels pack 32 queries per warp — 32 keeps one
     *  launch warp-shaped either way. */
    unsigned maxBatch = 32;
    /** Max cycles the oldest pending request may wait before a partial
     *  batch is forced out; a force cycle past kNeverCycle saturates
     *  there (never forced). */
    Cycle maxWaitCycles = 50'000;
};

/** FIFO batcher with size and age triggers. */
class DynamicBatcher
{
  public:
    explicit DynamicBatcher(const BatchPolicy &policy);

    /** Enqueue one admitted request. @pre arrivals are nondecreasing. */
    void push(const Request &req);

    /** True when popBatch(now) would return a batch. */
    bool batchReady(Cycle now) const;

    /**
     * Form the next batch: up to maxBatch requests in FIFO order.
     * Requests already past their deadline at @p now are moved to
     * @p expired instead (they do not consume batch slots).
     * May return an empty batch when every pending request expired.
     */
    std::vector<Request> popBatch(Cycle now,
                                  std::vector<Request> &expired);

    /** Pending request count. */
    std::size_t pending() const { return queue_.size(); }

    /** Arrival cycle of the oldest pending request. @pre pending()>0 */
    Cycle oldestArrival() const;

    /**
     * Earliest future cycle at which the age trigger fires (for the
     * server's event loop); kNeverCycle when the queue is empty or the
     * trigger never fires.
     */
    Cycle nextForceCycle() const;

    const BatchPolicy &policy() const { return policy_; }

  private:
    BatchPolicy policy_;
    std::deque<Request> queue_;
};

} // namespace hsu::serve

#endif // HSU_SERVE_BATCHER_HH
