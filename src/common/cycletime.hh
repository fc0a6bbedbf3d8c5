/**
 * @file
 * Shared simulated-time vocabulary for the event-skip machinery.
 *
 * Every timed component exposes `nextEventCycle(now)`: the earliest
 * future cycle at which ticking it could do anything, assuming no new
 * external input arrives. Components that can never act again on their
 * own return kNeverCycle; the GPU top loop fast-forwards across the gap
 * up to the global minimum (see Gpu::run).
 */

#ifndef HSU_COMMON_CYCLETIME_HH
#define HSU_COMMON_CYCLETIME_HH

#include <cstdint>

namespace hsu
{

/** Simulated cycle count. */
using Cycle = std::uint64_t;

/** "No self-scheduled future event" sentinel for nextEventCycle(). */
inline constexpr Cycle kNeverCycle = ~static_cast<Cycle>(0);

/** @p a + @p b, saturating at kNeverCycle: a sum that would pass it
 *  (a wait or deadline of kNeverCycle, say) means "never". */
inline constexpr Cycle
saturatingAdd(Cycle a, Cycle b)
{
    return b > kNeverCycle - a ? kNeverCycle : a + b;
}

} // namespace hsu

#endif // HSU_COMMON_CYCLETIME_HH
