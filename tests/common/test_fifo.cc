/**
 * @file
 * Fifo tests: order across wrap-around and growth, against std::deque.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "common/fifo.hh"
#include "common/rng.hh"

namespace hsu
{
namespace
{

TEST(Fifo, StartsEmpty)
{
    Fifo<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(Fifo, KeepsOrderAcrossWrapAndGrowth)
{
    // Random pushes and pops keep the ring's head anywhere in it when
    // it grows, so growth must copy in queue order, not buffer order.
    Fifo<std::uint64_t> q;
    std::deque<std::uint64_t> oracle;
    Rng rng(11);
    std::uint64_t next = 0;
    for (int step = 0; step < 100000; ++step) {
        // Drift the size up and down through several growths.
        const bool grow_phase = (step / 5000) % 2 == 0;
        if (oracle.empty() || rng.nextBounded(8) < (grow_phase ? 5u : 3u)) {
            q.push_back(next);
            oracle.push_back(next++);
            ASSERT_EQ(q.back(), oracle.back());
        } else {
            ASSERT_EQ(q.front(), oracle.front()) << "step " << step;
            q.pop_front();
            oracle.pop_front();
        }
        ASSERT_EQ(q.size(), oracle.size());
    }
    while (!oracle.empty()) {
        ASSERT_EQ(q.front(), oracle.front());
        q.pop_front();
        oracle.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(Fifo, FrontIsWritable)
{
    Fifo<int> q;
    q.push_back(1);
    q.push_back(2);
    q.front() = 7;
    EXPECT_EQ(q.front(), 7);
    q.pop_front();
    EXPECT_EQ(q.front(), 2);
    EXPECT_EQ(q.back(), 2);
}

} // namespace
} // namespace hsu
