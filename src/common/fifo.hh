/**
 * @file
 * A FIFO queue on a power-of-two ring buffer.
 */

#ifndef HSU_COMMON_FIFO_HH
#define HSU_COMMON_FIFO_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hsu
{

/**
 * FIFO queue on a power-of-two ring that doubles when full. It
 * allocates only while growing, so a queue that has reached its
 * working size never allocates again, where std::deque allocates and
 * frees a node every few elements as a queue streams through it. The
 * simulator's per-cycle request and completion queues use it.
 */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    const T &back() const { return buf_[slot(count_ - 1)]; }

    void
    push_back(const T &value)
    {
        if (count_ == buf_.size())
            grow();
        buf_[slot(count_++)] = value;
    }

    void
    pop_front()
    {
        head_ = slot(1);
        --count_;
    }

  private:
    std::size_t slot(std::size_t i) const
    { return (head_ + i) & (buf_.size() - 1); }

    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(16, 2 * buf_.size()));
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = buf_[slot(i)];
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace hsu

#endif // HSU_COMMON_FIFO_HH
