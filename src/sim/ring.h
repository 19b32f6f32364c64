#ifndef REFLEX_SIM_RING_H_
#define REFLEX_SIM_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace reflex::sim {

/**
 * Grow-only FIFO ring. Unlike std::deque, which frees and reallocates
 * a chunk every few hundred bytes of push/pop traffic, a ring that has
 * reached its high-water mark never touches the allocator again.
 * Capacity is a power of two and doubles when full; popping leaves a
 * moved-from value in the vacated slot.
 */
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[(head_ + size_ - 1) & (buf_.size() - 1)]; }

  void push_back(T value) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  /** Removes the oldest element and returns it. Requires !empty(). */
  T pop_front() {
    T out = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return out;
  }

 private:
  void Grow() {
    std::vector<T> next(buf_.empty() ? 1 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_RING_H_
