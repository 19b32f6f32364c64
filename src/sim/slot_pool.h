#ifndef REFLEX_SIM_SLOT_POOL_H_
#define REFLEX_SIM_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace reflex::sim {

/**
 * Recycled slot table for per-request state. A value lives in a slot
 * from Add() until Take() moves it out (or, for a value reused in
 * place, from Acquire() until Release()), and callbacks refer to it by
 * its 32-bit slot index, so a callback that captures a pointer plus
 * an index fits the simulator's inline event storage. Freed slots are
 * reused newest first; once the table has reached its high-water mark
 * the request path never allocates. A freed slot keeps the moved-from
 * value until it is reused.
 */
template <typename T>
class SlotPool {
 public:
  /** Stores `value` in a free slot and returns the slot's index. */
  uint32_t Add(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      // Room for every slot on the free list, so Take() never
      // allocates.
      free_.reserve(slots_.capacity());
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(value);
    return slot;
  }

  /**
   * Claims a free slot without assigning it: a recycled slot keeps the
   * value it held when released (a new one is default-constructed), so
   * vectors inside the value keep their capacity. Pair with Release().
   */
  uint32_t Acquire() {
    if (free_.empty()) {
      slots_.emplace_back();
      free_.reserve(slots_.capacity());
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  T& operator[](uint32_t slot) { return slots_[slot]; }
  const T& operator[](uint32_t slot) const { return slots_[slot]; }

  /** Moves the value out of `slot` and frees the slot. */
  T Take(uint32_t slot) {
    T out = std::move(slots_[slot]);
    Release(slot);
    return out;
  }

  /** Frees `slot`, leaving its value in place for the next Acquire(). */
  void Release(uint32_t slot) { free_.push_back(slot); }

  /** Slots currently holding a value. */
  size_t live() const { return slots_.size() - free_.size(); }

  /** Slots ever allocated (live or free); indices are below this. */
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_SLOT_POOL_H_
