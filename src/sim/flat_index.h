#ifndef REFLEX_SIM_FLAT_INDEX_H_
#define REFLEX_SIM_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace reflex::sim {

/**
 * Open-addressed map from a 64-bit key to a 32-bit value, typically
 * the index of an entry in a caller-owned pool (page ids in the page
 * cache, request cookies in the client). Power-of-two slot table,
 * Fibonacci hashing, linear probing and backward-shift deletion, so
 * no tombstones accumulate; the table doubles whenever an insert would
 * push the load above 1/2. Slot order is never exposed, so hash layout
 * cannot reach simulated behaviour.
 */
class FlatIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /** The value stored for `key`, or kNone. */
  uint32_t Find(uint64_t key) const;

  /** Maps `key` (which must be absent) to `value` (not kNone). */
  void Insert(uint64_t key, uint32_t value);

  /** Removes `key`, which must be present. */
  void Erase(uint64_t key);

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kNone;
  };

  size_t Home(uint64_t key) const {
    // Fibonacci hashing: keys are mostly dense runs, and the multiply
    // spreads them over the top bits.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void Place(const Slot& slot);

  std::vector<Slot> slots_;
  int shift_ = 0;
  size_t size_ = 0;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_FLAT_INDEX_H_
