#include "sim/flat_index.h"

#include <bit>

#include "sim/logging.h"

namespace reflex::sim {

uint32_t FlatIndex::Find(uint64_t key) const {
  if (slots_.empty()) return kNone;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.value == kNone || s.key == key) return s.value;
  }
}

void FlatIndex::Insert(uint64_t key, uint32_t value) {
  REFLEX_CHECK(value != kNone);
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& s : old) {
      if (s.value != kNone) Place(s);
    }
  }
  Place(Slot{key, value});
  ++size_;
}

void FlatIndex::Place(const Slot& slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(slot.key);
  while (slots_[i].value != kNone) i = (i + 1) & mask;
  slots_[i] = slot;
}

void FlatIndex::Erase(uint64_t key) {
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(key);
  while (slots_[hole].key != key || slots_[hole].value == kNone) {
    REFLEX_CHECK(slots_[hole].value != kNone);
    hole = (hole + 1) & mask;
  }
  // Backward-shift delete: pull later members of the probe run into
  // the hole when the hole lies between their home and their slot, so
  // no tombstones are needed.
  for (size_t i = (hole + 1) & mask; slots_[i].value != kNone;
       i = (i + 1) & mask) {
    const size_t home = Home(slots_[i].key);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

}  // namespace reflex::sim
