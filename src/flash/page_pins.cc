#include "flash/page_pins.h"

#include <algorithm>
#include <cstring>

#include "sim/block_pool.h"

namespace reflex::flash {

PagePins::PagePins(uint32_t count, uint32_t first_offset, uint32_t bytes)
    : set_(static_cast<Set*>(sim::BlockPool::Allocate(SetBytes(count)))) {
  *set_ = Set{1, count, first_offset, bytes};
}

void PagePins::CopyTo(uint8_t* dst) const {
  StoredPage* const* pages = PagesOf(set_);
  uint32_t in_page = set_->first_offset;
  uint32_t remaining = set_->bytes;
  for (uint32_t i = 0; remaining > 0; ++i) {
    const uint32_t n = std::min(remaining, kStoredPageBytes - in_page);
    std::memcpy(dst, pages[i]->bytes + in_page, n);
    dst += n;
    remaining -= n;
    in_page = 0;
  }
}

void PagePins::Free(Set* set) {
  StoredPage** pages = PagesOf(set);
  for (uint32_t i = 0; i < set->count; ++i) Unref(pages[i]);
  sim::BlockPool::Release(set, SetBytes(set->count));
}

}  // namespace reflex::flash
