#ifndef REFLEX_FLASH_PAGE_PINS_H_
#define REFLEX_FLASH_PAGE_PINS_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace reflex::flash {

/** Bytes in one page of the device's data store. */
inline constexpr uint32_t kStoredPageBytes = 4096;

/**
 * One page of a FlashDevice's data store, under a reference count: the
 * store holds one reference and every read that pinned the page holds
 * another. A write never changes a page someone else holds; it first
 * gives the store a copy of its own (copy-on-write). The last reference
 * frees the page, so a pin never refers back to its device.
 */
struct StoredPage {
  uint8_t bytes[kStoredPageBytes];
  uint32_t refs = 1;
};

/** Drops one reference to `page`; the last one frees it. */
inline void Unref(StoredPage* page) {
  if (--page->refs == 0) delete page;
}

/**
 * The bytes of one read, pinned when the read was submitted: a
 * reference to every stored page the read covers (a never-written page
 * is the device's shared zero page), plus where the read starts in the
 * first page and how many bytes it covers. The pins travel with the
 * read's completion and its response and are copied out once, into
 * the buffer of whoever asked for the data; later writes cannot change
 * what they deliver.
 *
 * Copies share one pin set, so copying a completion or a response
 * allocates nothing. The set itself lives in a recycled pool block
 * (sim::BlockPool). Empty for a timing-only or failed read.
 */
class PagePins {
 public:
  PagePins() = default;
  PagePins(const PagePins& other) noexcept : set_(other.set_) {
    if (set_ != nullptr) ++set_->refs;
  }
  PagePins(PagePins&& other) noexcept
      : set_(std::exchange(other.set_, nullptr)) {}
  PagePins& operator=(PagePins other) noexcept {
    std::swap(set_, other.set_);
    return *this;
  }
  ~PagePins() {
    if (set_ != nullptr && --set_->refs == 0) Free(set_);
  }

  explicit operator bool() const { return set_ != nullptr; }

  /** Bytes the pinned read covers. */
  uint32_t bytes() const { return set_ == nullptr ? 0 : set_->bytes; }

  /** Copies the pinned bytes, bytes() of them, to `dst`. */
  void CopyTo(uint8_t* dst) const;

 private:
  friend class FlashDevice;

  /** Header of a pin set; `count` page pointers follow it. */
  struct Set {
    uint32_t refs;
    uint32_t count;
    /** Offset of the read's first byte in its first page. */
    uint32_t first_offset;
    uint32_t bytes;
  };

  /**
   * An unfilled set for a read of `bytes` starting `first_offset` into
   * its first of `count` pages; the device fills pages().
   */
  PagePins(uint32_t count, uint32_t first_offset, uint32_t bytes);

  static StoredPage** PagesOf(Set* set) {
    return reinterpret_cast<StoredPage**>(set + 1);
  }
  StoredPage** pages() { return PagesOf(set_); }
  static size_t SetBytes(uint32_t count) {
    return sizeof(Set) + count * sizeof(StoredPage*);
  }
  /** Drops the set's page references and recycles its block. */
  static void Free(Set* set);

  Set* set_ = nullptr;
};

}  // namespace reflex::flash

#endif  // REFLEX_FLASH_PAGE_PINS_H_
