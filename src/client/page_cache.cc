#include "client/page_cache.h"

#include <utility>

#include "sim/logging.h"

namespace reflex::client {

PageCache::PageCache(sim::Simulator& sim, client::StorageBackend& backend,
                     uint32_t capacity_pages, int max_outstanding,
                     int readahead_pages)
    : sim_(sim),
      backend_(backend),
      capacity_pages_(capacity_pages),
      readahead_pages_(readahead_pages),
      io_slots_(sim, max_outstanding) {
  REFLEX_CHECK(capacity_pages >= 1);
  REFLEX_CHECK(readahead_pages >= 0);
}

sim::Future<const uint8_t*> PageCache::GetPage(uint64_t byte_offset) {
  sim::Promise<const uint8_t*> promise(sim_);
  auto future = promise.GetFuture();
  Access(byte_offset / kPageBytes, &promise);
  return future;
}

void PageCache::Prefetch(uint64_t byte_offset) {
  Access(byte_offset / kPageBytes, nullptr);
}

void PageCache::Access(uint64_t page_id,
                       sim::Promise<const uint8_t*>* promise) {
  uint32_t e = index_.Find(page_id);
  // A hit on a readahead-produced page extends its stream so that
  // steady sequential consumption never stalls.
  if (e != kNil && entries_[e].stream) {
    entries_[e].stream = false;
    StartFetch(page_id + static_cast<uint64_t>(readahead_pages_));
    // A backend that completes inline lets that fetch insert (and so
    // evict) before StartFetch returns: look the page up again.
    e = index_.Find(page_id);
  }

  if (e != kNil) {
    // Cached, or a fetch is already outstanding and this reader waits
    // for it. Both count as hits: one Flash access serves all readers.
    ++stats_.hits;
    Entry& entry = entries_[e];
    if (entry.cached) {
      Touch(e);
      if (promise != nullptr) promise->Set(entry.data.get());
    } else if (promise != nullptr) {
      AddWaiter(e, std::move(*promise));
    }
    return;
  }

  ++stats_.misses;
  e = NewEntry(page_id);
  if (promise != nullptr) AddWaiter(e, std::move(*promise));
  Fetch(e);
  // Readahead only on sequential misses (the page following a recent
  // miss), so random access patterns do not flood the device.
  bool sequential = false;
  for (uint64_t recent : recent_misses_) {
    if (page_id == recent + 1) {
      sequential = true;
      break;
    }
  }
  recent_misses_[recent_cursor_] = page_id;
  recent_cursor_ = (recent_cursor_ + 1) % recent_misses_.size();
  if (sequential) {
    for (int i = 1; i <= readahead_pages_; ++i) {
      StartFetch(page_id + static_cast<uint64_t>(i));
    }
  }
}

void PageCache::StartFetch(uint64_t page_id) {
  if (index_.Find(page_id) != kNil) return;
  ++stats_.readaheads;
  const uint32_t e = NewEntry(page_id);
  entries_[e].stream = true;
  Fetch(e);
}

sim::Task PageCache::Fetch(uint32_t e) {
  co_await io_slots_.Acquire();
  entries_[e].data = TakeBuffer();
  uint8_t* const data = entries_[e].data.get();
  const uint64_t offset = entries_[e].page_id * kPageBytes;
  client::IoResult r;
  for (;;) {
    r = co_await backend_.ReadBytes(offset, kPageBytes, data);
    Entry& entry = entries_[e];
    // If the range was invalidated while this read was outstanding,
    // the buffer may hold pre-invalidation data: re-read.
    if (!entry.invalidated) break;
    entry.invalidated = false;
    ++stats_.invalidated_refetches;
  }
  io_slots_.Release();
  if (!r.ok()) {
    // Surface the failure to the waiters instead of panicking the
    // whole simulation; callers decide whether a missing page is
    // fatal.
    ++stats_.fetch_failures;
    ResolveWaiters(e, nullptr);
    FreeEntry(e);
    co_return;
  }

  EvictIfNeeded();
  Entry& entry = entries_[e];
  entry.cached = true;
  ++cached_pages_;
  LinkFront(e);
  ResolveWaiters(e, data);
}

void PageCache::AddWaiter(uint32_t e,
                          sim::Promise<const uint8_t*>&& promise) {
  const uint32_t w = waiters_.Add(Waiter{std::move(promise), kNil});
  Entry& entry = entries_[e];
  if (entry.last_waiter == kNil) {
    entry.first_waiter = w;
  } else {
    waiters_[entry.last_waiter].next = w;
  }
  entry.last_waiter = w;
}

void PageCache::ResolveWaiters(uint32_t e, const uint8_t* page) {
  uint32_t w = std::exchange(entries_[e].first_waiter, kNil);
  entries_[e].last_waiter = kNil;
  while (w != kNil) {
    Waiter waiter = waiters_.Take(w);
    w = waiter.next;
    waiter.promise.Set(page);
  }
}

void PageCache::Invalidate(uint64_t byte_offset, uint64_t bytes) {
  const uint64_t first = byte_offset / kPageBytes;
  const uint64_t last = (byte_offset + bytes + kPageBytes - 1) / kPageBytes;
  for (uint64_t page = first; page < last; ++page) {
    const uint32_t e = index_.Find(page);
    if (e == kNil) continue;
    Entry& entry = entries_[e];
    if (entry.cached) {
      Unlink(e);
      --cached_pages_;
      FreeEntry(e);
      continue;
    }
    // A page being fetched right now may complete with data read
    // before this invalidation; flag it so the fetch re-reads instead
    // of inserting stale bytes. Also forget any readahead-stream
    // claim on the range.
    entry.stream = false;
    entry.invalidated = true;
  }
}

void PageCache::Touch(uint32_t e) {
  if (lru_head_ == e) return;
  Unlink(e);
  LinkFront(e);
}

void PageCache::EvictIfNeeded() {
  while (cached_pages_ >= capacity_pages_) {
    const uint32_t victim = lru_tail_;
    Unlink(victim);
    --cached_pages_;
    FreeEntry(victim);
    ++stats_.evictions;
  }
}

uint32_t PageCache::NewEntry(uint64_t page_id) {
  uint32_t e;
  if (free_entries_.empty()) {
    e = static_cast<uint32_t>(entries_.size());
    REFLEX_CHECK(e != kNil);
    entries_.emplace_back();
  } else {
    e = free_entries_.back();
    free_entries_.pop_back();
  }
  entries_[e].page_id = page_id;
  index_.Insert(page_id, e);
  return e;
}

std::unique_ptr<uint8_t[]> PageCache::TakeBuffer() {
  // Recycling bounds live buffers by capacity_pages + max_outstanding:
  // one is taken only by a fetch holding an I/O slot, and a new one
  // only when every earlier one is cached or fetching.
  if (free_buffers_.empty()) return std::make_unique<uint8_t[]>(kPageBytes);
  std::unique_ptr<uint8_t[]> buffer = std::move(free_buffers_.back());
  free_buffers_.pop_back();
  return buffer;
}

void PageCache::FreeEntry(uint32_t e) {
  Entry& entry = entries_[e];
  index_.Erase(entry.page_id);
  if (entry.data != nullptr) free_buffers_.push_back(std::move(entry.data));
  entry.cached = false;
  entry.stream = false;
  entry.invalidated = false;
  free_entries_.push_back(e);
}

void PageCache::LinkFront(uint32_t e) {
  Entry& entry = entries_[e];
  entry.prev = kNil;
  entry.next = lru_head_;
  if (lru_head_ != kNil) {
    entries_[lru_head_].prev = e;
  } else {
    lru_tail_ = e;
  }
  lru_head_ = e;
}

void PageCache::Unlink(uint32_t e) {
  Entry& entry = entries_[e];
  if (entry.prev != kNil) {
    entries_[entry.prev].next = entry.next;
  } else {
    lru_head_ = entry.next;
  }
  if (entry.next != kNil) {
    entries_[entry.next].prev = entry.prev;
  } else {
    lru_tail_ = entry.prev;
  }
  entry.prev = kNil;
  entry.next = kNil;
}

}  // namespace reflex::client
