#ifndef REFLEX_CLIENT_PAGE_CACHE_H_
#define REFLEX_CLIENT_PAGE_CACHE_H_

#include <cstdint>
#include <array>
#include <memory>
#include <vector>

#include "client/storage_backend.h"
#include "sim/flat_index.h"
#include "sim/slot_pool.h"
#include "sim/task.h"

namespace reflex::client {

/**
 * A read-through LRU page cache over a storage backend, in the spirit
 * of SAFS (the user-space filesystem FlashX uses): fixed 4KB pages,
 * bounded outstanding I/O, and request deduplication so that
 * concurrent readers of one page trigger a single Flash access.
 */
class PageCache {
 public:
  static constexpr uint32_t kPageBytes = 4096;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t readaheads = 0;
    /** Fetches whose backend read failed (waiters received nullptr). */
    int64_t fetch_failures = 0;
    /** Fetches re-issued because the page was invalidated mid-fetch. */
    int64_t invalidated_refetches = 0;
  };

  /**
   * @param readahead_pages on a miss of page p, also fetch pages
   *        p+1 .. p+readahead_pages in the background (SAFS-style
   *        sequential readahead; 0 disables).
   */
  PageCache(sim::Simulator& sim, client::StorageBackend& backend,
            uint32_t capacity_pages, int max_outstanding = 64,
            int readahead_pages = 0);

  /**
   * Returns a pointer to the page containing `byte_offset` (rounded
   * down to a page boundary). Once the co_await returns, the pointer
   * is valid only until the caller suspends again, by any co_await at
   * all: any other process may then evict or invalidate the page, and
   * its buffer is recycled for another page. Copy or parse what you
   * need first. Resolves to nullptr if the backend read failed. The
   * cache does not retry: read retransmission belongs to the backend's
   * client library (ReflexClient::RetryPolicy, also reachable through
   * BlockDevice::Options::retry) or, over a cluster, to its
   * ClusterSession.
   */
  sim::Future<const uint8_t*> GetPage(uint64_t byte_offset);

  /**
   * Does to the cache exactly what GetPage(byte_offset) does -- the
   * index, the LRU order, the stats, the fetch and any readahead --
   * but nobody waits for the page: a prefetch hint costs no future and
   * no wake-up when the fetch lands.
   */
  void Prefetch(uint64_t byte_offset);

  /**
   * Drops any cached pages overlapping [byte_offset, byte_offset +
   * bytes). Callers must invalidate before re-using a storage range
   * for new data (e.g. the LSM store recycling a compacted extent).
   */
  void Invalidate(uint64_t byte_offset, uint64_t bytes);

  const Stats& stats() const { return stats_; }
  uint32_t capacity_pages() const { return capacity_pages_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /**
   * One page that is cached or being fetched (never both). Entries
   * live in `entries_` and are addressed by index, so a Fetch survives
   * the pool growing under it.
   */
  struct Entry {
    uint64_t page_id = 0;
    /** Buffer; nullptr until the fetch holds an I/O slot. */
    std::unique_ptr<uint8_t[]> data;
    /** Intrusive LRU links; used only while cached. */
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool cached = false;
    /** Fetched by readahead; a hit on it extends its stream. */
    bool stream = false;
    /**
     * Invalidated while being fetched: the outstanding read may return
     * pre-invalidation data, so the fetch re-reads the backend before
     * inserting the page.
     */
    bool invalidated = false;
    /** Readers queued behind the fetch: a FIFO list in `waiters_`. */
    uint32_t first_waiter = kNil;
    uint32_t last_waiter = kNil;
  };

  /** A reader waiting for a fetch; `next` links the entry's list. */
  struct Waiter {
    sim::Promise<const uint8_t*> promise;
    uint32_t next;
  };

  /**
   * GetPage and Prefetch: looks `page_id` up, fetching it on a miss.
   * `promise` (null for a prefetch) resolves with the page.
   */
  void Access(uint64_t page_id, sim::Promise<const uint8_t*>* promise);
  sim::Task Fetch(uint32_t entry);
  void AddWaiter(uint32_t entry, sim::Promise<const uint8_t*>&& promise);
  /** Resolves the entry's waiters, in arrival order, with `page`. */
  void ResolveWaiters(uint32_t entry, const uint8_t* page);
  void StartFetch(uint64_t page_id);
  void Touch(uint32_t entry);
  void EvictIfNeeded();

  std::unique_ptr<uint8_t[]> TakeBuffer();
  uint32_t NewEntry(uint64_t page_id);
  /** Unindexes the entry and recycles its buffer. */
  void FreeEntry(uint32_t entry);
  void LinkFront(uint32_t entry);
  void Unlink(uint32_t entry);

  sim::Simulator& sim_;
  client::StorageBackend& backend_;
  uint32_t capacity_pages_;
  int readahead_pages_;
  sim::Semaphore io_slots_;
  /** Recent miss pages, for sequential-pattern detection. */
  std::array<uint64_t, 8> recent_misses_{};
  size_t recent_cursor_ = 0;

  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  /** Page id -> index of its entry in `entries_`. */
  sim::FlatIndex index_;
  uint32_t lru_head_ = kNil;  // most recent
  uint32_t lru_tail_ = kNil;
  uint32_t cached_pages_ = 0;
  /**
   * Every queued reader, in recycled slots shared by all entries, so
   * the pool stops growing once it has held the most readers ever
   * waiting at once.
   */
  sim::SlotPool<Waiter> waiters_;
  /** Buffers of evicted or invalidated pages, reused by fetches. */
  std::vector<std::unique_ptr<uint8_t[]>> free_buffers_;
  Stats stats_;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_PAGE_CACHE_H_
