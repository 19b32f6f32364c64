// Equivalence of PageCache with the cache it replaced: std::map pages,
// a std::list LRU, a std::map of in-flight fetches and two std::sets
// (readahead-stream pages, pages invalidated mid-fetch). The new cache
// keeps one entry pool with an intrusive LRU, an open-addressed page
// index and recycled page buffers. The reference below is the old
// implementation kept verbatim but for two changes. It retires evicted
// buffers instead of freeing them, so a reader resumed later in the
// same instant can still read the bytes it was handed (test-only). And
// it lost its fetch retry loop together with PageCache: a failed
// backend read fails the fetch at once.
//
// Both caches run in separate but identical worlds (simulator, fake
// backend, fault plan) and are driven by the same seeded op stream:
// random hits and misses, sequential runs that trigger readahead,
// prefetches, writes plus Invalidate over cached, in-flight and
// readahead pages, and fetch failures drawn from a sim::FaultPlan. A
// prefetch is PageCache::Prefetch on the new cache and a GetPage whose
// future is dropped on the reference, so Prefetch must leave the same
// stats, backend reads and eviction order as a GetPage nobody awaits. After every step the
// Stats, the backend reads issued and the resolution log (which reader
// resolved, in what order, with which bytes or nullptr) must agree.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/page_cache.h"
#include "client/storage_backend.h"
#include "sim/fault.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::client {
namespace {

// --- Reference: the map/list/set cache ---

class RefPageCache {
 public:
  static constexpr uint32_t kPageBytes = PageCache::kPageBytes;
  using Stats = PageCache::Stats;

  RefPageCache(sim::Simulator& sim, StorageBackend& backend,
               uint32_t capacity_pages, int max_outstanding,
               int readahead_pages)
      : sim_(sim),
        backend_(backend),
        capacity_pages_(capacity_pages),
        readahead_pages_(readahead_pages),
        io_slots_(sim, max_outstanding) {}

  sim::Future<const uint8_t*> GetPage(uint64_t byte_offset) {
    const uint64_t page_id = byte_offset / kPageBytes;
    sim::Promise<const uint8_t*> promise(sim_);
    auto future = promise.GetFuture();

    auto stream_it = stream_pages_.find(page_id);
    if (stream_it != stream_pages_.end()) {
      stream_pages_.erase(stream_it);
      StartFetch(page_id + static_cast<uint64_t>(readahead_pages_));
    }

    auto it = pages_.find(page_id);
    if (it != pages_.end()) {
      ++stats_.hits;
      Touch(page_id, it->second);
      promise.Set(it->second.data.get());
      return future;
    }

    auto fl = in_flight_.find(page_id);
    if (fl != in_flight_.end()) {
      ++stats_.hits;
      fl->second.push_back(std::move(promise));
      return future;
    }

    ++stats_.misses;
    auto& waiters = in_flight_[page_id];
    waiters.push_back(std::move(promise));
    Fetch(page_id);
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
    return future;
  }

  void Invalidate(uint64_t byte_offset, uint64_t bytes) {
    const uint64_t first = byte_offset / kPageBytes;
    const uint64_t last =
        (byte_offset + bytes + kPageBytes - 1) / kPageBytes;
    for (uint64_t page = first; page < last; ++page) {
      auto it = pages_.find(page);
      if (it != pages_.end()) {
        lru_.erase(it->second.lru_it);
        retired_.push_back(std::move(it->second.data));
        pages_.erase(it);
      }
      stream_pages_.erase(page);
      if (in_flight_.count(page) > 0) invalidated_in_flight_.insert(page);
    }
  }

  const Stats& stats() const { return stats_; }

 private:
  struct PageEntry {
    std::unique_ptr<uint8_t[]> data;
    std::list<uint64_t>::iterator lru_it;
  };

  void StartFetch(uint64_t page_id) {
    if (pages_.count(page_id) > 0 || in_flight_.count(page_id) > 0) return;
    ++stats_.readaheads;
    stream_pages_.insert(page_id);
    in_flight_.emplace(page_id,
                       std::vector<sim::Promise<const uint8_t*>>());
    Fetch(page_id);
  }

  sim::Task Fetch(uint64_t page_id) {
    co_await io_slots_.Acquire();
    auto data = std::make_unique<uint8_t[]>(kPageBytes);
    IoResult r;
    for (;;) {
      r = co_await backend_.ReadBytes(page_id * kPageBytes, kPageBytes,
                                      data.get());
      if (invalidated_in_flight_.erase(page_id) == 0) break;
      ++stats_.invalidated_refetches;
    }
    io_slots_.Release();
    if (!r.ok()) {
      ++stats_.fetch_failures;
      auto fl = in_flight_.find(page_id);
      REFLEX_CHECK(fl != in_flight_.end());
      for (auto& waiter : fl->second) waiter.Set(nullptr);
      in_flight_.erase(fl);
      stream_pages_.erase(page_id);
      co_return;
    }

    EvictIfNeeded();
    PageEntry entry;
    entry.data = std::move(data);
    lru_.push_front(page_id);
    entry.lru_it = lru_.begin();
    const uint8_t* raw = entry.data.get();
    pages_.emplace(page_id, std::move(entry));

    auto fl = in_flight_.find(page_id);
    REFLEX_CHECK(fl != in_flight_.end());
    for (auto& waiter : fl->second) waiter.Set(raw);
    in_flight_.erase(fl);
  }

  void Touch(uint64_t page_id, PageEntry& entry) {
    lru_.erase(entry.lru_it);
    lru_.push_front(page_id);
    entry.lru_it = lru_.begin();
  }

  void EvictIfNeeded() {
    while (pages_.size() >= capacity_pages_) {
      const uint64_t victim = lru_.back();
      lru_.pop_back();
      retired_.push_back(std::move(pages_.at(victim).data));
      pages_.erase(victim);
      stream_pages_.erase(victim);
      ++stats_.evictions;
    }
  }

  sim::Simulator& sim_;
  StorageBackend& backend_;
  uint32_t capacity_pages_;
  int readahead_pages_;
  sim::Semaphore io_slots_;
  std::array<uint64_t, 8> recent_misses_{};
  size_t recent_cursor_ = 0;
  std::set<uint64_t> stream_pages_;
  std::map<uint64_t, PageEntry> pages_;
  std::list<uint64_t> lru_;
  std::map<uint64_t, std::vector<sim::Promise<const uint8_t*>>> in_flight_;
  std::set<uint64_t> invalidated_in_flight_;
  std::vector<std::unique_ptr<uint8_t[]>> retired_;
  Stats stats_;
};

// --- A world: simulator, fake backend, fault plan and one cache ---

/** Deterministic page contents: a function of page id and version. */
uint8_t PageByte(uint64_t page, uint32_t version, size_t i) {
  return static_cast<uint8_t>(page * 131 + version * 17 + i * 7);
}

uint64_t Fnv(const uint8_t* p) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < PageCache::kPageBytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/**
 * Serves 4 KB pages after a seeded latency. Writes are version bumps
 * applied at once (the store changes at submit time, as on the device),
 * and a read copies the version current at its completion. A read
 * fails when the fault plan rolls kFlashReadError for its page; half of
 * those failures complete synchronously, inside ReadBytes.
 */
class FakeBackend : public StorageBackend {
 public:
  FakeBackend(sim::Simulator& sim, sim::FaultPlan& plan, uint64_t seed)
      : sim_(sim), plan_(plan), rng_(seed) {}

  sim::Future<IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                  uint8_t* data) override {
    EXPECT_EQ(offset % PageCache::kPageBytes, 0u);
    EXPECT_EQ(bytes, PageCache::kPageBytes);
    const uint64_t page = offset / PageCache::kPageBytes;
    reads.push_back({sim_.Now(), page});
    sim::Promise<IoResult> promise(sim_);
    auto future = promise.GetFuture();
    IoResult r;
    r.issue_time = sim_.Now();
    if (plan_.Roll(sim::FaultKind::kFlashReadError, page)) {
      r.status = core::ReqStatus::kDeviceError;
      if (rng_.NextBernoulli(0.5)) {
        r.complete_time = sim_.Now();
        promise.Set(r);
        return future;
      }
    }
    const sim::TimeNs latency =
        sim::Micros(1) + static_cast<sim::TimeNs>(rng_.NextBounded(
                             static_cast<uint64_t>(sim::Micros(100))));
    sim_.ScheduleAfter(latency, [this, page, data, r,
                                 p = std::move(promise)]() mutable {
      if (r.ok()) {
        const uint32_t v = Version(page);
        for (size_t i = 0; i < PageCache::kPageBytes; ++i) {
          data[i] = PageByte(page, v, i);
        }
      }
      r.complete_time = sim_.Now();
      p.Set(r);
    });
    return future;
  }

  sim::Future<IoResult> WriteBytes(uint64_t, uint32_t,
                                   const uint8_t*) override {
    ADD_FAILURE() << "the cache never writes";
    return sim::Future<IoResult>();
  }

  uint64_t CapacityBytes() const override { return 1ull << 40; }
  const char* name() const override { return "fake"; }

  void Bump(uint64_t page) { ++versions_[page]; }

  struct Read {
    sim::TimeNs at;
    uint64_t page;
    bool operator==(const Read&) const = default;
  };
  std::vector<Read> reads;

 private:
  uint32_t Version(uint64_t page) const {
    auto it = versions_.find(page);
    return it == versions_.end() ? 0 : it->second;
  }

  sim::Simulator& sim_;
  sim::FaultPlan& plan_;
  sim::Rng rng_;
  std::map<uint64_t, uint32_t> versions_;
};

struct Resolution {
  int reader;
  bool null;
  uint64_t hash;
  sim::TimeNs at;
  bool operator==(const Resolution&) const = default;
};

sim::Task Watch(sim::Simulator& sim, sim::Future<const uint8_t*> f,
                int reader, std::vector<Resolution>* log) {
  const uint8_t* page = co_await f;
  log->push_back({reader, page == nullptr,
                  page == nullptr ? 0 : Fnv(page), sim.Now()});
}

struct Shape {
  std::string name;
  uint32_t capacity;
  int max_outstanding;
  int readahead;
  uint64_t working_set;  // pages
  double fail_prob;
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

template <typename Cache>
struct World {
  World(const Shape& s, uint64_t seed)
      : plan(sim, seed),
        backend(sim, plan, seed + 1),
        cache(sim, backend, s.capacity, s.max_outstanding, s.readahead) {
    plan.SetProbability(sim::FaultKind::kFlashReadError, s.fail_prob);
  }

  void Get(uint64_t byte_offset, int reader) {
    Watch(sim, cache.GetPage(byte_offset), reader, &log);
  }

  void Prefetch(uint64_t byte_offset) {
    if constexpr (std::is_same_v<Cache, PageCache>) {
      cache.Prefetch(byte_offset);
    } else {
      (void)cache.GetPage(byte_offset);
    }
  }

  void WriteAndInvalidate(uint64_t byte_offset, uint64_t bytes) {
    const uint64_t first = byte_offset / PageCache::kPageBytes;
    const uint64_t last =
        (byte_offset + bytes + PageCache::kPageBytes - 1) /
        PageCache::kPageBytes;
    for (uint64_t p = first; p < last; ++p) backend.Bump(p);
    cache.Invalidate(byte_offset, bytes);
  }

  sim::Simulator sim;
  sim::FaultPlan plan;
  FakeBackend backend;
  Cache cache;
  std::vector<Resolution> log;
};

void ExpectSameStats(const PageCache::Stats& a, const PageCache::Stats& b,
                     int step) {
  EXPECT_EQ(a.hits, b.hits) << "step " << step;
  EXPECT_EQ(a.misses, b.misses) << "step " << step;
  EXPECT_EQ(a.evictions, b.evictions) << "step " << step;
  EXPECT_EQ(a.readaheads, b.readaheads) << "step " << step;
  EXPECT_EQ(a.fetch_failures, b.fetch_failures) << "step " << step;
  EXPECT_EQ(a.invalidated_refetches, b.invalidated_refetches)
      << "step " << step;
}

class PageCacheEquivalenceTest : public ::testing::TestWithParam<Shape> {};

TEST_P(PageCacheEquivalenceTest, MatchesMapListReference) {
  const Shape& s = GetParam();
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto ref = std::make_unique<World<RefPageCache>>(s, seed);
    auto cur = std::make_unique<World<PageCache>>(s, seed);
    sim::Rng ops(seed * 7919);
    uint64_t seq_page = 0;
    int readers = 0;
    constexpr int kSteps = 2500;
    for (int step = 0; step < kSteps; ++step) {
      const uint64_t roll = ops.NextBounded(100);
      if (roll < 50) {
        // Random read anywhere in a page of the working set.
        const uint64_t off =
            ops.NextBounded(s.working_set * PageCache::kPageBytes);
        if (ops.NextBounded(4) == 0) {
          ref->Prefetch(off);
          cur->Prefetch(off);
        } else {
          ref->Get(off, readers);
          cur->Get(off, readers);
          ++readers;
        }
      } else if (roll < 65) {
        // Sequential run: misses on page p then p+1 trigger readahead,
        // and hits on readahead pages extend the stream.
        if (ops.NextBounded(8) == 0) {
          seq_page = ops.NextBounded(s.working_set);
        }
        const uint64_t off = seq_page * PageCache::kPageBytes;
        ref->Get(off, readers);
        cur->Get(off, readers);
        ++readers;
        seq_page = (seq_page + 1) % (s.working_set + 16);
      } else if (roll < 75) {
        // New data lands over a range (possibly unaligned) that may
        // hold cached, in-flight and readahead pages; invalidate it.
        const uint64_t off =
            ops.NextBounded((s.working_set + 8) * PageCache::kPageBytes);
        const uint64_t bytes =
            1 + ops.NextBounded(4 * PageCache::kPageBytes);
        ref->WriteAndInvalidate(off, bytes);
        cur->WriteAndInvalidate(off, bytes);
      } else if (roll < 80) {
        // Invalidate with no new data, sometimes of an idle range.
        const uint64_t page = ops.NextBounded(s.working_set + 32);
        const uint64_t pages = 1 + ops.NextBounded(3);
        ref->cache.Invalidate(page * PageCache::kPageBytes,
                              pages * PageCache::kPageBytes);
        cur->cache.Invalidate(page * PageCache::kPageBytes,
                              pages * PageCache::kPageBytes);
      } else {
        const sim::TimeNs until =
            ref->sim.Now() +
            static_cast<sim::TimeNs>(
                ops.NextBounded(static_cast<uint64_t>(sim::Micros(150))));
        ref->sim.RunUntil(until);
        cur->sim.RunUntil(until);
      }
      ASSERT_EQ(ref->sim.Now(), cur->sim.Now());
      ExpectSameStats(ref->cache.stats(), cur->cache.stats(), step);
      ASSERT_EQ(ref->backend.reads, cur->backend.reads) << "step " << step;
      ASSERT_EQ(ref->log, cur->log) << "step " << step;
    }
    ref->sim.Run();
    cur->sim.Run();
    ExpectSameStats(ref->cache.stats(), cur->cache.stats(), kSteps);
    ASSERT_EQ(ref->backend.reads, cur->backend.reads);
    ASSERT_EQ(ref->log, cur->log);
    // Every reader resolved, and the shape exercised what it claims.
    EXPECT_EQ(cur->log.size(), static_cast<size_t>(readers));
    const PageCache::Stats& st = cur->cache.stats();
    EXPECT_GT(st.hits, 0);
    EXPECT_GT(st.misses, 0);
    EXPECT_GT(st.invalidated_refetches, 0);
    if (s.capacity < s.working_set) {
      EXPECT_GT(st.evictions, 0);
    }
    if (s.readahead > 0) {
      EXPECT_GT(st.readaheads, 0);
    }
    if (s.fail_prob > 0) {
      EXPECT_GT(st.fetch_failures, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PageCacheEquivalenceTest,
    ::testing::Values(
        Shape{"Cap1Ra0Out64", 1, 64, 0, 16, 0.0},
        Shape{"Cap1Ra8Out1Faults", 1, 1, 8, 16, 0.1},
        Shape{"CapCoversSetRa0Out64", 64, 64, 0, 48, 0.0},
        Shape{"CapCoversSetRa8Out1", 64, 1, 8, 40, 0.0},
        Shape{"Cap16Ra8Out64Faults", 16, 64, 8, 200, 0.2},
        Shape{"Cap8Ra8Out64FailFast", 8, 64, 8, 64, 0.3},
        Shape{"Cap32Ra0Out4Faults", 32, 4, 0, 100, 0.1}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace reflex::client
