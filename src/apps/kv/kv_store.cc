#include "apps/kv/kv_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/logging.h"

namespace reflex::apps::kv {

namespace {
constexpr uint64_t kIoChunk = 256 * 1024;

/** L0 table count at which writers stall until compaction ends
 * (RocksDB's level0_stop_writes_trigger). */
constexpr int kL0StallTrigger = 8;

constexpr int kBloomBitsPerKey = 10;

// Modeled CPU costs.
constexpr sim::TimeNs kCpuPerGet = sim::Micros(8.0);
constexpr sim::TimeNs kCpuPerPut = sim::Micros(3.0);
constexpr sim::TimeNs kCpuPerCompactionEntry = 250;

uint64_t AlignUp4K(uint64_t v) { return (v + 4095) / 4096 * 4096; }
}  // namespace

KvStore::KvStore(sim::Simulator& sim, client::StorageBackend& backend,
                 Options options)
    : sim_(sim),
      backend_(backend),
      options_(options),
      block_cache_(sim, backend, options.block_cache_blocks,
                   /*max_outstanding=*/64),
      wal_block_(kBlockBytes, 0),
      alloc_cursor_(options.region_offset + options.wal_bytes),
      write_lock_(sim, 1) {
  REFLEX_CHECK(options_.region_offset % 4096 == 0);
  REFLEX_CHECK(options_.wal_bytes % 4096 == 0);
  REFLEX_CHECK(options_.region_bytes > options_.wal_bytes);
  REFLEX_CHECK(options_.l0_compaction_trigger >= 1);
}

uint64_t KvStore::AllocateExtent(uint64_t bytes) {
  bytes = AlignUp4K(bytes);
  for (size_t i = 0; i < free_extents_.size(); ++i) {
    if (free_extents_[i].second >= bytes) {
      const uint64_t offset = free_extents_[i].first;
      free_extents_[i].first += bytes;
      free_extents_[i].second -= bytes;
      if (free_extents_[i].second == 0) {
        free_extents_.erase(free_extents_.begin() +
                            static_cast<long>(i));
      }
      return offset;
    }
  }
  const uint64_t offset = alloc_cursor_;
  alloc_cursor_ += bytes;
  if (alloc_cursor_ >
      options_.region_offset + options_.region_bytes) {
    REFLEX_FATAL("KvStore region exhausted (%llu bytes)",
                 static_cast<unsigned long long>(options_.region_bytes));
  }
  return offset;
}

void KvStore::FreeExtent(uint64_t offset, uint64_t bytes) {
  free_extents_.emplace_back(offset, AlignUp4K(bytes));
}

sim::Future<bool> KvStore::Put(std::string key, std::string value) {
  sim::Promise<bool> promise(sim_);
  auto future = promise.GetFuture();
  PutTask(std::move(key), std::move(value), /*tombstone=*/false,
          std::move(promise));
  return future;
}

sim::Future<bool> KvStore::Delete(std::string key) {
  sim::Promise<bool> promise(sim_);
  auto future = promise.GetFuture();
  PutTask(std::move(key), std::string(), /*tombstone=*/true,
          std::move(promise));
  return future;
}

sim::Task KvStore::PutTask(std::string key, std::string value,
                           bool tombstone, sim::Promise<bool> promise) {
  co_await write_lock_.Acquire();
  if (tombstone) {
    ++stats_.deletes;
  } else {
    ++stats_.puts;
  }
  co_await sim::Delay(sim_, kCpuPerPut);

  // WAL append: stage the record into the current 4KB WAL block and
  // rewrite that block in place (fdatasync-per-write semantics).
  if (wal_enabled_) {
    const uint64_t rec = 4 + key.size() + value.size();
    REFLEX_CHECK(rec <= kBlockBytes);
    if (wal_block_used_ + rec > kBlockBytes) {
      wal_head_ = (wal_head_ + kBlockBytes) % options_.wal_bytes;
      wal_block_used_ = 0;
      std::fill(wal_block_.begin(), wal_block_.end(), 0);
    }
    const auto klen = static_cast<uint16_t>(key.size());
    const uint16_t vlen =
        tombstone ? kTombstoneVlen : static_cast<uint16_t>(value.size());
    std::memcpy(wal_block_.data() + wal_block_used_, &klen, 2);
    std::memcpy(wal_block_.data() + wal_block_used_ + 2, &vlen, 2);
    std::memcpy(wal_block_.data() + wal_block_used_ + 4, key.data(), klen);
    std::memcpy(wal_block_.data() + wal_block_used_ + 4 + klen,
                value.data(), value.size());
    wal_block_used_ += static_cast<uint32_t>(rec);
    ++stats_.wal_appends;
    client::IoResult w = co_await backend_.WriteBytes(
        options_.region_offset + wal_head_, kBlockBytes,
        wal_block_.data());
    if (!w.ok()) {
      write_lock_.Release();
      promise.Set(false);
      co_return;
    }
  }

  memtable_size_bytes_ += key.size() + value.size() + 32;
  memtable_[std::move(key)] = MemValue{tombstone, std::move(value)};

  if (memtable_size_bytes_ >= options_.memtable_bytes) {
    sim::VoidPromise flushed(sim_);
    auto flushed_future = flushed.GetFuture();
    FlushTask(std::move(flushed));
    co_await flushed_future;
  }
  write_lock_.Release();
  promise.Set(true);
}

sim::VoidFuture KvStore::Flush() {
  sim::VoidPromise promise(sim_);
  auto future = promise.GetFuture();
  [](KvStore* self, sim::VoidPromise p) -> sim::Task {
    co_await self->write_lock_.Acquire();
    sim::VoidPromise inner(self->sim_);
    auto inner_future = inner.GetFuture();
    self->FlushTask(std::move(inner));
    co_await inner_future;
    self->write_lock_.Release();
    p.Set(sim::Unit{});
  }(this, std::move(promise));
  return future;
}

sim::Task KvStore::FlushTask(sim::VoidPromise promise) {
  if (memtable_.empty()) {
    promise.Set(sim::Unit{});
    co_return;
  }
  // RocksDB-style write stall: too many L0 tables => wait for the
  // background compaction to catch up before flushing more.
  while (static_cast<int>(l0_.size()) >= kL0StallTrigger && compacting_) {
    sim::VoidPromise waiter(sim_);
    auto waiter_future = waiter.GetFuture();
    compaction_waiters_.push_back(std::move(waiter));
    co_await waiter_future;
  }

  // The flushing memtable stays readable until its L0 table is
  // installed: a Get in between must not fall through to an older
  // version of the key.
  flushing_ = std::move(memtable_);
  memtable_.clear();
  memtable_size_bytes_ = 0;
  std::vector<KvEntry> entries;
  entries.reserve(flushing_.size());
  for (auto& [k, v] : flushing_) {
    entries.push_back(KvEntry{k, v.value, v.tombstone});
  }

  sim::Promise<TableRef> table_promise(sim_);
  auto table_future = table_promise.GetFuture();
  WriteTable(std::move(entries), std::move(table_promise));
  TableRef table = co_await table_future;
  l0_.push_back(table);
  flushing_.clear();
  ++stats_.memtable_flushes;
  stats_.bytes_flushed += static_cast<int64_t>(table->data_bytes);

  // Kick a background compaction (it does not block the writer).
  if (static_cast<int>(l0_.size()) >= options_.l0_compaction_trigger &&
      !compacting_) {
    compacting_ = true;
    sim::VoidPromise compacted(sim_);
    CompactTask(std::move(compacted));
  }
  promise.Set(sim::Unit{});
}

sim::VoidFuture KvStore::WaitCompactionIdle() {
  sim::VoidPromise promise(sim_);
  auto future = promise.GetFuture();
  if (!compacting_) {
    promise.Set(sim::Unit{});
  } else {
    compaction_waiters_.push_back(std::move(promise));
  }
  return future;
}

sim::Task KvStore::WriteTable(std::vector<KvEntry> entries,
                              sim::Promise<TableRef> promise) {
  auto meta = std::make_shared<SSTableMeta>();
  std::vector<uint8_t> image =
      BuildSSTableImage(entries, kBloomBitsPerKey, meta.get());
  meta->id = next_table_id_++;
  meta->extent_bytes = AlignUp4K(image.size());
  meta->extent_offset = AllocateExtent(meta->extent_bytes);
  // The extent may recycle a compacted table's blocks: drop stale
  // cache entries before new data becomes visible.
  block_cache_.Invalidate(meta->extent_offset, meta->extent_bytes);

  // Pipeline the flush: keep several large writes in flight, as
  // RocksDB's background flush threads do.
  std::deque<sim::Future<client::IoResult>> inflight;
  for (uint64_t off = 0; off < image.size(); off += kIoChunk) {
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(kIoChunk, image.size() - off));
    inflight.push_back(backend_.WriteBytes(meta->extent_offset + off, n,
                                           image.data() + off));
    if (inflight.size() >= 8) {
      client::IoResult r = co_await inflight.front();
      inflight.pop_front();
      if (!r.ok()) REFLEX_PANIC("sstable write failed");
    }
  }
  while (!inflight.empty()) {
    client::IoResult r = co_await inflight.front();
    inflight.pop_front();
    if (!r.ok()) REFLEX_PANIC("sstable write failed");
  }
  promise.Set(std::move(meta));
}

sim::Task KvStore::ReadAllEntries(TableRef table, std::vector<KvEntry>* out,
                                  sim::VoidPromise promise) {
  // Compaction reads bypass the block cache (as RocksDB does) and use
  // large sequential I/Os.
  std::vector<uint8_t> buf(table->data_bytes);
  std::deque<sim::Future<client::IoResult>> inflight;
  for (uint64_t off = 0; off < buf.size(); off += kIoChunk) {
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(kIoChunk, buf.size() - off));
    inflight.push_back(backend_.ReadBytes(table->extent_offset + off, n,
                                          buf.data() + off));
    if (inflight.size() >= 8) {
      client::IoResult r = co_await inflight.front();
      inflight.pop_front();
      if (!r.ok()) REFLEX_PANIC("sstable read failed");
    }
  }
  while (!inflight.empty()) {
    client::IoResult r = co_await inflight.front();
    inflight.pop_front();
    if (!r.ok()) REFLEX_PANIC("sstable read failed");
  }
  for (uint64_t b = 0; b + kBlockBytes <= buf.size(); b += kBlockBytes) {
    std::vector<KvEntry> block = ParseBlock(buf.data() + b);
    for (auto& e : block) out->push_back(std::move(e));
  }
  promise.Set(sim::Unit{});
}

sim::Task KvStore::CompactTask(sim::VoidPromise promise) {
  ++stats_.compactions;
  // Merge priority: newer L0 tables override older ones; L0 overrides
  // L1. Insert lowest priority first into an ordered map. The input
  // set is snapshotted: L0 tables flushed while this background
  // compaction runs are left for the next one.
  std::map<std::string, KvEntry> merged;
  std::vector<TableRef> inputs;
  const size_t l0_snapshot = l0_.size();
  for (const TableRef& t : l1_) inputs.push_back(t);
  for (const TableRef& t : l0_) inputs.push_back(t);  // oldest..newest

  int64_t total_entries = 0;
  for (const TableRef& t : inputs) {
    std::vector<KvEntry> entries;
    sim::VoidPromise read_done(sim_);
    auto read_future = read_done.GetFuture();
    ReadAllEntries(t, &entries, std::move(read_done));
    co_await read_future;
    for (auto& e : entries) {
      std::string k = e.key;
      merged[std::move(k)] = std::move(e);
    }
    total_entries += static_cast<int64_t>(entries.size());
    stats_.bytes_compacted += static_cast<int64_t>(t->data_bytes);
  }
  co_await sim::Delay(sim_, kCpuPerCompactionEntry * total_entries);

  // Split the merged run into ~8MB L1 tables.
  constexpr uint64_t kTargetTableBytes = 8ULL << 20;
  std::vector<TableRef> new_l1;
  std::vector<KvEntry> current;
  uint64_t current_bytes = 0;
  auto flush_current = [&]() -> sim::Future<TableRef> {
    sim::Promise<TableRef> p(sim_);
    auto f = p.GetFuture();
    WriteTable(std::move(current), std::move(p));
    current.clear();
    current_bytes = 0;
    return f;
  };
  for (auto& [k, v] : merged) {
    // This full merge rewrites the bottom level, so tombstones have
    // shadowed every older version and can be dropped for good.
    if (v.tombstone) continue;
    current_bytes += k.size() + v.value.size() + 4;
    current.push_back(KvEntry{k, v.value, false});
    if (current_bytes >= kTargetTableBytes) {
      new_l1.push_back(co_await flush_current());
    }
  }
  if (!current.empty()) new_l1.push_back(co_await flush_current());

  // Retire inputs. Extents are freed now; readers that still hold a
  // TableRef keep the metadata alive, and WriteTable invalidates the
  // block cache before any recycled extent is rewritten.
  for (const TableRef& t : inputs) {
    FreeExtent(t->extent_offset, t->extent_bytes);
  }
  // Keep L0 tables that arrived after the snapshot.
  l0_.erase(l0_.begin(), l0_.begin() + static_cast<long>(l0_snapshot));
  l1_ = std::move(new_l1);
  compacting_ = false;
  for (auto& waiter : compaction_waiters_) waiter.Set(sim::Unit{});
  compaction_waiters_.clear();
  promise.Set(sim::Unit{});
}

sim::Future<GetResult> KvStore::Get(std::string key) {
  sim::Promise<GetResult> promise(sim_);
  auto future = promise.GetFuture();
  GetTask(std::move(key), std::move(promise));
  return future;
}

sim::Task KvStore::GetTask(std::string key,
                           sim::Promise<GetResult> promise) {
  ++stats_.gets;
  co_await sim::Delay(sim_, kCpuPerGet);

  GetResult result;
  // Memtable, then the memtable being flushed (checked synchronously:
  // a consistent snapshot).
  for (const auto* mem : {&memtable_, &flushing_}) {
    auto mt = mem->find(key);
    if (mt == mem->end()) continue;
    if (!mt->second.tombstone) {
      result.found = true;
      result.value = mt->second.value;
      ++stats_.hits;
    }
    promise.Set(std::move(result));
    co_return;
  }

  // Snapshot table references so compaction cannot pull them away.
  std::vector<TableRef> candidates;
  for (auto it = l0_.rbegin(); it != l0_.rend(); ++it) {
    candidates.push_back(*it);  // newest L0 first
  }
  for (const TableRef& t : l1_) {
    if (key >= t->first_key && key <= t->last_key) candidates.push_back(t);
  }

  for (const TableRef& t : candidates) {
    bool found = false;
    bool tombstone = false;
    std::string value;
    sim::VoidPromise searched(sim_);
    auto searched_future = searched.GetFuture();
    SearchTable(t, key, &found, &tombstone, &value, std::move(searched));
    co_await searched_future;
    if (tombstone) break;  // deleted: newer tables already checked
    if (found) {
      result.found = true;
      result.value = std::move(value);
      ++stats_.hits;
      break;
    }
  }
  promise.Set(std::move(result));
}

sim::Task KvStore::SearchTable(TableRef table, std::string key, bool* found,
                               bool* tombstone_out, std::string* value_out,
                               sim::VoidPromise promise) {
  if (key < table->first_key || key > table->last_key ||
      !table->bloom->MayContain(key)) {
    ++stats_.bloom_skips;
    promise.Set(sim::Unit{});
    co_return;
  }
  const int block = table->FindBlock(key);
  if (block < 0) {
    promise.Set(sim::Unit{});
    co_return;
  }
  ++stats_.block_reads;
  const uint8_t* page = co_await block_cache_.GetPage(
      table->extent_offset + static_cast<uint64_t>(block) * kBlockBytes);
  // SSTable blocks have no replica to fall back to: treat persistent
  // storage failure as fatal.
  REFLEX_CHECK(page != nullptr);
  // Parse before the search delay: the page pointer is only valid
  // until this task next suspends (a concurrent fetch may evict it).
  std::vector<KvEntry> entries = ParseBlock(page);
  co_await sim::Delay(sim_, options_.cpu_per_block_search);
  const KvEntry* e = FindInBlock(entries, key);
  if (e != nullptr) {
    if (e->tombstone) {
      *tombstone_out = true;
    } else {
      *found = true;
      *value_out = e->value;
    }
  }
  promise.Set(sim::Unit{});
}

}  // namespace reflex::apps::kv
