#include "apps/kv/kv_store.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "sim/logging.h"

namespace reflex::apps::kv {

namespace {

/** L0 table count at which writers stall until compaction ends
 * (RocksDB's level0_stop_writes_trigger). */
constexpr int kL0StallTrigger = 8;

constexpr int kBloomBitsPerKey = 10;

/** Large reads or writes in flight per table stream, as in RocksDB's
 * background flush and compaction threads. */
constexpr size_t kIoDepth = 8;

/** A compaction output is cut once its records' key + value + 4 bytes
 * reach this. */
constexpr uint64_t kTargetTableBytes = 8ULL << 20;

// Modeled CPU costs.
constexpr sim::TimeNs kCpuPerGet = sim::Micros(8.0);
constexpr sim::TimeNs kCpuPerPut = sim::Micros(3.0);
constexpr sim::TimeNs kCpuPerCompactionEntry = 250;

uint64_t AlignUp4K(uint64_t v) { return (v + 4095) / 4096 * 4096; }

/**
 * One sorted run of compaction input, read in kIoChunk pieces while it
 * is merged: its tables in order, each from its first piece to its
 * last. Besides the piece being walked, up to kIoDepth reads are
 * outstanding, and a piece is freed as soon as the walk moves past it.
 * Compaction reads bypass the block cache, as RocksDB's do.
 */
class InputRun {
 public:
  InputRun(client::StorageBackend& backend,
           std::span<const KvStore::TableRef> tables)
      : backend_(backend), tables_(tables) {
    Issue();
    done_ = pieces_.empty();
  }

  /** The read to await before head() is valid; null once it is (or
   * once the run is done). */
  sim::Future<client::IoResult>* pending_read() {
    return walking_ || done_ ? nullptr : &pieces_.front().read;
  }
  /** Starts walking the front piece, whose read has completed. */
  void Landed() {
    const Piece& front = pieces_.front();
    walker_ = RecordWalker(front.bytes.get(), front.size);
    walking_ = true;
    Issue();
    Advance();
  }

  bool done() const { return done_; }
  /** The current record, a view of the piece being walked. */
  const BlockRecord& head() const { return head_; }

  /** Moves to the next record. Past the last record of a piece it
   * frees the piece; the next one must land before head() is valid. */
  void Advance() {
    if (walker_.Next(&head_)) return;
    pieces_.pop_front();
    walking_ = false;
    done_ = pieces_.empty();
  }

 private:
  struct Piece {
    std::unique_ptr<uint8_t[]> bytes;
    uint32_t size;
    sim::Future<client::IoResult> read;
  };

  /** Reads the next pieces in table order until kIoDepth are pending. */
  void Issue() {
    while (pieces_.size() - walking_ < kIoDepth &&
           next_table_ < tables_.size()) {
      const SSTableMeta& table = *tables_[next_table_];
      const auto n = static_cast<uint32_t>(
          std::min<uint64_t>(kIoChunk, table.data_bytes - next_offset_));
      std::unique_ptr<uint8_t[]> bytes(new uint8_t[n]);
      sim::Future<client::IoResult> read = backend_.ReadBytes(
          table.extent_offset + next_offset_, n, bytes.get());
      pieces_.push_back(Piece{std::move(bytes), n, std::move(read)});
      next_offset_ += n;
      if (next_offset_ == table.data_bytes) {
        ++next_table_;
        next_offset_ = 0;
      }
    }
  }

  client::StorageBackend& backend_;
  std::span<const KvStore::TableRef> tables_;
  size_t next_table_ = 0;  // the next piece to read: table, offset in it
  uint64_t next_offset_ = 0;
  std::deque<Piece> pieces_;  // in table order; the front is walked
  bool walking_ = false;
  bool done_ = false;
  RecordWalker walker_{nullptr, 0};
  BlockRecord head_;
};

}  // namespace

KvStore::KvStore(sim::Simulator& sim, client::StorageBackend& backend,
                 Options options)
    : sim_(sim),
      backend_(backend),
      options_(options),
      block_cache_(sim, backend, options.block_cache_blocks,
                   /*max_outstanding=*/64),
      wal_block_(kBlockBytes, 0),
      extents_(options.region_offset + options.wal_bytes,
               options.region_offset + options.region_bytes),
      write_lock_(sim, 1) {
  REFLEX_CHECK(options_.region_offset % 4096 == 0);
  REFLEX_CHECK(options_.wal_bytes % 4096 == 0);
  REFLEX_CHECK(options_.region_bytes > options_.wal_bytes);
  REFLEX_CHECK(options_.l0_compaction_trigger >= 1);
}

ExtentAllocator::ExtentAllocator(uint64_t begin, uint64_t end)
    : begin_(begin), end_(end), cursor_(begin) {
  REFLEX_CHECK(begin % 4096 == 0 && begin <= end);
}

uint64_t ExtentAllocator::Allocate(uint64_t bytes) {
  bytes = AlignUp4K(bytes);
  for (auto it = holes_.begin(); it != holes_.end(); ++it) {
    if (it->second < bytes) continue;
    const uint64_t offset = it->first;
    it->first += bytes;
    it->second -= bytes;
    if (it->second == 0) holes_.erase(it);
    return offset;
  }
  if (bytes > end_ - cursor_) {
    REFLEX_FATAL("KvStore region exhausted (%llu bytes of tables)",
                 static_cast<unsigned long long>(end_ - begin_));
  }
  const uint64_t offset = cursor_;
  cursor_ += bytes;
  return offset;
}

void ExtentAllocator::Free(uint64_t offset, uint64_t bytes) {
  uint64_t end = offset + AlignUp4K(bytes);
  REFLEX_CHECK(offset >= begin_ && end <= cursor_);
  auto next = std::lower_bound(
      holes_.begin(), holes_.end(), offset,
      [](const std::pair<uint64_t, uint64_t>& h, uint64_t o) {
        return h.first < o;
      });
  REFLEX_CHECK(next == holes_.end() || end <= next->first);
  // Absorb the holes that touch the freed extent on either side.
  if (next != holes_.end() && next->first == end) {
    end += next->second;
    next = holes_.erase(next);
  }
  if (next != holes_.begin()) {
    const auto prev = next - 1;
    REFLEX_CHECK(prev->first + prev->second <= offset);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      next = holes_.erase(prev);
    }
  }
  if (end == cursor_) {
    cursor_ = offset;
  } else {
    holes_.insert(next, {offset, end - offset});
  }
}

uint64_t KvStore::AllocateExtent(uint64_t bytes) {
  std::erase_if(retired_, [this](const Retired& r) {
    if (!r.table.expired()) return false;
    extents_.Free(r.offset, r.bytes);
    return true;
  });
  return extents_.Allocate(bytes);
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
  if (tombstone) ++stats_.deletes;
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
  sim::Future<TableRef> written = [this] {
    SSTableBuilder builder(kBloomBitsPerKey);
    for (const auto& [key, v] : flushing_) {
      builder.Add(BlockRecord{key, v.value, v.tombstone});
    }
    return WriteTable(&builder);
  }();
  l0_.push_back(co_await written);
  flushing_.clear();
  ++stats_.memtable_flushes;

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

sim::Future<KvStore::TableRef> KvStore::WriteTable(SSTableBuilder* builder) {
  auto meta = std::make_shared<SSTableMeta>();
  ImagePieces pieces = builder->Finish(meta.get());
  meta->id = next_table_id_++;
  meta->extent_bytes = AlignUp4K(meta->data_bytes);
  meta->extent_offset = AllocateExtent(meta->extent_bytes);
  // The extent may recycle a compacted table's blocks: drop stale
  // cache entries before new data becomes visible.
  block_cache_.Invalidate(meta->extent_offset, meta->extent_bytes);
  sim::Promise<TableRef> promise(sim_);
  auto future = promise.GetFuture();
  WriteTableTask(std::move(pieces), std::move(meta), std::move(promise));
  return future;
}

sim::Task KvStore::WriteTableTask(ImagePieces pieces, TableRef meta,
                                  sim::Promise<TableRef> promise) {
  // Pipeline the write: keep several large writes in flight, as
  // RocksDB's background flush threads do. Writes complete in order.
  std::deque<sim::Future<client::IoResult>> inflight;
  size_t written = 0;  // pieces whose write completed
  for (size_t i = 0; i < pieces.size(); ++i) {
    const uint64_t off = i * kIoChunk;
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(kIoChunk, meta->data_bytes - off));
    inflight.push_back(backend_.WriteBytes(meta->extent_offset + off, n,
                                           pieces[i].get()));
    if (inflight.size() >= kIoDepth) {
      client::IoResult r = co_await inflight.front();
      inflight.pop_front();
      if (!r.ok()) REFLEX_PANIC("sstable write failed");
      pieces[written++].reset();
    }
  }
  while (!inflight.empty()) {
    client::IoResult r = co_await inflight.front();
    inflight.pop_front();
    if (!r.ok()) REFLEX_PANIC("sstable write failed");
    pieces[written++].reset();
  }
  promise.Set(std::move(meta));
}

sim::Task KvStore::CompactTask(sim::VoidPromise promise) {
  ++stats_.compactions;
  // The input set is snapshotted: L0 tables flushed while this
  // background compaction runs are left for the next one.
  std::vector<TableRef> inputs;
  const size_t l0_snapshot = l0_.size();
  for (size_t i = 0; i < l1_.size(); ++i) {
    // L1 is one sorted run only if its tables are in key order.
    if (i > 0) REFLEX_CHECK(l1_[i - 1]->last_key < l1_[i]->first_key);
    inputs.push_back(l1_[i]);
  }
  for (const TableRef& t : l0_) inputs.push_back(t);  // oldest..newest

  // All of L1 is one run in key order; each L0 table is one run,
  // oldest first. Every run starts reading at once.
  const std::span<const TableRef> all(inputs);
  std::deque<InputRun> runs;
  runs.emplace_back(backend_, all.first(l1_.size()));
  for (size_t i = l1_.size(); i < inputs.size(); ++i) {
    runs.emplace_back(backend_, all.subspan(i, 1));
  }

  // K-way merge: for each key the newest run's record wins; a winning
  // tombstone has shadowed every older version and is dropped for
  // good, since this full merge rewrites the bottom level. Winners go
  // straight into the builder, and an output is written once its
  // records reach kTargetTableBytes, before the merge goes on.
  SSTableBuilder builder(kBloomBitsPerKey);
  std::vector<TableRef> new_l1;
  uint64_t table_bytes = 0;
  int64_t consumed = 0;  // input records since the last output
  for (;;) {
    for (InputRun& run : runs) {
      while (sim::Future<client::IoResult>* read = run.pending_read()) {
        if (!(co_await *read).ok()) REFLEX_PANIC("sstable read failed");
        run.Landed();
      }
    }
    // The smallest key; among runs that hold it, the newest (last).
    InputRun* newest = nullptr;
    for (InputRun& run : runs) {
      if (!run.done() &&
          (newest == nullptr || run.head().key <= newest->head().key)) {
        newest = &run;
      }
    }
    if (newest == nullptr) break;
    // The winner is a view of the newest run's piece, which advancing
    // that run may free: it is copied first, and that run moves last.
    const BlockRecord& winner = newest->head();
    if (!winner.tombstone) {
      builder.Add(winner);
      table_bytes += winner.key.size() + winner.value.size() + 4;
    }
    for (InputRun& run : runs) {
      if (&run != newest && !run.done() && run.head().key == winner.key) {
        run.Advance();
        ++consumed;
      }
    }
    newest->Advance();
    ++consumed;
    if (table_bytes >= kTargetTableBytes) {
      co_await sim::Delay(sim_, kCpuPerCompactionEntry * consumed);
      consumed = 0;
      table_bytes = 0;
      sim::Future<TableRef> written = WriteTable(&builder);
      new_l1.push_back(co_await written);
    }
  }
  if (consumed > 0) {
    co_await sim::Delay(sim_, kCpuPerCompactionEntry * consumed);
  }
  if (!builder.empty()) {
    sim::Future<TableRef> written = WriteTable(&builder);
    new_l1.push_back(co_await written);
  }

  // Retire inputs. A Get that snapshotted one may still read its
  // blocks, so its extent is freed by a later AllocateExtent, once no
  // Get holds it; WriteTable invalidates the block cache before a
  // recycled extent is rewritten.
  for (const TableRef& t : inputs) {
    retired_.push_back(Retired{t, t->extent_offset, t->extent_bytes});
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
  candidates.reserve(l0_.size() + l1_.size());
  for (auto it = l0_.rbegin(); it != l0_.rend(); ++it) {
    candidates.push_back(*it);  // newest L0 first
  }
  for (const TableRef& t : l1_) {
    if (key >= t->first_key && key <= t->last_key) candidates.push_back(t);
  }

  for (const TableRef& t : candidates) {
    // Tables the key cannot be in are skipped here, without starting a
    // search task.
    if (key < t->first_key || key > t->last_key ||
        !t->bloom->MayContain(key)) {
      ++stats_.bloom_skips;
      continue;
    }
    const int block = t->FindBlock(key);
    if (block < 0) continue;
    bool found = false;
    bool tombstone = false;
    std::string value;
    sim::VoidPromise searched(sim_);
    auto searched_future = searched.GetFuture();
    SearchTable(t.get(), block, &key, &found, &tombstone, &value,
                std::move(searched));
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

sim::Task KvStore::SearchTable(const SSTableMeta* table, int block,
                               const std::string* key, bool* found,
                               bool* tombstone_out, std::string* value_out,
                               sim::VoidPromise promise) {
  ++stats_.block_reads;
  const uint8_t* page = co_await block_cache_.GetPage(
      table->extent_offset + static_cast<uint64_t>(block) * kBlockBytes);
  // SSTable blocks have no replica to fall back to: treat persistent
  // storage failure as fatal.
  REFLEX_CHECK(page != nullptr);
  // Search before the search delay: the page pointer is only valid
  // until this task next suspends (a concurrent fetch may evict it).
  if (const auto record = FindInBlock(page, *key)) {
    if (record->tombstone) {
      *tombstone_out = true;
    } else {
      *found = true;
      value_out->assign(record->value);
    }
  }
  co_await sim::Delay(sim_, options_.cpu_per_block_search);
  promise.Set(sim::Unit{});
}

}  // namespace reflex::apps::kv
