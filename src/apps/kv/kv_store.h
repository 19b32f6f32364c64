#ifndef REFLEX_APPS_KV_KV_STORE_H_
#define REFLEX_APPS_KV_KV_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/kv/sstable.h"
#include "client/page_cache.h"
#include "client/storage_backend.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::apps::kv {

/** Result of a Get. */
struct GetResult {
  bool found = false;
  std::string value;
};

/**
 * First-fit allocator of 4KB-aligned extents of [begin, end). Free
 * holes are kept in address order, each merged with its neighbours,
 * and a hole that reaches the bump pointer is handed back to it, so
 * freed space is reused in whole and the cursor only grows when no hole
 * fits.
 */
class ExtentAllocator {
 public:
  ExtentAllocator(uint64_t begin, uint64_t end);

  /** Returns the offset of `bytes` (rounded up to 4KB); fatal once the
   * range is exhausted. */
  uint64_t Allocate(uint64_t bytes);
  /** Returns an allocated extent (offset and size as allocated). */
  void Free(uint64_t offset, uint64_t bytes);

  /** End of the space ever handed out and not returned to the cursor. */
  uint64_t cursor() const { return cursor_; }
  /** Free holes below the cursor: (offset, bytes), sorted, none touch. */
  const std::vector<std::pair<uint64_t, uint64_t>>& holes() const {
    return holes_;
  }

 private:
  uint64_t begin_;
  uint64_t end_;
  uint64_t cursor_;
  std::vector<std::pair<uint64_t, uint64_t>> holes_;
};

/**
 * A miniature LSM-tree key-value store in the mold of RocksDB:
 * write-ahead log + memtable, L0 of overlapping SSTables flushed from
 * the memtable, and a sorted, non-overlapping L1 maintained by
 * compaction. Data blocks live on the storage backend (local NVMe,
 * iSCSI or ReFlex block device); index and bloom blocks stay resident,
 * and a bounded block cache stands in for the cgroup-limited page
 * cache of the paper's RocksDB experiment (Figure 7c).
 */
class KvStore {
 public:
  struct Options {
    /** Byte region of the backend owned by this store. */
    uint64_t region_offset = 0;
    uint64_t region_bytes = 2ULL << 30;

    /** WAL ring size, carved from the head of the region. */
    uint64_t wal_bytes = 64ULL << 20;

    /** Memtable flush threshold. */
    uint64_t memtable_bytes = 4ULL << 20;

    /** L0 table count triggering compaction into L1. */
    int l0_compaction_trigger = 4;

    /** Block cache capacity (4KB blocks). */
    uint32_t block_cache_blocks = 1024;

    /** Modeled CPU cost of searching one data block. */
    sim::TimeNs cpu_per_block_search = sim::Micros(2.0);
  };

  struct Stats {
    int64_t deletes = 0;
    int64_t gets = 0;
    int64_t hits = 0;
    int64_t bloom_skips = 0;       // tables skipped by bloom filters
    int64_t block_reads = 0;       // data blocks fetched (incl. cache)
    int64_t memtable_flushes = 0;
    int64_t compactions = 0;
    int64_t wal_appends = 0;
  };

  using TableRef = std::shared_ptr<SSTableMeta>;

  KvStore(sim::Simulator& sim, client::StorageBackend& backend,
          Options options);

  /** Inserts or overwrites a key (WAL append + memtable insert). */
  sim::Future<bool> Put(std::string key, std::string value);

  /** Deletes a key by writing a tombstone; dropped at compaction. */
  sim::Future<bool> Delete(std::string key);

  /**
   * Enables/disables the write-ahead log (db_bench's bulkload phase
   * runs with WAL off, making load throughput Flash-flush-limited).
   */
  void set_wal_enabled(bool enabled) { wal_enabled_ = enabled; }
  bool wal_enabled() const { return wal_enabled_; }

  /** Point lookup through the memtable, the memtable being flushed,
   * L0 (newest first), then L1. */
  sim::Future<GetResult> Get(std::string key);

  /** Flushes the memtable to an L0 SSTable (if non-empty). */
  sim::VoidFuture Flush();

  /** Resolves once no background compaction is running. */
  sim::VoidFuture WaitCompactionIdle();

  const Stats& stats() const { return stats_; }
  int l0_tables() const { return static_cast<int>(l0_.size()); }
  int l1_tables() const { return static_cast<int>(l1_.size()); }
  /** L0 tables, oldest first. */
  const std::vector<TableRef>& l0() const { return l0_; }
  /** L1 tables, in key order. */
  const std::vector<TableRef>& l1() const { return l1_; }
  uint64_t memtable_entries() const { return memtable_.size(); }

 private:
  sim::Task PutTask(std::string key, std::string value, bool tombstone,
                    sim::Promise<bool> promise);
  sim::Task GetTask(std::string key, sim::Promise<GetResult> promise);
  sim::Task FlushTask(sim::VoidPromise promise);

  /**
   * Reads data block `block` of `table` and searches it for `*key`;
   * sets *found / *tombstone_out / *value_out. The caller keeps the
   * table and key alive until the promise resolves.
   */
  sim::Task SearchTable(const SSTableMeta* table, int block,
                        const std::string* key, bool* found,
                        bool* tombstone_out, std::string* value_out,
                        sim::VoidPromise promise);

  /**
   * Places the table `builder` holds: allocates its extent at its
   * exact size, drops stale cache entries over it and starts writing
   * it; resolves with its metadata once written. Leaves the builder
   * empty.
   */
  sim::Future<TableRef> WriteTable(SSTableBuilder* builder);
  /** WriteTable's writes; owns the pieces and the metadata it writes,
   * and frees each piece once its write completes. */
  sim::Task WriteTableTask(ImagePieces pieces, TableRef meta,
                           sim::Promise<TableRef> promise);

  /**
   * Merges L0 + L1 into a fresh L1 (simple full-merge compaction),
   * reading the inputs in kIoChunk pieces while it merges and writing
   * each output table as soon as it is cut.
   */
  sim::Task CompactTask(sim::VoidPromise promise);

  /** Frees the extent of every retired table that no Get still
   * holds, then allocates `bytes`. */
  uint64_t AllocateExtent(uint64_t bytes);

  sim::Simulator& sim_;
  client::StorageBackend& backend_;
  Options options_;
  client::PageCache block_cache_;

  struct MemValue {
    bool tombstone = false;
    std::string value;
  };
  std::map<std::string, MemValue> memtable_;
  uint64_t memtable_size_bytes_ = 0;
  /** Memtable whose L0 table is being written (empty otherwise). */
  std::map<std::string, MemValue> flushing_;

  std::vector<TableRef> l0_;  // newest last
  std::vector<TableRef> l1_;  // sorted by first_key, non-overlapping
  uint64_t next_table_id_ = 1;

  // WAL state: one 4KB staging block rewritten in place until full.
  bool wal_enabled_ = true;
  uint64_t wal_head_ = 0;
  uint32_t wal_block_used_ = 0;
  std::vector<uint8_t> wal_block_;

  ExtentAllocator extents_;
  /**
   * A compaction input whose extent is not yet free: a Get that
   * snapshotted the table may still read its blocks, so the extent is
   * freed only once no TableRef is left. The reference is weak, so the
   * table's metadata goes with the last Get that holds it.
   */
  struct Retired {
    std::weak_ptr<SSTableMeta> table;
    uint64_t offset;
    uint64_t bytes;
  };
  std::vector<Retired> retired_;

  /** Serializes writers (Put/Flush), like the RocksDB write thread;
   * readers proceed concurrently and compaction runs in background. */
  sim::Semaphore write_lock_;

  /** Background compaction state. */
  bool compacting_ = false;
  std::vector<sim::VoidPromise> compaction_waiters_;

  Stats stats_;
};

}  // namespace reflex::apps::kv

#endif  // REFLEX_APPS_KV_KV_STORE_H_
