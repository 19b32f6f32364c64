#ifndef REFLEX_APPS_KV_SSTABLE_H_
#define REFLEX_APPS_KV_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "client/storage_backend.h"
#include "sim/task.h"

namespace reflex::apps::kv {

/**
 * Bloom filter over keys (k hash functions over a bit array), as kept
 * per SSTable by LSM stores to skip tables that cannot contain a key.
 */
class BloomFilter {
 public:
  BloomFilter(size_t expected_keys, int bits_per_key = 10, int hashes = 6);

  void Add(std::string_view key);
  bool MayContain(std::string_view key) const;

 private:
  uint64_t num_bits_;
  std::vector<uint64_t> words_;
  int hashes_;
};

/**
 * In-memory metadata of one on-Flash SSTable: key range, block index,
 * and bloom filter (index/filter blocks are cache-resident, as in
 * RocksDB with cache_index_and_filter_blocks=false). The data blocks
 * live on Flash.
 */
struct SSTableMeta {
  uint64_t extent_offset = 0;  // byte offset of the data blocks
  uint64_t extent_bytes = 0;   // allocated extent size
  uint64_t data_bytes = 0;     // bytes actually used by data blocks
  uint64_t num_entries = 0;
  std::string first_key;
  std::string last_key;
  /** First key of each 4KB data block, for binary search. */
  std::vector<std::string> block_first_keys;
  std::unique_ptr<BloomFilter> bloom;
  uint64_t id = 0;

  uint32_t NumBlocks() const {
    return static_cast<uint32_t>(block_first_keys.size());
  }

  /** Index of the block that could contain `key`. */
  int FindBlock(std::string_view key) const;
};

/**
 * One record: a key/value pair or a deletion tombstone. `key` and
 * `value` are views of storage the caller keeps alive: a raw block, or
 * whatever the records handed to BuildSSTableImage are written from.
 */
struct BlockRecord {
  std::string_view key;
  std::string_view value;  // empty for a tombstone
  bool tombstone = false;
};

inline constexpr uint32_t kBlockBytes = 4096;

/**
 * Serializes sorted records into 4KB data blocks. Record format:
 * [u16 klen][u16 vlen][key][value]; a zero klen terminates a block and
 * vlen = 0xFFFF marks a deletion tombstone (no value bytes). A record
 * opens a new block when it does not fit in what is left of the
 * current one. The image is sized in one pass over the records and
 * each record is written straight from its views. Returns the block
 * image (multiple of 4KB) and fills `meta` (bloom, index, key range).
 */
std::vector<uint8_t> BuildSSTableImage(std::span<const BlockRecord> records,
                                       int bloom_bits_per_key,
                                       SSTableMeta* meta);

/**
 * Walks the records of a raw image (whole 4KB blocks) in order, block
 * by block, as views of the image. Within a block it stops at the
 * terminator and never reads past kBlockBytes, whatever the block
 * holds.
 */
class RecordWalker {
 public:
  RecordWalker(const uint8_t* image, size_t bytes)
      : image_(image), bytes_(bytes) {}

  /** Sets *out to the next record; returns false past the last one. */
  bool Next(BlockRecord* out);

 private:
  const uint8_t* image_;
  size_t bytes_;
  size_t block_ = 0;  // byte offset of the current block
  size_t pos_ = 0;    // offset within the current block
};

/**
 * Searches one raw 4KB block for `key` (tombstones included) without
 * copying any record. Stops at the first record whose key sorts past
 * `key`, and never reads past kBlockBytes, whatever the block holds.
 * Returns nullopt if the key is absent.
 */
std::optional<BlockRecord> FindInBlock(const uint8_t* block,
                                       std::string_view key);

/** vlen sentinel marking a tombstone record. */
inline constexpr uint16_t kTombstoneVlen = 0xFFFF;

}  // namespace reflex::apps::kv

#endif  // REFLEX_APPS_KV_SSTABLE_H_
