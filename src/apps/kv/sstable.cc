#include "apps/kv/sstable.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/logging.h"

namespace reflex::apps::kv {

namespace {

/**
 * Decodes the record at *pos of a raw block into views of the block
 * and advances *pos past it. Returns false at the terminator (klen 0)
 * or where a header or record would run past kBlockBytes.
 */
bool NextRecord(const uint8_t* block, size_t* pos, BlockRecord* out) {
  if (*pos + 4 > kBlockBytes) return false;
  uint16_t klen, vlen;
  std::memcpy(&klen, block + *pos, 2);
  std::memcpy(&vlen, block + *pos + 2, 2);
  if (klen == 0) return false;
  out->tombstone = vlen == kTombstoneVlen;
  const uint16_t value_bytes = out->tombstone ? 0 : vlen;
  if (*pos + 4 + klen + value_bytes > kBlockBytes) return false;
  const auto* bytes = reinterpret_cast<const char*>(block + *pos + 4);
  out->key = std::string_view(bytes, klen);
  out->value = std::string_view(bytes + klen, value_bytes);
  *pos += 4 + klen + value_bytes;
  return true;
}

/** Encoded size of a record: header, key and (unless a tombstone) value. */
size_t RecordBytes(const BlockRecord& r) {
  return 4 + r.key.size() + (r.tombstone ? 0 : r.value.size());
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys, int bits_per_key,
                         int hashes)
    : num_bits_(std::max<uint64_t>(64, expected_keys * bits_per_key)),
      words_((num_bits_ + 63) / 64, 0),
      hashes_(hashes) {}

/** Two seeded FNV-1a hashes of the key, computed in one pass; h2 is odd. */
BloomFilter::Hashes BloomFilter::Hash(std::string_view key) {
  constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
  uint64_t h1 = 0xcbf29ce484222325ULL;
  uint64_t h2 = h1 ^ 0x9e3779b97f4a7c15ULL;
  for (char c : key) {
    const auto byte = static_cast<unsigned char>(c);
    h1 = (h1 ^ byte) * kFnvPrime;
    h2 = (h2 ^ byte) * kFnvPrime;
  }
  return {h1, h2 | 1};
}

// Double hashing: probe i tests bit (h1 + i*h2) mod num_bits_.
void BloomFilter::Add(Hashes hashes) {
  const auto [h1, h2] = hashes;
  for (int i = 0; i < hashes_; ++i) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
    words_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
}

bool BloomFilter::MayContain(std::string_view key) const {
  const auto [h1, h2] = Hash(key);
  for (int i = 0; i < hashes_; ++i) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % num_bits_;
    if ((words_[bit / 64] >> (bit % 64) & 1) == 0) return false;
  }
  return true;
}

int SSTableMeta::FindBlock(std::string_view key) const {
  if (block_first_keys.empty()) return -1;
  // Last block whose first key is <= key.
  auto it = std::upper_bound(block_first_keys.begin(),
                             block_first_keys.end(), key,
                             [](std::string_view k, const std::string& b) {
                               return k < std::string_view(b);
                             });
  if (it == block_first_keys.begin()) return -1;
  return static_cast<int>(it - block_first_keys.begin()) - 1;
}

void SSTableBuilder::Add(const BlockRecord& r) {
  REFLEX_CHECK(r.key.size() < 65535 && r.value.size() < 65534);
  const size_t rec = RecordBytes(r);
  REFLEX_CHECK(rec <= kBlockBytes);
  if (block_used_ + rec > kBlockBytes) {
    // Blocks tile the pieces: a piece holds kIoChunk / kBlockBytes.
    const size_t offset = block_first_keys_.size() * kBlockBytes % kIoChunk;
    if (offset == 0) pieces_.emplace_back(new uint8_t[kIoChunk]);
    out_ = pieces_.back().get() + offset;
    // The zero bytes left after the block's last record act as its
    // terminator (klen == 0).
    std::memset(out_, 0, kBlockBytes);
    block_used_ = 0;
    block_first_keys_.emplace_back(r.key);
  }
  const auto klen = static_cast<uint16_t>(r.key.size());
  const uint16_t vlen =
      r.tombstone ? kTombstoneVlen : static_cast<uint16_t>(r.value.size());
  std::memcpy(out_, &klen, 2);
  std::memcpy(out_ + 2, &vlen, 2);
  std::memcpy(out_ + 4, r.key.data(), klen);
  if (!r.tombstone && vlen > 0) {
    std::memcpy(out_ + 4 + klen, r.value.data(), vlen);
  }
  last_key_ = std::string_view(reinterpret_cast<const char*>(out_ + 4), klen);
  out_ += rec;
  block_used_ += rec;
  hashes_.push_back(BloomFilter::Hash(r.key));
}

ImagePieces SSTableBuilder::Finish(SSTableMeta* meta) {
  REFLEX_CHECK(!empty());
  REFLEX_CHECK(meta != nullptr);
  meta->bloom =
      std::make_unique<BloomFilter>(hashes_.size(), bloom_bits_per_key_);
  for (const BloomFilter::Hashes& h : hashes_) meta->bloom->Add(h);
  meta->num_entries = hashes_.size();
  meta->first_key = block_first_keys_.front();
  meta->last_key = last_key_;
  meta->data_bytes = uint64_t{block_first_keys_.size()} * kBlockBytes;
  meta->block_first_keys = std::exchange(block_first_keys_, {});
  hashes_.clear();
  block_used_ = kBlockBytes;
  return std::exchange(pieces_, {});
}

bool RecordWalker::Next(BlockRecord* out) {
  while (block_ + kBlockBytes <= bytes_) {
    if (NextRecord(image_ + block_, &pos_, out)) return true;
    block_ += kBlockBytes;
    pos_ = 0;
  }
  return false;
}

std::optional<BlockRecord> FindInBlock(const uint8_t* block,
                                       std::string_view key) {
  size_t pos = 0;
  BlockRecord r;
  while (NextRecord(block, &pos, &r)) {
    if (r.key == key) return r;
    if (r.key > key) break;  // records are sorted
  }
  return std::nullopt;
}

}  // namespace reflex::apps::kv
