#include "apps/kv/kv_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/kv/db_bench.h"
#include "apps/kv/sstable.h"
#include "baseline/local_spdk.h"
#include "client/storage_backend.h"
#include "flash/flash_device.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace reflex::apps::kv {
namespace {

using sim::Millis;

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("key-" + std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("key-" + std::to_string(i)));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("key-" + std::to_string(i));
  }
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    false_positives += bloom.MayContain("other-" + std::to_string(i));
  }
  // 10 bits/key, 6 hashes => ~1% theoretical FP rate.
  EXPECT_LT(false_positives, 300);
}

// Reference bloom probe, recomputing both hashes for every probe: bit
// (h1 + i*h2) mod size, with h1, h2 two seeded FNV-1a passes. The
// kv.bloom_skips counter depends on these exact bits.
uint64_t ReferenceFnv1a(std::string_view s, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t ReferenceHashN(std::string_view key, int i) {
  const uint64_t h1 = ReferenceFnv1a(key, 0);
  const uint64_t h2 = ReferenceFnv1a(key, 0x9e3779b97f4a7c15ULL) | 1;
  return h1 + static_cast<uint64_t>(i) * h2;
}

TEST(BloomFilterTest, BitsMatchReferenceHash) {
  constexpr size_t kKeys = 1000;
  constexpr size_t kBits = kKeys * 10;  // default 10 bits per key
  constexpr int kHashes = 6;
  BloomFilter bloom(kKeys);
  std::vector<bool> reference(kBits, false);
  for (size_t i = 0; i < kKeys; ++i) {
    const std::string key = DbBench::KeyFor(i * 3);
    bloom.Add(key);
    for (int h = 0; h < kHashes; ++h) {
      reference[ReferenceHashN(key, h) % kBits] = true;
    }
  }
  int agreed_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string key = DbBench::KeyFor(static_cast<uint64_t>(i));
    bool expected = true;
    for (int h = 0; h < kHashes; ++h) {
      expected = expected && reference[ReferenceHashN(key, h) % kBits];
    }
    ASSERT_EQ(bloom.MayContain(key), expected) << key;
    agreed_positives += expected;
  }
  EXPECT_GE(agreed_positives, 1000);  // every added key is a probe
}

/** Owns the bytes of test records; records() lists views of them. */
class RecordSet {
 public:
  void Add(std::string key, std::string value, bool tombstone = false) {
    owned_.push_back(Owned{std::move(key), std::move(value), tombstone});
  }

  std::vector<BlockRecord> records() const {
    std::vector<BlockRecord> out;
    for (const Owned& o : owned_) {
      out.push_back(BlockRecord{o.key, o.value, o.tombstone});
    }
    return out;
  }

 private:
  struct Owned {
    std::string key;
    std::string value;
    bool tombstone;
  };
  std::vector<Owned> owned_;
};

/** Every record of a raw image, in order, as views of it. */
std::vector<BlockRecord> Walk(const uint8_t* image, size_t bytes) {
  std::vector<BlockRecord> records;
  RecordWalker walker(image, bytes);
  BlockRecord r;
  while (walker.Next(&r)) records.push_back(r);
  return records;
}

TEST(SSTableFormatTest, ImageRoundTrip) {
  RecordSet set;
  for (int i = 0; i < 500; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%05d", i);
    set.Add(key, std::string(100, 'a' + i % 26));
  }
  const std::vector<BlockRecord> entries = set.records();
  SSTableMeta meta;
  std::vector<uint8_t> image = BuildSSTableImage(entries, 10, &meta);
  ASSERT_EQ(image.size() % kBlockBytes, 0u);
  EXPECT_EQ(meta.num_entries, 500u);
  EXPECT_EQ(meta.first_key, "k00000");
  EXPECT_EQ(meta.last_key, "k00499");
  EXPECT_EQ(meta.NumBlocks(), image.size() / kBlockBytes);

  // Every key is findable through the index + raw block search.
  for (const BlockRecord& e : entries) {
    const int b = meta.FindBlock(e.key);
    ASSERT_GE(b, 0);
    const auto found =
        FindInBlock(image.data() + static_cast<size_t>(b) * kBlockBytes,
                    e.key);
    ASSERT_TRUE(found.has_value()) << e.key;
    EXPECT_EQ(found->value, e.value);
    EXPECT_FALSE(found->tombstone);
  }
  // Absent keys are not found.
  const int b = meta.FindBlock("k00250x");
  EXPECT_FALSE(
      FindInBlock(image.data() + static_cast<size_t>(b) * kBlockBytes,
                  "k00250x")
          .has_value());
}

// The reference search: walk the whole block, then binary-search it.
std::optional<BlockRecord> ParsedSearch(
    const std::vector<BlockRecord>& parsed, std::string_view key) {
  auto it = std::lower_bound(
      parsed.begin(), parsed.end(), key,
      [](const BlockRecord& e, std::string_view k) { return e.key < k; });
  if (it == parsed.end() || it->key != key) return std::nullopt;
  return *it;
}

void ExpectSameRecord(const std::optional<BlockRecord>& raw,
                      const std::optional<BlockRecord>& parsed,
                      std::string_view key) {
  ASSERT_EQ(raw.has_value(), parsed.has_value()) << key;
  if (!raw) return;
  EXPECT_EQ(raw->key, parsed->key);
  EXPECT_EQ(raw->tombstone, parsed->tombstone) << key;
  EXPECT_EQ(raw->value, parsed->value) << key;
}

// The in-place search agrees with a full walk + lower_bound on every
// block of an image: each present key (tombstones included) and absent
// keys before the first, between two and after the last record.
TEST(SSTableFormatTest, BlockSearchMatchesParse) {
  RecordSet entries;
  for (int i = 0; i < 300; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%05d", i * 2);
    const bool tombstone = i % 7 == 3;
    entries.Add(key, tombstone ? "" : std::string(i % 150, 'v'), tombstone);
  }
  // Exactly four 1 KB records fill the first block of this image, so it
  // has no zero terminator.
  RecordSet full;
  for (int i = 0; i < 6; ++i) {
    full.Add("f00" + std::to_string(i), std::string(1024 - 4 - 4, 'a' + i));
  }

  for (const auto* source : {&entries, &full}) {
    SSTableMeta meta;
    const std::vector<uint8_t> image =
        BuildSSTableImage(source->records(), 10, &meta);
    for (uint32_t b = 0; b < meta.NumBlocks(); ++b) {
      const uint8_t* block = image.data() + size_t{b} * kBlockBytes;
      const std::vector<BlockRecord> parsed = Walk(block, kBlockBytes);
      ASSERT_FALSE(parsed.empty());
      std::vector<std::string> probes = {
          "", std::string(parsed.front().key) + "!"};
      // Before the first.
      probes.emplace_back(parsed.front().key.substr(0, 3));
      for (const BlockRecord& e : parsed) {
        probes.emplace_back(e.key);
        // Between two, or after the last.
        probes.push_back(std::string(e.key) + "0");
      }
      probes.push_back("zzz");
      for (const std::string& key : probes) {
        ExpectSameRecord(FindInBlock(block, key), ParsedSearch(parsed, key),
                         key);
      }
    }
    if (source == &full) {
      const std::vector<BlockRecord> first = Walk(image.data(), kBlockBytes);
      ASSERT_EQ(first.size(), 4u);
      EXPECT_NE(image[kBlockBytes - 1], 0) << "block must be full";
      EXPECT_EQ(FindInBlock(image.data(), "f003")->value,
                full.records()[3].value);
    }
  }
}

// The growing builder that BuildSSTableImage replaced, kept verbatim
// as the reference: it appends one zero-filled block at a time.
std::vector<uint8_t> ReferenceBuildSSTableImage(
    const std::vector<BlockRecord>& entries, int bloom_bits_per_key,
    SSTableMeta* meta) {
  REFLEX_CHECK(!entries.empty());
  REFLEX_CHECK(meta != nullptr);
  meta->bloom = std::make_unique<BloomFilter>(entries.size(),
                                              bloom_bits_per_key);
  meta->num_entries = entries.size();
  meta->first_key = entries.front().key;
  meta->last_key = entries.back().key;
  meta->block_first_keys.clear();

  std::vector<uint8_t> image;
  size_t block_used = kBlockBytes;  // force a new block immediately
  for (const BlockRecord& e : entries) {
    REFLEX_CHECK(e.key.size() < 65535 && e.value.size() < 65534);
    const size_t value_size = e.tombstone ? 0 : e.value.size();
    const size_t rec = 4 + e.key.size() + value_size;
    REFLEX_CHECK(rec <= kBlockBytes);
    if (block_used + rec > kBlockBytes) {
      // Open a new zero-filled block; the zero bytes left in the
      // previous block act as its terminator (klen == 0).
      image.insert(image.end(), kBlockBytes, 0);
      block_used = 0;
      meta->block_first_keys.emplace_back(e.key);
    }
    uint8_t* out = image.data() + image.size() - kBlockBytes + block_used;
    const auto klen = static_cast<uint16_t>(e.key.size());
    const uint16_t vlen = e.tombstone
                              ? kTombstoneVlen
                              : static_cast<uint16_t>(e.value.size());
    std::memcpy(out, &klen, 2);
    std::memcpy(out + 2, &vlen, 2);
    std::memcpy(out + 4, e.key.data(), klen);
    if (!e.tombstone) {
      std::memcpy(out + 4 + klen, e.value.data(), e.value.size());
    }
    block_used += rec;
    meta->bloom->Add(e.key);
  }
  meta->data_bytes = image.size();
  return image;
}

// The one-pass-sized builder writes the reference builder's image,
// index, key range and bloom bits for random record sets: tombstones,
// blocks filled to exactly 4096 bytes, 4096-byte records, one-record
// tables and tables of many blocks.
TEST(SSTableFormatTest, SizedBuilderMatchesReferenceImage) {
  sim::Rng rng(2024, "sstable_builder");
  int exact_fills = 0;
  int full_records = 0;
  int single_record_tables = 0;
  size_t max_blocks = 0;
  for (int round = 0; round < 200; ++round) {
    const size_t count =
        round % 10 == 0 ? 1 : 2 + rng.NextBounded(round % 3 == 0 ? 600 : 40);
    RecordSet set;
    size_t block_used = kBlockBytes;
    for (size_t i = 0; i < count; ++i) {
      // Keys sort by their fixed-width index; a random tail varies the
      // key length.
      char index[32];
      std::snprintf(index, sizeof(index), "%08zu", i);
      std::string key =
          index + std::string(rng.NextBounded(24), 'a' + i % 26);
      const bool tombstone = rng.NextBounded(6) == 0;
      size_t rec = 4 + key.size();
      if (!tombstone) {
        const size_t room = kBlockBytes - rec;
        size_t value_bytes = rng.NextBounded(300);
        switch (rng.NextBounded(8)) {
          case 0:  // whatever fits, up to a whole 4096-byte record
            value_bytes = rng.NextBounded(room + 1);
            break;
          case 1:  // fill the current block to exactly 4096 bytes
            if (block_used < kBlockBytes && kBlockBytes - block_used >= rec) {
              value_bytes = kBlockBytes - block_used - rec;
            }
            break;
          case 2:  // one record of exactly 4096 bytes
            value_bytes = room;
            break;
          default:
            break;
        }
        rec += value_bytes;
        set.Add(key, std::string(value_bytes, 'A' + i % 26));
      } else {
        set.Add(key, "", true);
      }
      if (block_used + rec > kBlockBytes) block_used = 0;
      block_used += rec;
      exact_fills += block_used == kBlockBytes && rec < kBlockBytes;
      full_records += rec == kBlockBytes;
    }
    single_record_tables += count == 1;

    const std::vector<BlockRecord> records = set.records();
    SSTableMeta sized;
    SSTableMeta reference;
    const std::vector<uint8_t> image =
        BuildSSTableImage(records, 10, &sized);
    const std::vector<uint8_t> expected =
        ReferenceBuildSSTableImage(records, 10, &reference);
    ASSERT_EQ(image, expected) << "round " << round;
    EXPECT_EQ(sized.data_bytes, reference.data_bytes);
    EXPECT_EQ(sized.num_entries, reference.num_entries);
    EXPECT_EQ(sized.block_first_keys, reference.block_first_keys);
    EXPECT_EQ(sized.first_key, reference.first_key);
    EXPECT_EQ(sized.last_key, reference.last_key);
    for (const BlockRecord& r : records) {
      ASSERT_TRUE(sized.bloom->MayContain(r.key)) << r.key;
      ASSERT_TRUE(reference.bloom->MayContain(r.key)) << r.key;
    }
    for (int probe = 0; probe < 1000; ++probe) {
      const std::string absent = "absent-" + std::to_string(probe);
      ASSERT_EQ(sized.bloom->MayContain(absent),
                reference.bloom->MayContain(absent))
          << absent;
    }
    max_blocks = std::max<size_t>(max_blocks, sized.NumBlocks());
  }
  // Every shape the sets are drawn for occurred: blocks that several
  // records fill exactly, 4096-byte records, one-record tables.
  EXPECT_GE(exact_fills, 20);
  EXPECT_GE(full_records, 20);
  EXPECT_EQ(single_record_tables, 20);
  EXPECT_GE(max_blocks, 100u);
}

// Garbage blocks: the search returns not-found and stays inside the
// block (each block is its own kBlockBytes heap buffer, so the
// sanitizer build catches any read past it).
TEST(SSTableFormatTest, MalformedBlockSearchStaysInBounds) {
  sim::Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> block(kBlockBytes);
    for (uint8_t& byte : block) byte = static_cast<uint8_t>(rng.Next());
    if (round % 2 == 1) {
      // Small headers, so the walk visits many records before it runs
      // off the end.
      for (size_t pos = 0; pos + 4 <= kBlockBytes; pos += 16) {
        block[pos] = static_cast<uint8_t>(1 + rng.NextBounded(8));
        block[pos + 1] = 0;
        block[pos + 2] = static_cast<uint8_t>(rng.NextBounded(8));
        block[pos + 3] = 0;
      }
    }
    EXPECT_FALSE(FindInBlock(block.data(), "k00042").has_value()) << round;
    EXPECT_FALSE(FindInBlock(block.data(), "\xff\xff\xff").has_value())
        << round;
  }

  // A valid record followed by one whose klen, then vlen, points past
  // the end of the block: the walk stops there.
  auto put_header = [](std::vector<uint8_t>* block, size_t pos,
                       uint16_t klen, uint16_t vlen) {
    std::memcpy(block->data() + pos, &klen, 2);
    std::memcpy(block->data() + pos + 2, &vlen, 2);
  };
  for (const bool bad_klen : {true, false}) {
    std::vector<uint8_t> block(kBlockBytes, 0);
    put_header(&block, 0, 1, 1);
    block[4] = 'a';
    block[5] = 'x';
    put_header(&block, 6, bad_klen ? 5000 : 3, bad_klen ? 1 : 5000);
    std::memcpy(block.data() + 10, "zzz", 3);
    ASSERT_TRUE(FindInBlock(block.data(), "a").has_value());
    EXPECT_EQ(FindInBlock(block.data(), "a")->value, "x");
    EXPECT_FALSE(FindInBlock(block.data(), "zzz").has_value());
    EXPECT_FALSE(FindInBlock(block.data(), "b").has_value());
  }

  // Records up to two bytes before the end, then a header cut short.
  std::vector<uint8_t> block(kBlockBytes, 0xFF);
  put_header(&block, 0, 1, kBlockBytes - 4 - 1 - 2);
  block[4] = 'a';
  EXPECT_TRUE(FindInBlock(block.data(), "a").has_value());
  EXPECT_FALSE(FindInBlock(block.data(), "b").has_value());
}

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest()
      : device_(sim_, flash::DeviceProfile::DeviceA(), 5),
        local_(sim_, device_, baseline::LocalSpdkService::Options{}),
        backend_(local_) {}

  KvStore::Options SmallOptions() {
    KvStore::Options o;
    o.region_offset = 0;
    o.region_bytes = 1ULL << 30;
    o.wal_bytes = 4ULL << 20;
    o.memtable_bytes = 64 << 10;  // frequent flushes
    o.l0_compaction_trigger = 3;
    o.block_cache_blocks = 64;
    return o;
  }

  template <typename T>
  T Await(sim::Future<T> f) {
    sim_.Run();
    EXPECT_TRUE(f.Ready());
    return f.Get();
  }

  sim::Simulator sim_;
  flash::FlashDevice device_;
  baseline::LocalSpdkService local_;
  client::SessionStorageBackend backend_;
};

TEST_F(KvStoreTest, PutGetRoundTrip) {
  KvStore store(sim_, backend_, SmallOptions());
  EXPECT_TRUE(Await(store.Put("hello", "world")));
  GetResult r = Await(store.Get("hello"));
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.value, "world");
}

TEST_F(KvStoreTest, MissingKeyNotFound) {
  KvStore store(sim_, backend_, SmallOptions());
  EXPECT_TRUE(Await(store.Put("a", "1")));
  GetResult r = Await(store.Get("b"));
  EXPECT_FALSE(r.found);
}

TEST_F(KvStoreTest, OverwriteReturnsLatest) {
  KvStore store(sim_, backend_, SmallOptions());
  Await(store.Put("k", "v1"));
  Await(store.Put("k", "v2"));
  EXPECT_EQ(Await(store.Get("k")).value, "v2");
  // Also across a flush boundary.
  Await(store.Flush());
  Await(store.Put("k", "v3"));
  EXPECT_EQ(Await(store.Get("k")).value, "v3");
}

TEST_F(KvStoreTest, GetFromFlushedTable) {
  KvStore store(sim_, backend_, SmallOptions());
  for (int i = 0; i < 100; ++i) {
    Await(store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 64)));
  }
  Await(store.Flush());
  EXPECT_GE(store.l0_tables() + store.l1_tables(), 1);
  EXPECT_EQ(store.memtable_entries(), 0u);
  for (int i = 0; i < 100; ++i) {
    GetResult r = Await(store.Get(DbBench::KeyFor(i)));
    ASSERT_TRUE(r.found) << i;
    EXPECT_EQ(r.value, DbBench::ValueFor(i, 64));
  }
}

// Regression: SearchTable held the cache page pointer across its
// block-search delay, so with a one-block cache a concurrent Get's
// fetch evicted the page and the parse read a freed (or, once the
// buffer was recycled, another block's) buffer. A long search delay
// and staggered Gets let later fetches reuse evicted buffers while
// earlier searches are still in their delay.
TEST_F(KvStoreTest, ConcurrentGetsSurviveBlockEviction) {
  KvStore::Options o = SmallOptions();
  o.block_cache_blocks = 1;
  o.cpu_per_block_search = Millis(1);
  KvStore store(sim_, backend_, o);
  const int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    Await(store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 100)));
  }
  Await(store.Flush());
  ASSERT_EQ(store.memtable_entries(), 0u);
  // About one key per 4 KB block, all looked up at once.
  std::vector<std::pair<int, sim::Future<GetResult>>> gets;
  for (int i = 0; i < kKeys; i += 36) {
    gets.emplace_back(i, store.Get(DbBench::KeyFor(i)));
    sim_.RunUntil(sim_.Now() + sim::Micros(30));
  }
  sim_.Run();
  for (auto& [i, f] : gets) {
    ASSERT_TRUE(f.Ready()) << i;
    ASSERT_TRUE(f.Get().found) << i;
    EXPECT_EQ(f.Get().value, DbBench::ValueFor(i, 100)) << i;
  }
}

// Regression: the flush used to empty the memtable before its L0 table
// was installed, so a Get racing the table write fell through to an
// older table and returned the previous value.
TEST_F(KvStoreTest, GetSeesKeysWhileTheirFlushIsInFlight) {
  KvStore store(sim_, backend_, SmallOptions());
  Await(store.Put("k", "old"));
  Await(store.Flush());
  ASSERT_EQ(store.l0_tables(), 1);

  // Overwrite k, then fill the memtable until a Put starts a flush; that
  // Put resolves only once the flush has installed its table.
  Await(store.Put("k", "new"));
  int last = -1;
  std::optional<sim::Future<bool>> flushing_put;
  for (int i = 0; last < 0; ++i) {
    flushing_put.emplace(
        store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 100)));
    while (!flushing_put->Ready() && store.memtable_entries() > 0) {
      sim_.RunUntil(sim_.Now() + sim::Micros(1));
    }
    if (!flushing_put->Ready()) last = i;
  }
  ASSERT_EQ(store.l0_tables(), 1) << "flush still writing its table";

  sim::Future<GetResult> overwritten = store.Get("k");
  sim::Future<GetResult> last_get = store.Get(DbBench::KeyFor(last));
  while (!overwritten.Ready() || !last_get.Ready()) {
    sim_.RunUntil(sim_.Now() + sim::Micros(1));
  }
  ASSERT_EQ(store.l0_tables(), 1) << "lookups must race the table write";
  EXPECT_EQ(overwritten.Get().value, "new");
  ASSERT_TRUE(last_get.Get().found);
  EXPECT_EQ(last_get.Get().value, DbBench::ValueFor(last, 100));
  sim_.Run();
  EXPECT_TRUE(flushing_put->Ready());
  EXPECT_EQ(store.l0_tables(), 2);
  EXPECT_EQ(Await(store.Get("k")).value, "new");
}

TEST_F(KvStoreTest, CompactionPreservesAllData) {
  KvStore store(sim_, backend_, SmallOptions());
  // Enough data for several flushes and at least one compaction.
  const int kKeys = 3000;
  for (int i = 0; i < kKeys; ++i) {
    Await(store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 100)));
  }
  Await(store.Flush());
  EXPECT_GT(store.stats().compactions, 0);
  EXPECT_GT(store.stats().memtable_flushes, 1);
  for (int i = 0; i < kKeys; i += 37) {
    GetResult r = Await(store.Get(DbBench::KeyFor(i)));
    ASSERT_TRUE(r.found) << i;
    EXPECT_EQ(r.value, DbBench::ValueFor(i, 100));
  }
}

TEST_F(KvStoreTest, CompactionKeepsNewestVersion) {
  KvStore::Options o = SmallOptions();
  o.memtable_bytes = 8 << 10;
  o.l0_compaction_trigger = 2;
  KvStore store(sim_, backend_, o);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 60; ++i) {
      Await(store.Put(DbBench::KeyFor(i),
                      "round" + std::to_string(round)));
    }
  }
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(Await(store.Get(DbBench::KeyFor(i))).value, "round5");
  }
}

// One key in L1, overwritten in one L0 table, tombstoned in a second
// and re-put in a third: the compaction of all four inputs keeps the
// newest value, and drops a key whose newest entry is a tombstone.
TEST_F(KvStoreTest, CompactionMergesNewestOfManyInputs) {
  KvStore::Options o = SmallOptions();
  o.l0_compaction_trigger = 3;
  KvStore store(sim_, backend_, o);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      Await(store.Put(DbBench::KeyFor(i), "l1-" + std::to_string(i)));
    }
    Await(store.Flush());
  }
  Await(store.WaitCompactionIdle());
  ASSERT_EQ(store.l0_tables(), 0);
  ASSERT_GE(store.l1_tables(), 1);
  const int64_t compactions = store.stats().compactions;
  const std::string kept = DbBench::KeyFor(5);
  const std::string deleted = DbBench::KeyFor(6);

  Await(store.Put(kept, "l0-a"));
  Await(store.Put(deleted, "l0-a"));
  Await(store.Flush());
  Await(store.Delete(kept));
  Await(store.Delete(deleted));
  Await(store.Flush());
  EXPECT_FALSE(Await(store.Get(kept)).found);
  Await(store.Put(kept, "l0-c"));
  Await(store.Flush());
  Await(store.WaitCompactionIdle());

  EXPECT_EQ(store.stats().compactions, compactions + 1);
  EXPECT_EQ(store.l0_tables(), 0);
  GetResult r = Await(store.Get(kept));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "l0-c");
  // The tombstone is gone from L1 too: its bloom filter rules the key
  // out, so the lookup reads no block.
  const int64_t block_reads = store.stats().block_reads;
  EXPECT_FALSE(Await(store.Get(deleted)).found);
  EXPECT_EQ(store.stats().block_reads, block_reads);
  for (int i = 0; i < 20; ++i) {
    if (i == 5 || i == 6) continue;
    EXPECT_EQ(Await(store.Get(DbBench::KeyFor(i))).value,
              "l1-" + std::to_string(i));
  }
}

// Random Put/Delete/overwrite ops against a std::map model, the first
// `preload` of them putting keys 0.. in order. After every memtable
// flush every key's Get must match the model. When that flush's
// compaction has left every key in L1, a deleted key may cost a block
// read only on a bloom false positive: a tombstone kept in L1 would
// cost one every time. Sets *multi_table_merges to the number of
// compactions seen to start from an L1 of two or more tables.
void ChurnAgainstModel(sim::Simulator& sim, KvStore& store, int keys,
                       int preload, int ops, size_t min_value,
                       size_t max_value, uint64_t seed,
                       int* multi_table_merges) {
  auto run = [&sim](auto future) {
    sim.Run();
    EXPECT_TRUE(future.Ready());
    return future.Get();
  };
  sim::Rng rng(seed, "kv_churn");
  std::map<int, std::string> model;
  int64_t flushes = store.stats().memtable_flushes;
  int64_t compactions = store.stats().compactions;
  int l1_tables = store.l1_tables();
  *multi_table_merges = 0;
  int64_t absent_gets = 0;
  int64_t absent_block_reads = 0;
  for (int op = 0; op < ops; ++op) {
    const auto draw = rng.NextBounded(10);
    int key = static_cast<int>(rng.NextBounded(keys));
    if (op < preload) {
      key = op % keys;
    } else if (draw < 3 && !model.empty()) {
      // Overwrite a live key.
      auto it = model.lower_bound(key);
      key = it == model.end() ? model.begin()->first : it->first;
    }
    if (op >= preload && draw >= 7) {
      ASSERT_TRUE(run(store.Delete(DbBench::KeyFor(key)))) << op;
      model.erase(key);
    } else {
      std::string value =
          std::to_string(op) + "-" +
          std::string(min_value + rng.NextBounded(max_value - min_value + 1),
                      static_cast<char>('a' + op % 26));
      ASSERT_TRUE(run(store.Put(DbBench::KeyFor(key), value))) << op;
      model[key] = std::move(value);
    }
    if (store.stats().memtable_flushes == flushes) continue;
    flushes = store.stats().memtable_flushes;
    // The first compaction since the last check started from its L1.
    if (store.stats().compactions > compactions && l1_tables >= 2) {
      ++*multi_table_merges;
    }
    compactions = store.stats().compactions;
    l1_tables = store.l1_tables();
    const bool all_in_l1 =
        store.l0_tables() == 0 && store.memtable_entries() == 0;
    for (int k = 0; k < keys; ++k) {
      const int64_t block_reads = store.stats().block_reads;
      const GetResult r = run(store.Get(DbBench::KeyFor(k)));
      const auto it = model.find(k);
      ASSERT_EQ(r.found, it != model.end()) << "key " << k << " op " << op;
      if (r.found) {
        ASSERT_EQ(r.value, it->second) << "key " << k << " op " << op;
      } else if (all_in_l1) {
        ++absent_gets;
        absent_block_reads += store.stats().block_reads - block_reads;
      }
    }
  }
  EXPECT_GT(absent_gets, 0);
  EXPECT_LE(absent_block_reads * 20, absent_gets) << absent_gets;
}

// Compaction k-way merges L1 (one run) with each L0 table (one run
// each, oldest first): for each key the newest record wins and a
// winning tombstone is dropped. Small records give many compactions
// of one L1 table; 4 KB records take L1 past the 8 MB split, so the
// L1 run crosses table boundaries.
TEST_F(KvStoreTest, CompactionMatchesModelUnderChurn) {
  {
    KvStore::Options o = SmallOptions();
    o.memtable_bytes = 8 << 10;
    o.l0_compaction_trigger = 3;
    KvStore store(sim_, backend_, o);
    int multi_table_merges = 0;
    ChurnAgainstModel(sim_, store, /*keys=*/400, /*preload=*/0,
                      /*ops=*/3000, /*min_value=*/0, /*max_value=*/200,
                      /*seed=*/1, &multi_table_merges);
    EXPECT_GE(store.stats().compactions, 10);
  }
  {
    KvStore::Options o = SmallOptions();
    o.memtable_bytes = 1 << 20;
    o.l0_compaction_trigger = 3;
    KvStore store(sim_, backend_, o);
    int multi_table_merges = 0;
    ChurnAgainstModel(sim_, store, /*keys=*/3500, /*preload=*/3500,
                      /*ops=*/6500, /*min_value=*/3800, /*max_value=*/4000,
                      /*seed=*/2, &multi_table_merges);
    EXPECT_GE(multi_table_merges, 3);
    EXPECT_GE(store.stats().compactions, 4);
  }
}

TEST_F(KvStoreTest, BloomFiltersSkipTables) {
  KvStore store(sim_, backend_, SmallOptions());
  for (int i = 0; i < 1500; ++i) {
    Await(store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 100)));
  }
  Await(store.Flush());
  const int64_t skips_before = store.stats().bloom_skips;
  // Lookups for absent keys: blooms should usually answer without I/O.
  const int64_t block_reads_before = store.stats().block_reads;
  for (int i = 0; i < 200; ++i) {
    Await(store.Get("absent-" + std::to_string(i)));
  }
  EXPECT_GT(store.stats().bloom_skips, skips_before);
  EXPECT_LT(store.stats().block_reads - block_reads_before, 40);
}

TEST_F(KvStoreTest, WalWritesHappen) {
  KvStore store(sim_, backend_, SmallOptions());
  Await(store.Put("k1", "v1"));
  Await(store.Put("k2", "v2"));
  EXPECT_EQ(store.stats().wal_appends, 2);
}

TEST(SSTableFormatTest, TombstoneRoundTrip) {
  RecordSet set;
  set.Add("alive", "value", false);
  set.Add("dead", "", true);
  SSTableMeta meta;
  std::vector<uint8_t> image = BuildSSTableImage(set.records(), 10, &meta);
  auto parsed = Walk(image.data(), kBlockBytes);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_FALSE(parsed[0].tombstone);
  EXPECT_EQ(parsed[0].value, "value");
  EXPECT_TRUE(parsed[1].tombstone);
  EXPECT_EQ(parsed[1].key, "dead");
  const auto alive = FindInBlock(image.data(), "alive");
  ASSERT_TRUE(alive.has_value());
  EXPECT_FALSE(alive->tombstone);
  EXPECT_EQ(alive->value, "value");
  const auto dead = FindInBlock(image.data(), "dead");
  ASSERT_TRUE(dead.has_value());
  EXPECT_TRUE(dead->tombstone);
  EXPECT_TRUE(dead->value.empty());
}

TEST_F(KvStoreTest, DeleteHidesKey) {
  KvStore store(sim_, backend_, SmallOptions());
  EXPECT_TRUE(Await(store.Put("k", "v")));
  EXPECT_TRUE(Await(store.Delete("k")));
  EXPECT_FALSE(Await(store.Get("k")).found);
  EXPECT_EQ(store.stats().deletes, 1);
  // Re-inserting resurrects it.
  EXPECT_TRUE(Await(store.Put("k", "v2")));
  EXPECT_EQ(Await(store.Get("k")).value, "v2");
}

TEST_F(KvStoreTest, DeleteShadowsFlushedValue) {
  KvStore store(sim_, backend_, SmallOptions());
  Await(store.Put("k", "old"));
  Await(store.Flush());  // "old" now lives in an SSTable
  Await(store.Delete("k"));
  EXPECT_FALSE(Await(store.Get("k")).found)
      << "memtable tombstone shadows the table value";
  Await(store.Flush());  // tombstone now lives in a newer L0 table
  EXPECT_FALSE(Await(store.Get("k")).found)
      << "L0 tombstone shadows the older table value";
}

TEST_F(KvStoreTest, CompactionDropsTombstones) {
  KvStore::Options o = SmallOptions();
  o.memtable_bytes = 8 << 10;
  o.l0_compaction_trigger = 2;
  KvStore store(sim_, backend_, o);
  for (int i = 0; i < 200; ++i) {
    Await(store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 100)));
  }
  for (int i = 0; i < 200; i += 2) {
    Await(store.Delete(DbBench::KeyFor(i)));
  }
  // Force everything through flush + compaction.
  Await(store.Flush());
  Await(store.WaitCompactionIdle());
  while (store.l0_tables() > 0) {
    Await(store.Put("zz-kick", "x"));
    Await(store.Flush());
    Await(store.WaitCompactionIdle());
  }
  // Deleted keys stay gone; survivors stay intact.
  for (int i = 0; i < 200; ++i) {
    GetResult r = Await(store.Get(DbBench::KeyFor(i)));
    if (i % 2 == 0) {
      EXPECT_FALSE(r.found) << i;
    } else {
      ASSERT_TRUE(r.found) << i;
      EXPECT_EQ(r.value, DbBench::ValueFor(i, 100));
    }
  }
  // The compacted L1 holds no tombstone entries.
  int64_t l1_entries = 0;
  (void)l1_entries;
}

TEST_F(KvStoreTest, DbBenchPhasesRunAndValidate) {
  KvStore::Options o = SmallOptions();
  o.memtable_bytes = 256 << 10;
  KvStore store(sim_, backend_, o);
  DbBench::Config cfg;
  cfg.num_keys = 2000;
  cfg.value_bytes = 120;
  cfg.read_threads = 4;
  cfg.reads_per_thread = 200;
  cfg.write_rate = 5000;
  DbBench bench(sim_, store, cfg);

  auto bl = Await(bench.BulkLoad());
  EXPECT_EQ(bl.ops, 2000);
  EXPECT_GT(bl.ops_per_sec, 0.0);

  auto rr = Await(bench.RandomRead());
  EXPECT_EQ(rr.ops, 800);
  EXPECT_EQ(rr.not_found, 0);
  EXPECT_EQ(rr.value_mismatches, 0);

  auto rww = Await(bench.ReadWhileWriting());
  EXPECT_EQ(rww.ops, 800);
  EXPECT_EQ(rww.not_found, 0);
  EXPECT_EQ(rww.value_mismatches, 0);
}

// Regression: ReadWhileWriting resolved while its writer was still
// parked in its inter-arrival delay. A caller that steps the simulator
// in 1 ms slices until the phase resolves (as bench::Await does) and
// then destroys the world leaked the writer's frame: the sanitizer
// build's leak check and the REFLEX_CORO_DEBUG frame registry both
// report it when this test's world is destroyed.
TEST_F(KvStoreTest, ReadWhileWritingLeavesNoWriterBehind) {
  sim::Simulator sim;
  flash::FlashDevice device(sim, flash::DeviceProfile::DeviceA(), 5);
  baseline::LocalSpdkService local(sim, device,
                                   baseline::LocalSpdkService::Options{});
  client::SessionStorageBackend backend(local);
  KvStore store(sim, backend, SmallOptions());
  DbBench::Config cfg;
  cfg.num_keys = 500;
  cfg.value_bytes = 100;
  cfg.read_threads = 2;
  cfg.reads_per_thread = 50;
  cfg.write_rate = 100;  // 10 ms gaps: the writer is parked at the end
  DbBench bench(sim, store, cfg);
  auto step = [&sim](auto future) {
    while (!future.Ready()) sim.RunUntil(sim.Now() + Millis(1));
    return future.Get();
  };
  EXPECT_EQ(step(bench.BulkLoad()).ops, 500);
  const DbBench::PhaseResult rww = step(bench.ReadWhileWriting());
  EXPECT_EQ(rww.ops, 100);
  EXPECT_EQ(rww.not_found, 0);
  EXPECT_EQ(rww.value_mismatches, 0);
}

TEST_F(KvStoreTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    sim::Simulator sim;
    flash::FlashDevice device(sim, flash::DeviceProfile::DeviceA(), 5);
    baseline::LocalSpdkService local(
        sim, device, baseline::LocalSpdkService::Options{});
    client::SessionStorageBackend backend(local);
    KvStore store(sim, backend, SmallOptions());
    for (int i = 0; i < 500; ++i) {
      auto f = store.Put(DbBench::KeyFor(i), DbBench::ValueFor(i, 100));
      sim.Run();
      EXPECT_TRUE(f.Ready());
    }
    return std::make_pair(sim.Now(), sim.EventsProcessed());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace reflex::apps::kv
