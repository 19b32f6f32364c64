#include "apps/kv/db_bench.h"

#include <cstdio>
#include <utility>

#include "sim/logging.h"

namespace reflex::apps::kv {

DbBench::DbBench(sim::Simulator& sim, KvStore& store, Config config)
    : sim_(sim),
      store_(store),
      config_(config),
      rng_(config.seed, "db_bench"),
      writer_cursor_(config.num_keys) {}

std::string DbBench::KeyFor(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::string DbBench::ValueFor(uint64_t i, uint32_t len) {
  std::string v(len, '\0');
  uint64_t x = i * 0x9e3779b97f4a7c15ULL + 1;
  for (uint32_t j = 0; j < len; ++j) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v[j] = static_cast<char>('a' + (x % 26));
  }
  return v;
}

sim::Future<DbBench::PhaseResult> DbBench::BulkLoad() {
  sim::Promise<PhaseResult> promise(sim_);
  auto future = promise.GetFuture();
  BulkLoadTask(std::move(promise));
  return future;
}

sim::Task DbBench::BulkLoadTask(sim::Promise<PhaseResult> promise) {
  PhaseResult result;
  result.name = "bulkload";
  const sim::TimeNs start = sim_.Now();
  // db_bench's bulkload fills the database with the WAL disabled, so
  // throughput is bounded by Flash flush/compaction bandwidth.
  store_.set_wal_enabled(false);
  for (uint64_t i = 0; i < config_.num_keys; ++i) {
    const sim::TimeNs op_start = sim_.Now();
    const bool ok = co_await store_.Put(
        KeyFor(i), ValueFor(i, config_.value_bytes));
    REFLEX_CHECK(ok);
    result.latency.Record(sim_.Now() - op_start);
    ++result.ops;
  }
  co_await store_.Flush();
  // Include outstanding background compaction: bulkload is complete
  // once the LSM reaches its steady shape (at the paper's 43GB scale
  // this is negligible; at ours it matters for fair accounting).
  co_await store_.WaitCompactionIdle();
  store_.set_wal_enabled(true);
  result.duration = sim_.Now() - start;
  result.ops_per_sec =
      static_cast<double>(result.ops) / sim::ToSeconds(result.duration);
  promise.Set(std::move(result));
}

sim::Future<DbBench::PhaseResult> DbBench::RandomRead() {
  sim::Promise<PhaseResult> promise(sim_);
  auto future = promise.GetFuture();
  ReadPhaseTask(/*with_writer=*/false, std::move(promise));
  return future;
}

sim::Future<DbBench::PhaseResult> DbBench::ReadWhileWriting() {
  sim::Promise<PhaseResult> promise(sim_);
  auto future = promise.GetFuture();
  ReadPhaseTask(/*with_writer=*/true, std::move(promise));
  return future;
}

sim::Task DbBench::ReadPhaseTask(bool with_writer,
                                 sim::Promise<PhaseResult> promise) {
  PhaseResult result;
  result.name = with_writer ? "readwhilewriting" : "randomread";
  const sim::TimeNs start = sim_.Now();

  bool stop_writer = false;
  sim::VoidPromise writer_exit(sim_);
  auto writer_exited = writer_exit.GetFuture();
  if (with_writer) WriterThread(&stop_writer, std::move(writer_exit));

  sim::Barrier barrier(sim_, config_.read_threads);
  for (int t = 0; t < config_.read_threads; ++t) {
    ReaderThread(t, &result, &barrier);
  }
  co_await barrier.Done();
  stop_writer = true;

  result.duration = sim_.Now() - start;
  result.ops_per_sec =
      static_cast<double>(result.ops) / sim::ToSeconds(result.duration);
  // The phase ends with the readers, but resolves only once the writer
  // has seen the flag and exited: a caller may tear the world down as
  // soon as the phase resolves, and a parked writer would leak.
  if (with_writer) co_await writer_exited;
  promise.Set(std::move(result));
}

sim::Task DbBench::ReaderThread(int id, PhaseResult* result,
                                sim::Barrier* barrier) {
  sim::Rng rng(config_.seed ^ (0x1234 + static_cast<uint64_t>(id)),
               "db_bench_reader");
  for (int64_t i = 0; i < config_.reads_per_thread; ++i) {
    const uint64_t key_index = rng.NextBounded(config_.num_keys);
    const sim::TimeNs op_start = sim_.Now();
    GetResult r = co_await store_.Get(KeyFor(key_index));
    result->latency.Record(sim_.Now() - op_start);
    ++result->ops;
    if (!r.found) {
      ++result->not_found;
    } else if (key_index < config_.num_keys &&
               r.value != ValueFor(key_index, config_.value_bytes)) {
      // Keys overwritten by the RwW writer get fresh values; treat any
      // value with the updated prefix as valid.
      if (r.value.rfind("updated-", 0) != 0) ++result->value_mismatches;
    }
  }
  barrier->Arrive();
}

sim::Task DbBench::WriterThread(const bool* stop_flag,
                                sim::VoidPromise exited) {
  sim::Rng rng(config_.seed ^ 0xabcd, "db_bench_writer");
  const double mean_gap_ns = 1e9 / config_.write_rate;
  while (!*stop_flag) {
    co_await sim::Delay(
        sim_, static_cast<sim::TimeNs>(rng.NextExponential(mean_gap_ns)));
    if (*stop_flag) break;
    const uint64_t key_index = rng.NextBounded(config_.num_keys);
    std::string value = "updated-" + ValueFor(key_index,
                                              config_.value_bytes - 8);
    co_await store_.Put(KeyFor(key_index), std::move(value));
  }
  exited.Set(sim::Unit{});
}

}  // namespace reflex::apps::kv
