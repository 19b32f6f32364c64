#ifndef REFLEX_APPS_KV_DB_BENCH_H_
#define REFLEX_APPS_KV_DB_BENCH_H_

#include <cstdint>
#include <string>

#include "apps/kv/kv_store.h"
#include "sim/histogram.h"
#include "sim/random.h"
#include "sim/task.h"

namespace reflex::apps::kv {

/**
 * db_bench-style workloads over the mini-LSM store, matching the
 * phases the paper runs for Figure 7c: bulkload (BL), randomread (RR)
 * and readwhilewriting (RwW).
 */
class DbBench {
 public:
  struct Config {
    uint64_t num_keys = 100000;
    uint32_t value_bytes = 400;
    int read_threads = 8;
    int64_t reads_per_thread = 4000;
    /** Writer rate for readwhilewriting (ops/s). */
    double write_rate = 2000.0;
    uint64_t seed = 11;
  };

  struct PhaseResult {
    std::string name;
    sim::TimeNs duration = 0;
    int64_t ops = 0;
    double ops_per_sec = 0.0;
    sim::Histogram latency;
    int64_t value_mismatches = 0;
    int64_t not_found = 0;
  };

  DbBench(sim::Simulator& sim, KvStore& store, Config config);

  /** Sequential-key load of the whole database, then flush. */
  sim::Future<PhaseResult> BulkLoad();

  /** Uniform random point lookups from concurrent reader threads. */
  sim::Future<PhaseResult> RandomRead();

  /** Random reads with one concurrent rate-limited writer. */
  sim::Future<PhaseResult> ReadWhileWriting();

  static std::string KeyFor(uint64_t i);
  static std::string ValueFor(uint64_t i, uint32_t len);

 private:
  sim::Task BulkLoadTask(sim::Promise<PhaseResult> promise);
  sim::Task ReadPhaseTask(bool with_writer,
                          sim::Promise<PhaseResult> promise);
  sim::Task ReaderThread(int id, PhaseResult* result,
                         sim::Barrier* barrier);
  /** Puts at config_.write_rate until *stop_flag; then sets `exited`. */
  sim::Task WriterThread(const bool* stop_flag, sim::VoidPromise exited);

  sim::Simulator& sim_;
  KvStore& store_;
  Config config_;
  sim::Rng rng_;
  uint64_t writer_cursor_ = 0;
};

}  // namespace reflex::apps::kv

#endif  // REFLEX_APPS_KV_DB_BENCH_H_
