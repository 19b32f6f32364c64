// kv_rww: the mini-LSM readwhilewriting phase over BlockDevice, with a
// block cache large enough to hold the whole table set. This is the
// page cache's hit path plus the Invalidate calls that memtable
// flushes and compactions make, plus app-level writes. The bulk load
// is set-up.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv/db_bench.h"
#include "apps/kv/kv_store.h"
#include "client/block_device.h"
#include "sim/random.h"
#include "workloads.h"

namespace perfbench {

namespace kv = reflex::apps::kv;

namespace {

constexpr uint32_t kValueBytes = 400;

/**
 * Concurrent readers doing uniform random Gets over the lower half of
 * the key space and one Poisson writer overwriting random keys of the
 * upper half, with an oracle: a Get must return the value last
 * acknowledged before it started, or one written concurrently.
 *
 * Readers stay off the written half because KvStore::FlushTask empties
 * the memtable before the flushed L0 table is installed, so a Get of a
 * key that is being flushed can return an older value.
 */
class ReadWhileWriting {
 public:
  ReadWhileWriting(sim::Simulator& sim, kv::KvStore& store, uint64_t keys,
                   uint64_t seed, bool plant)
      : sim_(sim),
        store_(store),
        keys_(keys),
        seed_(seed),
        plant_(plant),
        history_(keys) {
    // Version 0 is the bulk-loaded value.
    for (uint64_t k = 0; k < keys; ++k) {
      const std::string v = kv::DbBench::ValueFor(k, kValueBytes);
      history_[k].push_back(Put{0, 0, Fnv1a(v.data(), v.size())});
    }
  }

  /**
   * Runs the phase to completion; returns its simulated duration. The
   * writer issues a fixed number of Puts, so every seed flushes and
   * compacts the same number of times.
   */
  sim::TimeNs Run(int readers, int64_t gets_per_reader, int64_t puts,
                  double write_rate) {
    const sim::TimeNs start = sim_.Now();
    remaining_ = readers + 1;
    Writer(puts, write_rate);
    for (int r = 0; r < readers; ++r) Reader(r, gets_per_reader);
    while (remaining_ > 0) sim_.RunUntil(sim_.Now() + 100'000);
    return end_ - start;
  }

  Samples gets;
  Samples puts;
  int64_t not_found = 0;
  int64_t value_mismatches = 0;
  int64_t failed_puts = 0;
  int64_t user_bytes = 0;

 private:
  struct Put {
    sim::TimeNs start;
    sim::TimeNs ack;  // -1 while in flight
    uint64_t hash;
  };

  static std::string ValueOf(uint64_t key, uint64_t version, uint64_t keys) {
    return kv::DbBench::ValueFor(key + version * keys, kValueBytes);
  }

  bool Acceptable(uint64_t key, sim::TimeNs t0, sim::TimeNs t1,
                  uint64_t hash) const {
    const std::vector<Put>& h = history_[key];
    // The latest value acknowledged before the Get started...
    for (auto it = h.rbegin(); it != h.rend(); ++it) {
      if (it->ack >= 0 && it->ack <= t0) {
        if (it->hash == hash) return true;
        break;
      }
    }
    // ...or any value whose Put overlapped the Get.
    for (const Put& p : h) {
      if (p.start <= t1 && (p.ack < 0 || p.ack >= t0) && p.hash == hash) {
        return true;
      }
    }
    return false;
  }

  sim::Task Reader(int id, int64_t count) {
    sim::Rng rng(seed_ * 7919 + static_cast<uint64_t>(id), "perfbench_reader");
    for (int64_t i = 0; i < count; ++i) {
      const uint64_t key = rng.NextBounded(keys_ / 2);
      const sim::TimeNs t0 = sim_.Now();
      kv::GetResult r = co_await store_.Get(kv::DbBench::KeyFor(key));
      const sim::TimeNs t1 = sim_.Now();
      gets.Add(t1 - t0);
      if (!r.found) {
        ++not_found;
        continue;
      }
      if (plant_ && !planted_ && !r.value.empty()) {
        r.value[0] ^= 0x01;
        planted_ = true;
      }
      if (!Acceptable(key, t0, t1, Fnv1a(r.value.data(), r.value.size()))) {
        ++value_mismatches;
      }
    }
    Finish();
  }

  sim::Task Writer(int64_t count, double rate) {
    sim::Rng rng(seed_ ^ 0xabcdef, "perfbench_writer");
    const double gap = 1e9 / rate;
    for (int64_t version = 1; version <= count; ++version) {
      co_await sim::Delay(sim_,
                          static_cast<sim::TimeNs>(rng.NextExponential(gap)));
      const uint64_t key = keys_ / 2 + rng.NextBounded(keys_ - keys_ / 2);
      std::string value = ValueOf(key, static_cast<uint64_t>(version), keys_);
      const size_t slot = history_[key].size();
      history_[key].push_back(
          Put{sim_.Now(), -1, Fnv1a(value.data(), value.size())});
      user_bytes += static_cast<int64_t>(value.size() + 16);
      const sim::TimeNs t0 = sim_.Now();
      const bool ok =
          co_await store_.Put(kv::DbBench::KeyFor(key), std::move(value));
      puts.Add(sim_.Now() - t0);
      if (ok) {
        history_[key][slot].ack = sim_.Now();
      } else {
        ++failed_puts;
      }
    }
    Finish();
  }

  void Finish() {
    if (--remaining_ == 0) end_ = sim_.Now();
  }

  sim::Simulator& sim_;
  kv::KvStore& store_;
  uint64_t keys_;
  uint64_t seed_;
  bool plant_;
  bool planted_ = false;
  std::vector<std::vector<Put>> history_;
  /** Readers plus the writer still running. */
  int remaining_ = 0;
  sim::TimeNs end_ = 0;
};

}  // namespace

void RunKvRww(const RunOptions& opts, Report& report) {
  const uint64_t keys = opts.smoke ? 6000 : 60000;
  const int readers = 8;
  const int64_t gets_per_reader = opts.smoke ? 3000 : 30000;
  const int64_t puts = opts.smoke ? 1000 : 10000;
  const double write_rate = 10000.0;

  const int64_t setup_start = CpuNanos();
  World world(core::ServerOptions{}, /*client_machines=*/1, opts.seed);
  RegisterTimer registrations;
  const int64_t t0 = CpuNanos();
  core::Tenant* tenant = world.server->RegisterTenant(
      core::SloSpec{}, core::TenantClass::kBestEffort);
  registrations.ns.push_back(CpuNanos() - t0);
  client::BlockDevice bdev(world.sim, *world.server, world.client_machines[0],
                           tenant->handle(), client::BlockDevice::Options{});
  ProbedBackend backend(world.sim, bdev, opts.trace);
  kv::KvStore::Options store_options;
  // The cache holds ~80% of the blocks the readers touch: mostly the
  // hit path, with enough misses that the read tail is a device read.
  store_options.block_cache_blocks = static_cast<uint32_t>(keys / 25);
  store_options.memtable_bytes = 512ULL << 10;
  kv::KvStore store(world.sim, backend, store_options);
  kv::DbBench::Config bench_config;
  bench_config.num_keys = keys;
  bench_config.value_bytes = kValueBytes;
  bench_config.seed = opts.seed;
  kv::DbBench bench(world.sim, store, bench_config);
  world.Await(bench.BulkLoad(), 600'000'000'000);
  const int64_t setup_ns = CpuNanos() - setup_start;

  // The oracle's expected values are not part of the system under test,
  // so they are computed outside both timed regions.
  auto rww = std::make_unique<ReadWhileWriting>(world.sim, store, keys,
                                                opts.seed, opts.plant);

  const std::vector<core::ReflexServer*> servers = {world.server.get()};
  ServerReadings before;
  if (opts.trace) before = ReadServers(servers);
  backend.ResetPhase();
  const kv::KvStore::Stats stats_before = store.stats();
  const int64_t bytes_written_before = bdev.bytes_written();
  const int64_t events_before = world.sim.EventsProcessed();
  const sim::TimeNs sim_before = world.sim.Now();

  const int64_t run_start = CpuNanos();
  const sim::TimeNs phase = rww->Run(readers, gets_per_reader, puts, write_rate);
  const int64_t run_ns = CpuNanos() - run_start;
  const kv::KvStore::Stats& stats = store.stats();

  const double phase_s = static_cast<double>(phase) / 1e9;
  report.Host("setup_s", static_cast<double>(setup_ns) / 1e9, "s");
  report.Host("run_s", static_cast<double>(run_ns) / 1e9, "s");
  report.Host("peak_rss_mb", PeakRssMb(), "MB");
  report.Sim("sim_kiops",
             static_cast<double>(backend.completed) / phase_s / 1e3, "kIOPS");
  report.ReadPercentiles(rww->gets, "Gets");
  report.Sim("app_sim_s", phase_s, "s");
  report.Sim("workload.write_p95_us",
             static_cast<double>(rww->puts.Quantile(0.95)) / 1e3, "us");
  report.Sim("workload.slo_miss_frac", 0.0, "fraction");
  report.Sim("workload.be_kiops",
             static_cast<double>(backend.completed) / phase_s / 1e3, "kIOPS");

  const int64_t flushes = stats.memtable_flushes - stats_before.memtable_flushes;
  const int64_t compactions = stats.compactions - stats_before.compactions;
  report.Check(rww->value_mismatches == 0, "every Get returned a valid value");
  report.Check(rww->not_found == 0, "every Get found its key");
  report.Check(rww->failed_puts == 0 && backend.failed == 0,
               "no Put or backend I/O failed");
  report.attempted = rww->gets.count() + rww->puts.count();
  report.failed = rww->value_mismatches + rww->not_found + rww->failed_puts;
  report.Note("Puts: " + std::to_string(rww->puts.count()) + "; flushes " +
              std::to_string(flushes) + ", compactions " +
              std::to_string(compactions) + " in the window");

  if (!opts.trace) return;
  LayerMetrics layers;
  const int64_t requests = backend.read_calls.calls + backend.write_calls.calls;
  layers.FromServers(Diff(ReadServers(servers), before), requests,
                     world.sim.EventsProcessed() - events_before, run_ns,
                     static_cast<int64_t>(world.sim.PeakPendingEvents()),
                     world.sim.Now() - sim_before);
  registrations.Emit(layers);
  layers.Set("client.timeouts",
             static_cast<double>(bdev.client().fault_stats().timeouts));
  layers.Set("client.retries",
             static_cast<double>(bdev.client().fault_stats().retries));
  // KvStore does not expose its block cache's counters: page-sized
  // backend reads are the cache's fetches (compaction reads are larger).
  const int64_t block_reads = stats.block_reads - stats_before.block_reads;
  const int64_t gets = stats.gets - stats_before.gets;
  layers.Set("cache.hit_frac",
             block_reads > 0
                 ? 1.0 - static_cast<double>(backend.page_reads) / block_reads
                 : 0.0);
  layers.Set("cache.misses", static_cast<double>(backend.page_reads));
  layers.Set("cache.backend_reads_per_op",
             block_reads > 0
                 ? static_cast<double>(backend.read_calls.calls) / block_reads
                 : 0.0);
  layers.Set("cache.backend_read_host_ns", backend.read_calls.MeanNs());
  layers.Set("kv.flushes", static_cast<double>(flushes));
  layers.Set("kv.compactions", static_cast<double>(compactions));
  layers.Set("kv.write_amp",
             rww->user_bytes > 0
                 ? static_cast<double>(bdev.bytes_written() -
                                       bytes_written_before) /
                       static_cast<double>(rww->user_bytes)
                 : 0.0);
  layers.Set("kv.block_reads_per_get",
             gets > 0 ? static_cast<double>(block_reads) / gets : 0.0);
  layers.Set("kv.bloom_skips",
             static_cast<double>(stats.bloom_skips - stats_before.bloom_skips));
  layers.Emit(report);
}

}  // namespace perfbench
