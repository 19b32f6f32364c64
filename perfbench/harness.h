#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/io_session.h"
#include "client/storage_backend.h"
#include "core/reflex_server.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace perfbench {

namespace sim = reflex::sim;
namespace client = reflex::client;
namespace core = reflex::core;
namespace net = reflex::net;
namespace flash = reflex::flash;
namespace obs = reflex::obs;

/** LC latency SLO used by every latency-critical tenant (paper Fig. 5). */
inline constexpr sim::TimeNs kSlo = 500'000;

/** Process CPU time (CLOCK_PROCESS_CPUTIME_ID), in nanoseconds. */
int64_t CpuNanos();

/** Peak resident set size of this process, in MB. */
double PeakRssMb();

/** Command-line options shared by every workload. */
struct RunOptions {
  uint64_t seed = 1;
  bool trace = false;
  /** Smaller inputs for the benchmark's own smoke tests. */
  bool smoke = false;
  /** Corrupts one verified value, so the correctness check must fail. */
  bool plant = false;
};

/**
 * Exact sample set (no histogram bucketing, so a percentile moves with
 * every sample). Quantiles use the nearest-rank rule.
 */
class Samples {
 public:
  void Add(int64_t v) {
    v_.push_back(v);
    sorted_ = false;
  }
  int64_t count() const { return static_cast<int64_t>(v_.size()); }
  /** Nearest-rank q-quantile; 0 when empty. */
  int64_t Quantile(double q);
  /** Samples strictly above `threshold`. */
  int64_t CountAbove(int64_t threshold) const;
  void Merge(const Samples& other);

 private:
  std::vector<int64_t> v_;
  bool sorted_ = true;
};

/**
 * Everything one iteration measured and checked, printed as one JSON
 * line. Metrics keep their insertion order. `kind` tells run.py how to
 * aggregate a metric across iterations: "host" values are medianed,
 * "sim" values must repeat bit for bit.
 */
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit,
              const char* kind);
  void Sim(const std::string& name, double value, const char* unit) {
    Metric(name, value, unit, "sim");
  }
  void Host(const std::string& name, double value, const char* unit) {
    Metric(name, value, unit, "host");
  }
  /** Records a correctness check; a false `ok` makes the run incorrect. */
  void Check(bool ok, const std::string& what);
  /** Free-form line shown to the user (sample counts, SLO status). */
  void Note(const std::string& line) { notes_.push_back(line); }
  /** Marks the run invalid (growing backlog), without making it wrong. */
  void Invalidate(const std::string& why);

  /** Reports the read_* percentiles with their tail sample counts. */
  void ReadPercentiles(Samples& reads, const char* what);

  bool correct() const { return failures_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  std::string ToJson(const std::string& workload, const RunOptions& opts) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string kind;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::vector<std::string> invalid_;
  int checks_ = 0;
};

/** One ReFlex server on its own machine, with client machines. */
struct World {
  World(core::ServerOptions options, int client_machines, uint64_t seed);

  /** Steps the simulator until `future` resolves (aborts past `limit`). */
  template <typename T>
  T Await(sim::Future<T> future, sim::TimeNs limit) {
    const sim::TimeNs deadline = sim.Now() + limit;
    while (!future.Ready() && sim.Now() < deadline) {
      sim.RunUntil(sim.Now() + 1'000'000);
    }
    AbortUnless(future.Ready(), "simulated deadline exceeded");
    return future.Get();
  }

  static void AbortUnless(bool ok, const char* what);

  sim::Simulator sim;
  net::Network net;
  flash::FlashDevice device;
  net::Machine* server_machine = nullptr;
  std::vector<net::Machine*> client_machines;
  std::unique_ptr<core::ReflexServer> server;
};

/** Host-time and call counts gathered by the traced decorators. */
struct CallStats {
  int64_t calls = 0;
  int64_t host_ns = 0;
  double MeanNs() const {
    return calls > 0 ? static_cast<double>(host_ns) / calls : 0.0;
  }
};

/**
 * Forwarding IoSession that, when tracing, times the synchronous part
 * of every Read/Write call into the session (client library submit
 * path: routing, fan-out, connection choice, message build). It adds
 * no simulated events, so simulated results are the same either way.
 */
class TimedSession : public client::IoSession {
 public:
  TimedSession(client::IoSession& inner, bool trace, CallStats* stats)
      : inner_(inner), trace_(trace), stats_(stats) {}

  sim::Future<client::IoResult> Read(uint64_t lba, uint32_t sectors,
                                     uint8_t* data, int lane) override;
  sim::Future<client::IoResult> Write(uint64_t lba, uint32_t sectors,
                                      uint8_t* data, int lane) override;
  uint32_t tenant_handle() const override { return inner_.tenant_handle(); }
  int num_lanes() const override { return inner_.num_lanes(); }
  uint64_t capacity_sectors() const override {
    return inner_.capacity_sectors();
  }
  uint32_t sector_bytes() const override { return inner_.sector_bytes(); }
  uint32_t sectors_per_page() const override {
    return inner_.sectors_per_page();
  }

 private:
  client::IoSession& inner_;
  bool trace_;
  CallStats* stats_;
};

/**
 * Forwarding StorageBackend between an app (graph engine, LSM store)
 * and its block device. It always records the simulated latency of
 * every completed call, so the app workloads have exact read/write
 * percentiles; when tracing it also times the synchronous part of each
 * call. The forwarding adds one zero-delay hop per call in both modes,
 * so traced and untraced runs simulate the same thing.
 */
class ProbedBackend : public client::StorageBackend {
 public:
  ProbedBackend(sim::Simulator& sim, client::StorageBackend& inner,
                bool trace)
      : sim_(sim), inner_(inner), trace_(trace) {}

  sim::Future<client::IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                          uint8_t* data) override;
  sim::Future<client::IoResult> WriteBytes(uint64_t offset, uint32_t bytes,
                                           const uint8_t* data) override;
  uint64_t CapacityBytes() const override { return inner_.CapacityBytes(); }
  const char* name() const override { return inner_.name(); }

  /** Starts a fresh measurement phase (drops earlier samples). */
  void ResetPhase();

  Samples reads;
  Samples writes;
  int64_t completed = 0;
  int64_t failed = 0;
  /** Reads of exactly one cache page (page-cache fetches). */
  int64_t page_reads = 0;
  CallStats read_calls;
  CallStats write_calls;

 private:
  sim::Task Forward(sim::Future<client::IoResult> inner, bool is_read,
                    sim::Promise<client::IoResult> promise);

  sim::Simulator& sim_;
  client::StorageBackend& inner_;
  bool trace_;
};

/** Scheduler, dataplane, flash and fabric readings of a set of servers. */
struct ServerReadings {
  int64_t sched_rounds = 0;
  int64_t neg_limit_hits = 0;
  double tokens_donated = 0.0;
  int64_t busy_ns = 0;
  int64_t tcp_ns = 0;
  int64_t sched_ns = 0;
  int64_t error_responses = 0;
  int64_t flash_reads = 0;
  int64_t flash_writes = 0;
  int64_t gc_stalls = 0;
  int64_t queue_full = 0;
  double read_service_p95_us = 0.0;
  double write_service_p95_us = 0.0;
  int64_t net_messages = 0;
  double net_wire_bytes = 0.0;
  double net_wire_p95_us = 0.0;
  double token_wait_us = 0.0;
  double queue_us = 0.0;
  double in_out_us = 0.0;
  int64_t traced_spans = 0;
  int64_t threads = 0;
};

/** Reads SnapshotMetrics() and the trace tables of `servers`. */
ServerReadings ReadServers(const std::vector<core::ReflexServer*>& servers);

/** `after` with the counters of `before` subtracted (the histogram and
 * trace means stay cumulative). */
ServerReadings Diff(ServerReadings after, const ServerReadings& before);

/**
 * The per-layer metric set every workload prints in a traced run.
 * Fields a workload does not exercise stay zero (e.g. the cache on the
 * open-loop workloads, the cluster outside cluster_rw).
 */
struct LayerMetrics {
  std::map<std::string, double> values;
  void Set(const std::string& name, double v) { values[name] = v; }
  /** Emits every per-layer metric into `report`, zero-filling gaps. */
  void Emit(Report& report) const;
  /** Fills the sim/sched/dp/flash/net groups from server readings. */
  void FromServers(const ServerReadings& r, int64_t requests,
                   int64_t events, int64_t run_ns, int64_t peak_pending,
                   sim::TimeNs sim_span);
};

/** Per-layer registration timing (control plane admission path). */
struct RegisterTimer {
  std::vector<int64_t> ns;
  void Emit(LayerMetrics& layers) const;
};

/**
 * A fixed subset of 4 KB blocks whose payloads are stamped and checked:
 * every write to a stamped block carries a pattern derived from
 * (block, version), and every read of it must return the last
 * acknowledged version byte for byte. At most one I/O per stamped
 * block is in flight, so "last acknowledged" is unambiguous.
 */
class StampedBlocks {
 public:
  StampedBlocks(std::vector<uint64_t> lbas, uint64_t salt, bool plant);

  size_t size() const { return lbas_.size(); }
  uint64_t lba(size_t i) const { return lbas_[i]; }
  bool busy(size_t i) const { return busy_[i]; }

  /** Fills `buf` with the next version of block `i`, marking it busy. */
  uint64_t BeginWrite(size_t i, uint8_t* buf);
  void EndWrite(size_t i, uint64_t version, bool ok);
  void BeginRead(size_t i) { busy_[i] = true; }
  /** Verifies a completed read of block `i`; returns false on mismatch. */
  bool EndRead(size_t i, uint8_t* buf, bool ok);

  int64_t verified_reads() const { return verified_reads_; }
  int64_t mismatches() const { return mismatches_; }

  static constexpr uint32_t kBytes = 4096;
  void Fill(size_t i, uint64_t version, uint8_t* buf) const;

 private:
  std::vector<uint64_t> lbas_;
  std::vector<uint64_t> acked_;
  std::vector<uint64_t> next_;
  std::vector<bool> busy_;
  uint64_t salt_;
  bool plant_;
  int64_t verified_reads_ = 0;
  int64_t mismatches_ = 0;
};

/** 64-bit FNV-1a over a byte range. */
uint64_t Fnv1a(const void* data, size_t len);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
