#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "client/page_cache.h"
#include "flash/calibration.h"
#include "obs/trace.h"

namespace perfbench {

int64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

uint64_t Fnv1a(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// --- Samples ---------------------------------------------------------

int64_t Samples::Quantile(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
  rank = std::clamp<size_t>(rank, 1, v_.size());
  return v_[rank - 1];
}

int64_t Samples::CountAbove(int64_t threshold) const {
  return std::count_if(v_.begin(), v_.end(),
                       [threshold](int64_t v) { return v > threshold; });
}

void Samples::Merge(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = v_.empty();
}

// --- Report ----------------------------------------------------------

void Report::Metric(const std::string& name, double value, const char* unit,
                    const char* kind) {
  metrics_.push_back(Entry{name, value, unit, kind});
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Report::Invalidate(const std::string& why) { invalid_.push_back(why); }

void Report::ReadPercentiles(Samples& reads, const char* what) {
  // The median is not an end-to-end metric: on a cache-hit path it is a
  // fixed simulated cost that reads the same for every seed.
  const struct {
    const char* name;
    double q;
  } points[] = {{"workload.read_p50_us", 0.50},
                {"read_p95_us", 0.95},
                {"read_p999_us", 0.999}};
  std::string note = std::string(what) + ": " +
                     std::to_string(reads.count()) + " samples;";
  for (const auto& p : points) {
    const int64_t v = reads.Quantile(p.q);
    Sim(p.name, static_cast<double>(v) / 1e3, "us");
    // A reported percentile needs ten samples past it to mean much.
    const int64_t beyond = reads.CountAbove(v);
    note += " " + std::to_string(beyond) + " beyond " + p.name +
            (beyond < 10 ? " (too few)" : "") + ";";
  }
  Check(reads.count() > 0, std::string(what) + " were recorded");
  Note(note);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(items[i]);
  }
  return out + "]";
}

}  // namespace

std::string Report::ToJson(const std::string& workload,
                           const RunOptions& opts) const {
  std::string out = "{\"workload\":" + JsonString(workload);
  out += ",\"seed\":" + std::to_string(opts.seed);
  out += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
  out += ",\"correct\":" + std::string(failures_.empty() ? "true" : "false");
  out += ",\"checks\":" + std::to_string(checks_);
  out += ",\"failures\":" + JsonList(failures_);
  out += ",\"invalid\":" + JsonList(invalid_);
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"notes\":" + JsonList(notes_);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i > 0) out += ",";
    out += JsonString(e.name) + ":{\"value\":" + JsonNumber(e.value) +
           ",\"unit\":" + JsonString(e.unit) +
           ",\"kind\":" + JsonString(e.kind) + "}";
  }
  return out + "}}";
}

// --- World -----------------------------------------------------------

World::World(core::ServerOptions options, int client_machines, uint64_t seed)
    : net(sim), device(sim, flash::DeviceProfile::DeviceA(), seed) {
  server_machine = net.AddMachine("reflex-server");
  for (int i = 0; i < client_machines; ++i) {
    this->client_machines.push_back(
        net.AddMachine("client-" + std::to_string(i)));
  }
  server = std::make_unique<core::ReflexServer>(
      sim, net, server_machine, device, flash::CannedCalibrationA(), options);
}

void World::AbortUnless(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(3);
}

// --- Decorators ------------------------------------------------------

namespace {

/** Times one call when tracing; forwards it either way. */
template <typename F>
auto Timed(bool trace, CallStats* stats, F&& call) {
  if (!trace) return call();
  const int64_t t0 = CpuNanos();
  auto result = call();
  stats->host_ns += CpuNanos() - t0;
  ++stats->calls;
  return result;
}

}  // namespace

sim::Future<client::IoResult> TimedSession::Read(uint64_t lba,
                                                 uint32_t sectors,
                                                 uint8_t* data, int lane) {
  return Timed(trace_, stats_,
               [&] { return inner_.Read(lba, sectors, data, lane); });
}

sim::Future<client::IoResult> TimedSession::Write(uint64_t lba,
                                                  uint32_t sectors,
                                                  uint8_t* data, int lane) {
  return Timed(trace_, stats_,
               [&] { return inner_.Write(lba, sectors, data, lane); });
}

sim::Future<client::IoResult> ProbedBackend::ReadBytes(uint64_t offset,
                                                       uint32_t bytes,
                                                       uint8_t* data) {
  if (bytes == client::PageCache::kPageBytes) ++page_reads;
  sim::Promise<client::IoResult> promise(sim_);
  auto future = promise.GetFuture();
  Forward(Timed(trace_, &read_calls,
                [&] { return inner_.ReadBytes(offset, bytes, data); }),
          /*is_read=*/true, std::move(promise));
  return future;
}

sim::Future<client::IoResult> ProbedBackend::WriteBytes(uint64_t offset,
                                                        uint32_t bytes,
                                                        const uint8_t* data) {
  sim::Promise<client::IoResult> promise(sim_);
  auto future = promise.GetFuture();
  Forward(Timed(trace_, &write_calls,
                [&] { return inner_.WriteBytes(offset, bytes, data); }),
          /*is_read=*/false, std::move(promise));
  return future;
}

sim::Task ProbedBackend::Forward(sim::Future<client::IoResult> inner,
                                 bool is_read,
                                 sim::Promise<client::IoResult> promise) {
  client::IoResult r = co_await inner;
  if (r.ok()) {
    ++completed;
    (is_read ? reads : writes).Add(r.Latency());
  } else {
    ++failed;
  }
  promise.Set(r);
}

void ProbedBackend::ResetPhase() {
  reads = Samples();
  writes = Samples();
  completed = 0;
  failed = 0;
  page_reads = 0;
  read_calls = CallStats();
  write_calls = CallStats();
}

// --- Server readings -------------------------------------------------

namespace {

using Entries = std::vector<obs::MetricsRegistry::Entry>;

/** Sum of every counter or gauge named `name`, over all label sets. */
double Sum(const Entries& entries, const std::string& name) {
  double sum = 0.0;
  for (const auto& e : entries) {
    if (e.name != name) continue;
    if (e.counter != nullptr) sum += e.counter->value();
    if (e.gauge != nullptr) sum += e.gauge->value();
  }
  return sum;
}

void MergeHistogram(const Entries& entries, const std::string& name,
                    sim::Histogram* out) {
  for (const auto& e : entries) {
    if (e.name == name && e.histogram != nullptr) out->Merge(*e.histogram);
  }
}

}  // namespace

ServerReadings ReadServers(const std::vector<core::ReflexServer*>& servers) {
  ServerReadings r;
  sim::Histogram read_service;
  sim::Histogram write_service;
  sim::Histogram wire;
  double token_wait_sum = 0.0;
  double queue_sum = 0.0;
  double in_out_sum = 0.0;
  for (core::ReflexServer* s : servers) {
    const Entries reg = s->SnapshotMetrics().Snapshot();
    r.sched_rounds += static_cast<int64_t>(Sum(reg, "sched_rounds"));
    r.neg_limit_hits +=
        static_cast<int64_t>(Sum(reg, "sched_neg_limit_hits"));
    r.tokens_donated += Sum(reg, "sched_tokens_donated");
    r.busy_ns += static_cast<int64_t>(Sum(reg, "thread_busy_ns"));
    r.tcp_ns += static_cast<int64_t>(Sum(reg, "thread_tcp_ns"));
    r.sched_ns += static_cast<int64_t>(Sum(reg, "thread_sched_ns"));
    r.error_responses +=
        static_cast<int64_t>(Sum(reg, "thread_error_responses"));
    r.flash_reads += static_cast<int64_t>(Sum(reg, "flash_reads_completed"));
    r.flash_writes +=
        static_cast<int64_t>(Sum(reg, "flash_writes_completed"));
    r.gc_stalls += static_cast<int64_t>(Sum(reg, "flash_gc_stalls"));
    r.queue_full +=
        static_cast<int64_t>(Sum(reg, "flash_queue_full_rejections"));
    // Every server attaches the shared fabric to its own registry at
    // construction; the last one wins, so summing counts it once.
    r.net_messages += static_cast<int64_t>(Sum(reg, "net_messages"));
    r.net_wire_bytes += Sum(reg, "net_wire_bytes");
    MergeHistogram(reg, "flash_read_service_ns", &read_service);
    MergeHistogram(reg, "flash_write_service_ns", &write_service);
    MergeHistogram(reg, "net_wire_ns", &wire);
    r.threads += s->num_threads();

    // Per-span stage means from the trace table (traced runs only);
    // they telescope to the end-to-end latency per span.
    const obs::BreakdownTable table = s->tracer().Table();
    auto per_span = [&table](obs::Stage stage) {
      for (const obs::BreakdownRow& row : table.rows) {
        if (row.stage == obs::StageName(stage)) return row.mean_per_span_us;
      }
      return 0.0;
    };
    const auto spans = static_cast<double>(table.spans);
    r.traced_spans += table.spans;
    token_wait_sum += per_span(obs::Stage::kGranted) * spans;
    queue_sum +=
        (per_span(obs::Stage::kParsed) + per_span(obs::Stage::kEnqueued)) *
        spans;
    in_out_sum += (per_span(obs::Stage::kServerRx) +
                   per_span(obs::Stage::kClientDone)) *
                  spans;
  }
  r.read_service_p95_us = read_service.Percentile(0.95) / 1e3;
  r.write_service_p95_us = write_service.Percentile(0.95) / 1e3;
  r.net_wire_p95_us = wire.Percentile(0.95) / 1e3;
  if (r.traced_spans > 0) {
    const auto n = static_cast<double>(r.traced_spans);
    r.token_wait_us = token_wait_sum / n;
    r.queue_us = queue_sum / n;
    r.in_out_us = in_out_sum / n;
  }
  return r;
}

ServerReadings Diff(ServerReadings after, const ServerReadings& before) {
  after.sched_rounds -= before.sched_rounds;
  after.neg_limit_hits -= before.neg_limit_hits;
  after.tokens_donated -= before.tokens_donated;
  after.busy_ns -= before.busy_ns;
  after.tcp_ns -= before.tcp_ns;
  after.sched_ns -= before.sched_ns;
  after.error_responses -= before.error_responses;
  after.flash_reads -= before.flash_reads;
  after.flash_writes -= before.flash_writes;
  after.gc_stalls -= before.gc_stalls;
  after.queue_full -= before.queue_full;
  after.net_messages -= before.net_messages;
  after.net_wire_bytes -= before.net_wire_bytes;
  return after;
}

// --- Per-layer metrics -------------------------------------------------

namespace {

/**
 * Every per-layer metric with its unit, in output order. The
 * workload.* metrics are emitted by the workloads themselves, in
 * traced and untraced runs alike (the determinism guard covers them).
 */
const struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"sim.events_per_req", "events/req"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.peak_pending", "events"},
    {"ctrl.registrations", "count"},
    {"ctrl.register_host_us", "us"},
    {"ctrl.register_growth", "ratio"},
    {"sched.rounds_per_req", "rounds/req"},
    {"sched.neg_limit_hits", "count"},
    {"sched.tokens_donated", "tokens"},
    {"sched.sim_cpu_frac", "fraction"},
    {"sched.token_wait_us", "us"},
    {"dp.busy_frac", "fraction"},
    {"dp.tcp_cpu_frac", "fraction"},
    {"dp.queue_us", "us"},
    {"dp.error_responses", "count"},
    {"flash.reads", "count"},
    {"flash.writes", "count"},
    {"flash.gc_stalls", "count"},
    {"flash.read_service_p95_us", "us"},
    {"flash.write_service_p95_us", "us"},
    {"flash.queue_full_rejections", "count"},
    {"net.msgs_per_req", "msgs/req"},
    {"net.wire_bytes_per_req", "bytes/req"},
    {"net.wire_p95_us", "us"},
    {"net.in_out_us", "us"},
    {"client.submit_host_ns", "ns"},
    {"client.timeouts", "count"},
    {"client.retries", "count"},
    {"cache.hit_frac", "fraction"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.backend_reads_per_op", "reads/op"},
    {"cache.backend_read_host_ns", "ns"},
    {"cluster.extents_per_req", "extents/req"},
    {"cluster.device_writes_per_write", "writes/write"},
    {"cluster.read_imbalance", "ratio"},
    {"cluster.read_failovers", "count"},
    {"cluster.wrong_shard_retries", "count"},
    {"cluster.shard_p95_us_max", "us"},
    {"graph.edges_scanned", "count"},
    {"graph.flash_reads", "count"},
    {"kv.flushes", "count"},
    {"kv.compactions", "count"},
    {"kv.write_amp", "ratio"},
    {"kv.block_reads_per_get", "blocks/get"},
    {"kv.bloom_skips", "count"},
};

/** Metrics measured in host time; the rest are simulated counts. */
bool IsHostMetric(const std::string& name) {
  return name == "sim.host_ns_per_event" || name == "ctrl.register_host_us" ||
         name == "ctrl.register_growth" || name == "client.submit_host_ns" ||
         name == "cache.backend_read_host_ns";
}

}  // namespace

void LayerMetrics::Emit(Report& report) const {
  for (const auto& m : kLayerMetrics) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    report.Metric(m.name, v, m.unit, IsHostMetric(m.name) ? "host" : "sim");
  }
}

void LayerMetrics::FromServers(const ServerReadings& r, int64_t requests,
                               int64_t events, int64_t run_ns,
                               int64_t peak_pending, sim::TimeNs sim_span) {
  const double req = static_cast<double>(std::max<int64_t>(1, requests));
  Set("sim.events_per_req", static_cast<double>(events) / req);
  Set("sim.host_ns_per_event",
      events > 0 ? static_cast<double>(run_ns) / events : 0.0);
  Set("sim.peak_pending", static_cast<double>(peak_pending));
  Set("sched.rounds_per_req", static_cast<double>(r.sched_rounds) / req);
  Set("sched.neg_limit_hits", static_cast<double>(r.neg_limit_hits));
  Set("sched.tokens_donated", r.tokens_donated);
  Set("sched.sim_cpu_frac",
      r.busy_ns > 0 ? static_cast<double>(r.sched_ns) / r.busy_ns : 0.0);
  Set("sched.token_wait_us", r.token_wait_us);
  const double thread_time =
      static_cast<double>(sim_span) * static_cast<double>(r.threads);
  Set("dp.busy_frac", thread_time > 0 ? r.busy_ns / thread_time : 0.0);
  Set("dp.tcp_cpu_frac",
      r.busy_ns > 0 ? static_cast<double>(r.tcp_ns) / r.busy_ns : 0.0);
  Set("dp.queue_us", r.queue_us);
  Set("dp.error_responses", static_cast<double>(r.error_responses));
  Set("flash.reads", static_cast<double>(r.flash_reads));
  Set("flash.writes", static_cast<double>(r.flash_writes));
  Set("flash.gc_stalls", static_cast<double>(r.gc_stalls));
  Set("flash.read_service_p95_us", r.read_service_p95_us);
  Set("flash.write_service_p95_us", r.write_service_p95_us);
  Set("flash.queue_full_rejections", static_cast<double>(r.queue_full));
  Set("net.msgs_per_req", static_cast<double>(r.net_messages) / req);
  Set("net.wire_bytes_per_req", r.net_wire_bytes / req);
  Set("net.wire_p95_us", r.net_wire_p95_us);
  Set("net.in_out_us", r.in_out_us);
}

void RegisterTimer::Emit(LayerMetrics& layers) const {
  layers.Set("ctrl.registrations", static_cast<double>(ns.size()));
  if (ns.empty()) return;
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  layers.Set("ctrl.register_host_us",
             static_cast<double>(total) / static_cast<double>(ns.size()) /
                 1e3);
  // Growth of the per-registration cost: mean of the last 10% over the
  // first 10% (1.0 = flat; O(N) work per registration grows linearly).
  if (ns.size() < 20) return;
  const size_t k = ns.size() / 10;
  int64_t first = 0;
  int64_t last = 0;
  for (size_t i = 0; i < k; ++i) {
    first += ns[i];
    last += ns[ns.size() - 1 - i];
  }
  layers.Set("ctrl.register_growth",
             first > 0 ? static_cast<double>(last) / first : 0.0);
}

// --- Stamped blocks ----------------------------------------------------

StampedBlocks::StampedBlocks(std::vector<uint64_t> lbas, uint64_t salt,
                             bool plant)
    : lbas_(std::move(lbas)),
      acked_(lbas_.size(), 0),
      next_(lbas_.size(), 1),
      busy_(lbas_.size(), false),
      salt_(salt),
      plant_(plant) {}

void StampedBlocks::Fill(size_t i, uint64_t version, uint8_t* buf) const {
  uint64_t x = salt_ ^ (i * 0x9e3779b97f4a7c15ULL) ^ (version << 20) ^ 1;
  for (uint32_t off = 0; off < kBytes; off += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(buf + off, &x, 8);
  }
}

uint64_t StampedBlocks::BeginWrite(size_t i, uint8_t* buf) {
  busy_[i] = true;
  const uint64_t version = next_[i]++;
  Fill(i, version, buf);
  return version;
}

void StampedBlocks::EndWrite(size_t i, uint64_t version, bool ok) {
  busy_[i] = false;
  if (ok) acked_[i] = version;
}

bool StampedBlocks::EndRead(size_t i, uint8_t* buf, bool ok) {
  busy_[i] = false;
  if (!ok) return true;  // counted as a failed request by the caller
  ++verified_reads_;
  if (plant_ && verified_reads_ == 1) buf[kBytes / 2] ^= 0x01;
  uint8_t expect[kBytes];
  Fill(i, acked_[i], expect);
  if (std::memcmp(expect, buf, kBytes) == 0) return true;
  ++mismatches_;
  return false;
}

}  // namespace perfbench
