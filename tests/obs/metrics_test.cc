#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "core/reflex_server.h"
#include "obs/export.h"
#include "testing/harness.h"

namespace reflex::obs {
namespace {

TEST(LabelSetTest, SortedAndCanonical) {
  LabelSet a;
  a.Set("tenant", "3");
  a.Set("thread", "0");
  LabelSet b;
  b.Set("thread", "0");
  b.Set("tenant", "3");
  EXPECT_TRUE(a == b) << "insertion order must not matter";
  EXPECT_EQ(a.Render(), "{tenant=3,thread=0}");
  EXPECT_EQ(LabelSet{}.Render(), "");
}

TEST(LabelSetTest, SetOverwritesExistingKey) {
  LabelSet l;
  l.Set("thread", "0");
  l.Set("thread", "1");
  EXPECT_EQ(l.Render(), "{thread=1}");
}

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("requests", Label("thread", 0));
  Counter* c2 = reg.GetCounter("requests", Label("thread", 0));
  EXPECT_EQ(c1, c2) << "same name+labels => same metric";
  Counter* other = reg.GetCounter("requests", Label("thread", 1));
  EXPECT_NE(c1, other) << "different labels => different metric";
  c1->Set(2.5);
  c1->Increment();
  EXPECT_DOUBLE_EQ(c2->value(), 3.5);
  EXPECT_DOUBLE_EQ(other->value(), 0.0);
}

TEST(MetricsRegistryTest, GaugeSetOverwrites) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("queue_depth");
  g->Set(5.0);
  g->Set(3.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("queue_depth")->value(), 3.0);
}

TEST(MetricsRegistryTest, HistogramRegistered) {
  MetricsRegistry reg;
  sim::Histogram* h = reg.GetHistogram("latency_ns");
  h->Record(1000);
  EXPECT_EQ(reg.GetHistogram("latency_ns")->Count(), 1);
}

TEST(MetricsRegistryTest, SnapshotSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("b_counter")->Increment();
  reg.GetGauge("a_gauge")->Set(7.0);
  reg.GetHistogram("c_hist")->Record(42);
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a_gauge");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[1].name, "b_counter");
  EXPECT_EQ(snap[2].name, "c_hist");
  ASSERT_NE(snap[2].histogram, nullptr);
  EXPECT_EQ(snap[2].histogram->Count(), 1);
}

TEST(MetricsRegistryTest, SnapshotOrdersNumericLabelsNumerically) {
  // Regression: with >= 10 tenants, lexicographic label comparison
  // exported tenant=10..12 between tenant=1 and tenant=2, so the row
  // order of every per-tenant export silently changed the moment an
  // 11th tenant registered. Numeric-aware ordering keeps exports in
  // tenant-handle order at any scale.
  MetricsRegistry reg;
  for (int64_t t = 12; t >= 1; --t) {
    reg.GetGauge("tenant_queue_depth", Label("tenant", t))
        ->Set(static_cast<double>(t));
  }
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 12u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].labels.Render(),
              "{tenant=" + std::to_string(i + 1) + "}")
        << "row " << i << " out of numeric tenant order";
  }
}

TEST(LabelSetTest, NaturalOrderMixesDigitsAndText) {
  // Digit runs compare as numbers; ties fall back to byte order, and
  // equal values with different renderings ("2" vs "02") stay distinct
  // label sets.
  EXPECT_LT(Label("t", 2), Label("t", 10));
  EXPECT_LT(Label("t", "a2b"), Label("t", "a10b"));
  EXPECT_LT(Label("t", "02"), Label("t", "2"));
  EXPECT_FALSE(Label("t", "2") < Label("t", "02"));
  EXPECT_LT(Label("t", "abc"), Label("t", "abd"));
  EXPECT_LT(Label("t", "ab"), Label("t", "abc"));
  EXPECT_FALSE(Label("t", 3) < Label("t", 3));
}

TEST(MetricsRegistryTest, KindMismatchDies) {
  MetricsRegistry reg;
  reg.GetCounter("x");
  EXPECT_DEATH(reg.GetGauge("x"), "");
}

// --- SnapshotMetrics: every layer's counters, published once ---

/** Clients driving closed-loop mixed load at one server. */
struct Load {
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;

  /** Adds `tenants` BE tenants on `server`, each driven from `machine`. */
  void Add(sim::Simulator& sim, core::ReflexServer& server,
           net::Machine* machine, int tenants, uint64_t seed) {
    for (int i = 0; i < tenants; ++i) {
      core::Tenant* tenant =
          server.RegisterTenant({}, core::TenantClass::kBestEffort);
      ASSERT_NE(tenant, nullptr);
      client::ReflexClient::Options copts;
      copts.seed = seed + static_cast<uint64_t>(i);
      clients.push_back(std::make_unique<client::ReflexClient>(
          sim, server, machine, copts));
      sessions.push_back(clients.back()->AttachSession(tenant->handle()));
      client::LoadGenSpec spec;
      spec.read_fraction = 0.7;
      spec.request_bytes = 4096;
      spec.queue_depth = 8;
      spec.seed = seed + 100 + static_cast<uint64_t>(i);
      generators.push_back(std::make_unique<client::LoadGenerator>(
          sim, *sessions.back(), spec));
      generators.back()->Run(sim::Millis(1), sim::Millis(10));
    }
  }
};

/** Registry entries by name and rendered labels. */
std::map<std::string, MetricsRegistry::Entry> ByKey(MetricsRegistry& reg) {
  std::map<std::string, MetricsRegistry::Entry> out;
  for (const MetricsRegistry::Entry& e : reg.Snapshot()) {
    out[e.name + e.labels.Render()] = e;
  }
  return out;
}

void ExpectSameHistogram(const sim::Histogram* got,
                         const sim::Histogram& want, const std::string& key) {
  ASSERT_NE(got, nullptr) << key;
  EXPECT_EQ(got->Count(), want.Count()) << key;
  EXPECT_EQ(got->Min(), want.Min()) << key;
  EXPECT_EQ(got->Max(), want.Max()) << key;
  EXPECT_DOUBLE_EQ(got->Mean(), want.Mean()) << key;
  EXPECT_EQ(got->Percentile(0.99), want.Percentile(0.99)) << key;
}

TEST(SnapshotMetricsTest, FlashAndSchedEntriesEqualTheirLayers) {
  core::ServerOptions options;
  options.num_threads = 2;
  testing::Harness h(options);
  Load load;
  load.Add(h.sim, h.server, h.client_machine, 4, 300);
  // Snapshot mid-run, while commands and flushes are in flight.
  h.sim.RunUntil(sim::Millis(6));
  const auto entries = ByKey(h.server.SnapshotMetrics());

  const flash::FlashDeviceStats& fs = h.device.stats();
  ASSERT_GT(fs.reads_completed, 0);
  ASSERT_GT(fs.writes_completed, 0);
  ASSERT_GT(h.device.QueueDepth(), 0);
  ASSERT_GT(h.device.FlushBacklogChunks(), 0);
  int64_t submitted = 0;
  for (int i = 0; i < h.server.num_threads(); ++i) {
    submitted += h.server.thread(i).stats().flash_submitted;
  }
  const int64_t completions = fs.reads_completed + fs.writes_completed +
                              fs.read_errors + fs.write_errors;
  // Every accepted submission not yet completed sits on a queue pair.
  EXPECT_EQ(h.device.QueueDepth(),
            submitted - fs.queue_full_rejections - completions);
  const std::map<std::string, double> flash_values = {
      {"flash_queue_depth", static_cast<double>(h.device.QueueDepth())},
      {"flash_flush_backlog_chunks",
       static_cast<double>(h.device.FlushBacklogChunks())},
      {"flash_reads_completed", static_cast<double>(fs.reads_completed)},
      {"flash_writes_completed", static_cast<double>(fs.writes_completed)},
      {"flash_gc_stalls", static_cast<double>(fs.gc_stalls)},
      {"flash_queue_full_rejections",
       static_cast<double>(fs.queue_full_rejections)},
      {"flash_read_errors", static_cast<double>(fs.read_errors)},
      {"flash_write_errors", static_cast<double>(fs.write_errors)},
  };
  int flash_entries = 0;
  for (const auto& [key, e] : entries) {
    if (e.name.rfind("flash_", 0) != 0) continue;
    ++flash_entries;
    if (e.name == "flash_read_service_ns") {
      ExpectSameHistogram(e.histogram, h.device.read_latency(), key);
    } else if (e.name == "flash_write_service_ns") {
      ExpectSameHistogram(e.histogram, h.device.write_latency(), key);
    } else {
      ASSERT_TRUE(flash_values.count(e.name)) << "unchecked entry " << key;
      const double value = e.kind == MetricKind::kCounter
                               ? e.counter->value()
                               : e.gauge->value();
      EXPECT_EQ(value, flash_values.at(e.name)) << key;
    }
  }
  EXPECT_EQ(flash_entries, 10);

  const char* const sched_names[] = {
      "sched_rounds",         "sched_tokens_generated",
      "sched_tokens_spent",   "sched_tokens_donated",
      "sched_tokens_claimed", "sched_neg_limit_hits",
      "sched_requests_submitted", "sched_round_gap_ns"};
  for (int i = 0; i < h.server.num_threads(); ++i) {
    const std::string labels = Label("thread", i).Render();
    for (const char* name : sched_names) {
      EXPECT_TRUE(entries.count(name + labels)) << name << labels;
    }
    const auto rounds = entries.find("sched_rounds" + labels);
    ASSERT_NE(rounds, entries.end());
    const int64_t want = h.server.thread(i).stats().sched_rounds;
    EXPECT_GT(want, 0);
    EXPECT_EQ(rounds->second.counter->value(), static_cast<double>(want));
    const core::SchedulerCounters& c =
        h.server.thread(i).scheduler().counters();
    EXPECT_EQ(entries.at("sched_tokens_spent" + labels).counter->value(),
              c.tokens_spent);
    ExpectSameHistogram(entries.at("sched_round_gap_ns" + labels).histogram,
                        c.round_gap_ns, "sched_round_gap_ns" + labels);
  }
  // Finish the run so no load-generator frame is left parked.
  for (auto& g : load.generators) {
    ASSERT_TRUE(h.RunUntilDone(g->Done(), sim::Seconds(5)));
  }
}

TEST(SnapshotMetricsTest, TwoServersOnOneFabricCountItOnce) {
  testing::Harness h;
  flash::FlashDevice device2(h.sim, flash::DeviceProfile::DeviceA(), 43);
  core::ReflexServer server2(h.sim, h.net, h.net.AddMachine("reflex-server-2"),
                             device2, flash::CannedCalibrationA());
  net::Machine* client2 = h.net.AddMachine("client-1");
  Load load;
  load.Add(h.sim, h.server, h.client_machine, 2, 500);
  load.Add(h.sim, server2, client2, 2, 600);
  for (auto& g : load.generators) {
    ASSERT_TRUE(h.RunUntilDone(g->Done(), sim::Seconds(5)));
  }
  ASSERT_GT(h.net.messages(), 0);

  double messages = 0.0;
  double wire_bytes = 0.0;
  int64_t wire_samples = 0;
  for (core::ReflexServer* s : {&h.server, &server2}) {
    MetricsRegistry& reg = s->SnapshotMetrics();
    messages += reg.GetCounter("net_messages")->value();
    wire_bytes += reg.GetCounter("net_wire_bytes")->value();
    wire_samples += reg.GetHistogram("net_wire_ns")->Count();
  }
  EXPECT_EQ(messages, static_cast<double>(h.net.messages()));
  EXPECT_EQ(wire_bytes, static_cast<double>(h.net.wire_bytes()));
  EXPECT_EQ(wire_samples, h.net.messages());
  // The server constructed last reports the fabric.
  EXPECT_EQ(server2.metrics().GetCounter("net_messages")->value(),
            static_cast<double>(h.net.messages()));
}

TEST(ExportTest, JsonContainsAllMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("reqs", Label("thread", 0))->Set(12.0);
  reg.GetHistogram("lat_ns")->Record(1500);
  const std::string json = RegistryToJson(reg);
  EXPECT_NE(json.find("\"reqs\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"thread\":\"0\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
}

TEST(ExportTest, CsvHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.GetCounter("reqs")->Set(2.0);
  const std::string csv = RegistryToCsv(reg);
  EXPECT_EQ(csv.find("name,labels,kind,"), 0u);
  EXPECT_NE(csv.find("reqs,"), std::string::npos);
}

}  // namespace
}  // namespace reflex::obs
