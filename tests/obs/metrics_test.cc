#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/hooks.h"

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
  c1->Add(2.5);
  c1->Increment();
  EXPECT_DOUBLE_EQ(c2->value(), 3.5);
  EXPECT_DOUBLE_EQ(other->value(), 0.0);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("queue_depth");
  g->Set(5.0);
  g->Add(-2.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
}

TEST(MetricsRegistryTest, HistogramRegistered) {
  MetricsRegistry reg;
  sim::Histogram* h = reg.GetHistogram("latency_ns");
  h->Record(1000);
  EXPECT_EQ(reg.GetHistogram("latency_ns")->Count(), 1);
}

TEST(MetricsRegistryTest, SnapshotSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("b_counter")->Add(1.0);
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

TEST(HooksTest, DisabledStructsHaveNullHandles) {
  SchedulerMetrics sm;
  FlashMetrics fm;
  NetMetrics nm;
  EXPECT_FALSE(sm.enabled());
  EXPECT_FALSE(fm.enabled());
  EXPECT_FALSE(nm.enabled());
}

TEST(HooksTest, ForThreadRegistersLabeledMetrics) {
  MetricsRegistry reg;
  SchedulerMetrics m0 = SchedulerMetrics::ForThread(reg, 0);
  SchedulerMetrics m1 = SchedulerMetrics::ForThread(reg, 1);
  ASSERT_TRUE(m0.enabled());
  ASSERT_TRUE(m1.enabled());
  EXPECT_NE(m0.rounds, m1.rounds) << "per-thread instances are distinct";
  m0.tokens_spent->Add(3.0);
  EXPECT_DOUBLE_EQ(
      reg.GetCounter("sched_tokens_spent", Label("thread", 0))->value(),
      3.0);
}

TEST(ExportTest, JsonContainsAllMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("reqs", Label("thread", 0))->Add(12.0);
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
  reg.GetCounter("reqs")->Add(2.0);
  const std::string csv = RegistryToCsv(reg);
  EXPECT_EQ(csv.find("name,labels,kind,"), 0u);
  EXPECT_NE(csv.find("reqs,"), std::string::npos);
}

}  // namespace
}  // namespace reflex::obs
