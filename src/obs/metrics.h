#ifndef REFLEX_OBS_METRICS_H_
#define REFLEX_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/histogram.h"

namespace reflex::obs {

/**
 * Natural (numeric-aware) string ordering: runs of digits compare as
 * numbers, everything else byte-wise, so "tenant=9" sorts before
 * "tenant=10". Exports walk metrics in this order; without it, row
 * order changes the moment a numeric label reaches two digits.
 */
bool NaturalLess(const std::string& a, const std::string& b);

/**
 * Label set attached to a metric instance, e.g. {thread=0, tenant=3}.
 * Stored sorted by key so that the same logical labels always produce
 * the same metric identity regardless of construction order.
 */
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv);

  void Set(const std::string& key, const std::string& value);

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }
  bool empty() const { return entries_.empty(); }

  /** Canonical "{k1=v1,k2=v2}" rendering ("" when empty). */
  std::string Render() const;

  /** Natural order: numeric label values sort numerically. */
  bool operator<(const LabelSet& other) const;
  bool operator==(const LabelSet& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/** Helper: a LabelSet with one int-valued label (thread/tenant ids). */
LabelSet Label(const std::string& key, int64_t value);
LabelSet Label(const std::string& key, const std::string& value);

/** Monotonically increasing counter. */
class Counter {
 public:
  void Add(double n = 1.0) { value_ += n; }
  void Increment() { value_ += 1.0; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/** Point-in-time gauge. */
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double n) { value_ += n; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/** Metric kinds, for export. */
enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/**
 * Registry of named counters, gauges and histograms with label sets
 * (per-thread, per-tenant). Get* registers on first use and returns a
 * stable pointer, so hot paths look a metric up once at setup time and
 * then touch only the cached handle. Single registry per server; not
 * thread-safe (the simulation's dataplane "threads" are coroutines on
 * one OS thread -- registration happens at construction time anyway).
 */
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  sim::Histogram* GetHistogram(const std::string& name,
                               const LabelSet& labels = {});

  /** One registered metric, for export iteration. */
  struct Entry {
    std::string name;
    LabelSet labels;
    MetricKind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const sim::Histogram* histogram = nullptr;
  };

  /** All metrics, sorted by (name, labels). */
  std::vector<Entry> Snapshot() const;

  size_t size() const { return metrics_.size(); }

 private:
  struct Slot {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<sim::Histogram> histogram;
  };
  using Key = std::pair<std::string, LabelSet>;

  Slot* Find(const Key& key, MetricKind kind);

  std::map<Key, Slot> metrics_;
};

}  // namespace reflex::obs

#endif  // REFLEX_OBS_METRICS_H_
