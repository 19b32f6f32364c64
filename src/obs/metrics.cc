#include "obs/metrics.h"

#include <algorithm>
#include <cctype>

#include "sim/logging.h"

namespace reflex::obs {

LabelSet::LabelSet(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [k, v] : kv) Set(k, v);
}

bool NaturalLess(const std::string& a, const std::string& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const bool da = std::isdigit(static_cast<unsigned char>(a[i])) != 0;
    const bool db = std::isdigit(static_cast<unsigned char>(b[j])) != 0;
    if (da && db) {
      // Compare the two digit runs as numbers: strip leading zeros,
      // then a longer run is larger, then byte order decides. Shorter
      // zero-padding breaks exact-value ties ("02" < "2") so distinct
      // renderings stay distinct keys.
      const size_t ia = i, jb = j;
      while (i < a.size() && a[i] == '0') ++i;
      while (j < b.size() && b[j] == '0') ++j;
      size_t ea = i, eb = j;
      while (ea < a.size() && std::isdigit(static_cast<unsigned char>(a[ea]))) {
        ++ea;
      }
      while (eb < b.size() && std::isdigit(static_cast<unsigned char>(b[eb]))) {
        ++eb;
      }
      if (ea - i != eb - j) return ea - i < eb - j;
      for (; i < ea; ++i, ++j) {
        if (a[i] != b[j]) return a[i] < b[j];
      }
      if (i - ia != j - jb) return i - ia > j - jb;  // more zeros first
    } else {
      if (a[i] != b[j]) return a[i] < b[j];
      ++i;
      ++j;
    }
  }
  return a.size() - i < b.size() - j;
}

bool LabelSet::operator<(const LabelSet& other) const {
  const size_t n = std::min(entries_.size(), other.entries_.size());
  for (size_t k = 0; k < n; ++k) {
    if (entries_[k].first != other.entries_[k].first) {
      return NaturalLess(entries_[k].first, other.entries_[k].first);
    }
    if (entries_[k].second != other.entries_[k].second) {
      return NaturalLess(entries_[k].second, other.entries_[k].second);
    }
  }
  return entries_.size() < other.entries_.size();
}

void LabelSet::Set(const std::string& key, const std::string& value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it != entries_.end() && it->first == key) {
    it->second = value;
  } else {
    entries_.insert(it, {key, value});
  }
}

std::string LabelSet::Render() const {
  if (entries_.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ",";
    out += entries_[i].first + "=" + entries_[i].second;
  }
  out += "}";
  return out;
}

LabelSet Label(const std::string& key, int64_t value) {
  LabelSet labels;
  labels.Set(key, std::to_string(value));
  return labels;
}

LabelSet Label(const std::string& key, const std::string& value) {
  LabelSet labels;
  labels.Set(key, value);
  return labels;
}

MetricsRegistry::Slot* MetricsRegistry::Find(const Key& key,
                                             MetricKind kind) {
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    REFLEX_CHECK(it->second.kind == kind);
    return &it->second;
  }
  Slot slot;
  slot.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      slot.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      slot.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      slot.histogram = std::make_unique<sim::Histogram>();
      break;
  }
  auto [inserted, ok] = metrics_.emplace(key, std::move(slot));
  REFLEX_CHECK(ok);
  return &inserted->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  return Find({name, labels}, MetricKind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  return Find({name, labels}, MetricKind::kGauge)->gauge.get();
}

sim::Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                              const LabelSet& labels) {
  return Find({name, labels}, MetricKind::kHistogram)->histogram.get();
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::Snapshot() const {
  std::vector<Entry> out;
  out.reserve(metrics_.size());
  for (const auto& [key, slot] : metrics_) {
    Entry e;
    e.name = key.first;
    e.labels = key.second;
    e.kind = slot.kind;
    e.counter = slot.counter.get();
    e.gauge = slot.gauge.get();
    e.histogram = slot.histogram.get();
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace reflex::obs
