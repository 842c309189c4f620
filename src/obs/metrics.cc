#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>

#include "src/base/logging.h"

namespace obs {

int Histogram::BucketOf(uint64_t v) {
  // 0 -> bucket 0; otherwise bit_width in [1,64] indexes [2^(b-1), 2^b).
  return v == 0 ? 0 : std::bit_width(v);
}

void Histogram::Record(uint64_t v) {
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t prev = min_.load(std::memory_order_relaxed);
  while (v < prev && !min_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (v > prev && !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::PercentileUpperBound(double p) const {
  auto counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  // Nearest rank: the ceil(p/100 * total)-th sample, 1-based, clamped to
  // [1, total]. Flooring would under-report (p50 of {1, 1000, 1000} is 1000).
  const double exact = p * static_cast<double>(total) / 100.0;
  uint64_t rank = exact <= 1.0 ? 1 : static_cast<uint64_t>(std::ceil(exact));
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      // Upper bound of bucket b (inclusive range end for reporting).
      return b == 64 ? UINT64_MAX : (uint64_t{1} << b) - (b == 0 ? 0 : 1);
    }
  }
  return max();
}

std::array<uint64_t, Histogram::kBuckets> Histogram::BucketCounts() const {
  std::array<uint64_t, kBuckets> out;
  for (int b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  base::MutexLock lock(mu_);
  LBC_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  base::MutexLock lock(mu_);
  LBC_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  base::MutexLock lock(mu_);
  LBC_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  base::MutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->value();
  }
  for (const auto& [name, live] : attached_) {
    for (const Counter* c : live) snap.counters[name] += c->value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->value();
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    hs.p50 = h->PercentileUpperBound(50);
    hs.p99 = h->PercentileUpperBound(99);
    auto counts = h->BucketCounts();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (counts[b] != 0) {
        hs.buckets.emplace_back(Histogram::BucketLowerBound(b), counts[b]);
      }
    }
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  base::MutexLock lock(mu_);
  auto it = counters_.find(name);
  uint64_t total = it == counters_.end() ? 0 : it->second->value();
  if (auto a = attached_.find(name); a != attached_.end()) {
    for (const Counter* c : a->second) total += c->value();
  }
  return total;
}

void MetricsRegistry::Attach(const std::string& prefix,
                             std::initializer_list<Binding> bindings, Attached* out) {
  base::MutexLock lock(mu_);
  std::string name;  // one buffer for every binding's name
  for (const auto& [metric, counter] : bindings) {
    name.assign(std::strchr(metric, '.') != nullptr ? "" : prefix).append(metric);
    LBC_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0);
    // The registry's own counter exports the name even at zero and
    // collects the attached counter's final value on Detach.
    auto& own = counters_[name];
    if (own == nullptr) own = std::make_unique<Counter>();
    auto& live = attached_[name];
    live.push_back(counter);
    *out++ = {own.get(), &live, counter};
  }
}

void MetricsRegistry::Detach(const Attached* attached, size_t n) {
  base::MutexLock lock(mu_);
  for (const Attached& a : std::span(attached, n)) {
    a.own->Add(a.counter->value());
    a.live->erase(std::find(a.live->begin(), a.live->end(), a.counter));
  }
}

void MetricsRegistry::ResetAll() {
  base::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, live] : attached_) {
    for (Counter* c : live) c->Reset();
  }
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string NodeMetricName(const std::string& module, uint64_t node,
                           const std::string& metric) {
  return module + ".n" + std::to_string(node) + "." + metric;
}

}  // namespace obs
