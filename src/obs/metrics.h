// Process-wide observability: cheap thread-safe metric instruments.
//
// The paper's evaluation (§4) is a measurement exercise — per-phase commit
// overhead (detect/collect/network/apply), bytes-on-wire, messages per
// traversal. This module gives every layer one way to publish those numbers:
//
//   * Counter    — monotonically increasing uint64 (relaxed atomic add).
//   * Gauge      — instantaneous int64 level (cache sizes, queue depths).
//   * Histogram  — fixed-bucket log2-scale latency distribution in nanos.
//
// Instruments are owned by a MetricsRegistry and live for the registry's
// lifetime, so pointers handed out by GetCounter() & co. are stable and may
// be cached in member fields. A class that counts per instance owns its
// counters instead and exports them with an obs::Attachment (below). Either
// way the hot path is one relaxed atomic add:
//
//   register once (constructor):   attached_(reg, "lbc.n1.", {{"sends", &sends_}})
//   bump on the hot path:          sends_.Add(n);
//
// Registry lookups take a mutex and must stay OFF hot paths.
//
// Timing is integer nanoseconds end-to-end. The previous per-module pattern
//   stats_.x_nanos += uint64_t(timer.ElapsedSeconds() * 1e9)
// round-trips every sample through double and truncates; ScopedTimer reads
// base::Clock::NowNanos() (already integral) and never converts.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/sync.h"

namespace obs {

// Monotonic counter. All operations are wait-free relaxed atomics; value()
// taken while writers run is a coherent point-in-time sample of this counter
// (no cross-counter consistency, which snapshots do not need).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level; may go down.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket log2-scale histogram for nanosecond latencies.
//
// Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b). 65 buckets
// cover the full uint64 range, so Record() is a branch-free bucket index
// (std::bit_width) plus a handful of relaxed atomic updates — safe on any
// hot path. count/sum/min/max are exact; Percentile() is approximate (bucket
// upper bound), which is all log-scale latency reporting needs.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // min()/max() are 0 when the histogram is empty.
  uint64_t min() const;
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  // Upper bound of the bucket holding the nearest-rank p-th percentile
  // sample (p in [0,100]): the ceil(p/100 * n)-th smallest, rank clamped to
  // [1, n]. Returns 0 for an empty histogram.
  uint64_t PercentileUpperBound(double p) const;

  std::array<uint64_t, kBuckets> BucketCounts() const;
  // Smallest value that lands in bucket b.
  static uint64_t BucketLowerBound(int b) { return b == 0 ? 0 : uint64_t{1} << (b - 1); }
  static int BucketOf(uint64_t v);

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// Name -> instrument map. Find-or-create is idempotent: two callers asking
// for the same name share one instrument. A name denotes one kind of
// instrument; asking for "x" as a counter after it was created as a gauge
// aborts (programming error, caught in tests).
//
// A counter name may also carry instance-owned counters (Attach). Its
// exported value is the registry's own counter, plus every attached one,
// plus the final values of detached ones (Detach folds them into the
// registry's own). So an export is process-wide and never decreases, while
// each instance's counters count only its own events. GetCounter returns
// the registry's own counter, not that sum: read a name's total with
// CounterValue() or TakeSnapshot().
//
// Metric naming scheme (see DESIGN.md "Observability"):
//   <module>.n<node>.<metric>   e.g. rvm.n3.apply_nanos
//   <module>.<metric>           for process-wide metrics, e.g. store.syncs
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry used by the production wiring. Unit tests that
  // need isolation construct their own registry.
  static MetricsRegistry* Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  struct HistogramSnapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;  // bucket upper bounds
    uint64_t p99 = 0;
    // (bucket lower bound, count) for non-empty buckets, ascending.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
  };
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot TakeSnapshot() const;

  // Exported value of counter `name` (see above); 0 if never registered.
  uint64_t CounterValue(const std::string& name) const;

  // (metric, instance-owned counter). A metric containing a dot is a full
  // export name; any other is appended to the caller's prefix, e.g.
  // "rvm.n3." + "apply_nanos". Attach takes the lock once for all bindings
  // and records where each went in `out` (one entry per binding); Detach
  // folds each counter's final value into its name's total, so events
  // counted afterwards are not exported. Bindings carry no strings: once a
  // name exists, attaching allocates nothing per binding, which keeps
  // instance set-up and tear-down from churning the heap.
  using Binding = std::pair<const char*, Counter*>;
  struct Attached {
    Counter* own;                 // the registry's counter under the name
    std::vector<Counter*>* live;  // the name's attached counters
    Counter* counter;
  };
  void Attach(const std::string& prefix, std::initializer_list<Binding> bindings,
              Attached* out);
  void Detach(const Attached* attached, size_t n);

  // Zeroes every instrument (pointers stay valid), attached counters
  // included: the exports and the instances restart from zero together.
  // For test isolation and for benches that snapshot per-configuration.
  void ResetAll();

 private:
  mutable base::Mutex mu_{"obs.metrics", base::LockRank::kObs};
  std::map<std::string, std::unique_ptr<Counter>> counters_ LBC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LBC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ LBC_GUARDED_BY(mu_);
  std::map<std::string, std::vector<Counter*>> attached_ LBC_GUARDED_BY(mu_);
};

// Keeps instance-owned counters attached for its lifetime. Declare it
// after the counters it binds, so it detaches first.
class Attachment {
 public:
  Attachment(MetricsRegistry* registry, const std::string& prefix,
             std::initializer_list<MetricsRegistry::Binding> bindings)
      : registry_(registry), attached_(bindings.size()) {
    registry_->Attach(prefix, bindings, attached_.data());
  }
  ~Attachment() { registry_->Detach(attached_.data(), attached_.size()); }
  Attachment(const Attachment&) = delete;
  Attachment& operator=(const Attachment&) = delete;

 private:
  MetricsRegistry* registry_;
  std::vector<MetricsRegistry::Attached> attached_;
};

// "rvm" + 3 + "apply_nanos" -> "rvm.n3.apply_nanos".
std::string NodeMetricName(const std::string& module, uint64_t node,
                           const std::string& metric);

// Scoped integer-nanosecond timer. On StopNanos() (or destruction) the
// elapsed nanos are added to `counter` and recorded into `histogram`; either
// may be null. The reading is integral end-to-end — no double round-trip —
// so N accumulated short samples sum to the same total as one long sample,
// modulo only the clock's own resolution.
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter* counter, Histogram* histogram = nullptr,
                       const base::Clock* clock = nullptr)
      : counter_(counter),
        histogram_(histogram),
        clock_(clock ? clock : base::SteadyClock::Instance()),
        start_nanos_(clock_->NowNanos()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (!stopped_) StopNanos();
  }

  // Stops the timer, publishes the sample, returns elapsed nanos. Idempotent:
  // later calls return the first reading without re-publishing.
  uint64_t StopNanos() {
    if (stopped_) return elapsed_nanos_;
    stopped_ = true;
    uint64_t now = clock_->NowNanos();
    elapsed_nanos_ = now >= start_nanos_ ? now - start_nanos_ : 0;
    if (counter_ != nullptr) counter_->Add(elapsed_nanos_);
    if (histogram_ != nullptr) histogram_->Record(elapsed_nanos_);
    return elapsed_nanos_;
  }

 private:
  Counter* counter_;
  Histogram* histogram_;
  const base::Clock* clock_;
  uint64_t start_nanos_;
  uint64_t elapsed_nanos_ = 0;
  bool stopped_ = false;
};

}  // namespace obs

#endif  // SRC_OBS_METRICS_H_
