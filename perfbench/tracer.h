// In-memory spans recorded by the benchmark around its calls into each lbc
// layer. A span has a name, start, end, parent (the span open on the same
// thread when it began) and a transaction id (node, lock sequence). Spans
// stay in per-thread buffers while the workload runs and are merged and
// written out when the run ends.
//
// Per-update calls are never wrapped one span each: the driver aggregates a
// transaction's SetRange calls into one span carrying the call count, so the
// trace adds two clock reads per transaction and layer, not per update.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct SpanRecord {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      // unique within the run, never 0
  uint64_t parent = 0;  // 0 = no enclosing span on this thread
  uint32_t node = 0;
  uint64_t seq = 0;     // lock sequence of the transaction, when known
  uint64_t count = 1;   // calls aggregated into this span

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static Tracer& Get();

  // Spans opened while disabled are not recorded.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops every recorded span. Call only while no span is open.
  void Clear();
  // Every recorded span, thread by thread in start order.
  std::vector<SpanRecord> Collect() const;

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    uint64_t thread_index = 0;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  // indices of this thread's open spans
  };
  ThreadLog* Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint32_t node = 0, uint64_t count = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_seq(uint64_t seq);

 private:
  Tracer::ThreadLog* log_ = nullptr;
  size_t index_ = 0;
};

// Per-name totals over a set of spans. Self time is a span's duration minus
// the time its child spans cover.
struct SpanTotals {
  uint64_t spans = 0;
  uint64_t calls = 0;  // sum of the spans' counts
  double total_ns = 0;
  double self_ns = 0;

  double MeanUs() const { return spans ? total_ns / static_cast<double>(spans) / 1e3 : 0; }
  double MeanSelfUs() const { return spans ? self_ns / static_cast<double>(spans) / 1e3 : 0; }
};
std::map<std::string, SpanTotals> Totalize(const std::vector<SpanRecord>& spans);

// Share (in %) of the named root spans' time that their direct children
// account for.
double ChildCoveragePct(const std::vector<SpanRecord>& spans, const std::string& root);

// Writes one CSV row per span: name,start_ns,end_ns,id,parent,node,seq,count.
bool WriteSpansCsv(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
