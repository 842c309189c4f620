#include "perfbench/tracer.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may outlive main's locals
  return *tracer;
}

Tracer::ThreadLog* Tracer::Local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread_index = logs_.size();
    log->spans.reserve(1 << 12);
  }
  return log;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& log : logs_) {
    log->spans.clear();
    log->open.clear();
  }
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, uint32_t node, uint64_t count) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) {
    return;
  }
  log_ = tracer.Local();
  index_ = log_->spans.size();
  SpanRecord rec;
  rec.name = name;
  rec.id = (log_->thread_index << 40) | (index_ + 1);
  rec.parent = log_->open.empty() ? 0 : log_->spans[log_->open.back()].id;
  rec.node = node;
  rec.count = count;
  log_->open.push_back(index_);
  rec.start_ns = NowNs();
  log_->spans.push_back(rec);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) {
    return;
  }
  log_->spans[index_].end_ns = NowNs();
  log_->open.pop_back();
}

void ScopedSpan::set_seq(uint64_t seq) {
  if (log_ != nullptr) {
    log_->spans[index_].seq = seq;
  }
}

namespace {

// Time covered by each span's direct children, keyed by the parent's id.
std::unordered_map<uint64_t, uint64_t> ChildTime(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> covered;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      covered[s.parent] += s.duration_ns();
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, SpanTotals> Totalize(const std::vector<SpanRecord>& spans) {
  const auto covered = ChildTime(spans);
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.spans;
    t.calls += s.count;
    const double dur = static_cast<double>(s.duration_ns());
    t.total_ns += dur;
    auto it = covered.find(s.id);
    t.self_ns += dur - (it == covered.end() ? 0.0 : static_cast<double>(it->second));
  }
  return totals;
}

double ChildCoveragePct(const std::vector<SpanRecord>& spans, const std::string& root) {
  const auto covered = ChildTime(spans);
  double total = 0;
  double children = 0;
  for (const SpanRecord& s : spans) {
    if (root != s.name) {
      continue;
    }
    total += static_cast<double>(s.duration_ns());
    auto it = covered.find(s.id);
    if (it != covered.end()) {
      children += static_cast<double>(it->second);
    }
  }
  return total > 0 ? 100.0 * children / total : 0;
}

bool WriteSpansCsv(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name,start_ns,end_ns,id,parent,node,seq,count\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%llu,%u,%llu,%llu\n", s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.node,
                 static_cast<unsigned long long>(s.seq),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
