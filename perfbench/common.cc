#include "perfbench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string_view>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/lbc/wire_format.h"
#include "src/rvm/recovery.h"

namespace perfbench {

void Samples::Record(uint64_t start, uint64_t op_ns, uint64_t done_ns) {
  ++committed;
  start_ns.push_back(start);
  op_ms.push_back(static_cast<double>(op_ns) / 1e6);
  done_ms.push_back(static_cast<double>(done_ns) / 1e6);
}

void Samples::Merge(const Samples& other) {
  op_ms.insert(op_ms.end(), other.op_ms.begin(), other.op_ms.end());
  ref_ms.insert(ref_ms.end(), other.ref_ms.begin(), other.ref_ms.end());
  done_ms.insert(done_ms.end(), other.done_ms.begin(), other.done_ms.end());
  start_ns.insert(start_ns.end(), other.start_ns.begin(), other.start_ns.end());
  committed += other.committed;
  attempted += other.attempted;
  failed += other.failed;
  elapsed_s = std::max(elapsed_s, other.elapsed_s);
  problems.insert(problems.end(), other.problems.begin(), other.problems.end());
}

bool Samples::Count(const base::Status& status) {
  ++attempted;
  if (!status.ok()) {
    ++failed;
    if (problems.size() < 8) {
      problems.push_back("operation failed: " + status.ToString());
    }
  }
  return status.ok();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

ReferenceKernel::ReferenceKernel() : next_(1u << 23), from_(1u << 22, 1), to_(1u << 22, 0) {
  std::vector<uint32_t> order(next_.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  base::Rng rng(0x5EEDull);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    next_[order[i]] = order[(i + 1) % order.size()];
  }
}

ReferenceKernel& ReferenceKernel::Get() {
  static ReferenceKernel* kernel = new ReferenceKernel();  // never destroyed, as the tracer
  return *kernel;
}

double ReferenceKernel::RunCpuMs() {
  constexpr int kSteps = 10000;
  const uint64_t t0 = ThreadCpuNs();
  for (int i = 0; i < kSteps; ++i) {
    at_ = next_[at_];
  }
  std::memcpy(to_.data(), from_.data(), from_.size());
  from_[0] = static_cast<uint8_t>(at_ + to_[0]);  // a result the compiler must keep
  return static_cast<double>(ThreadCpuNs() - t0) / 1e6;
}

void ProcessCpuClock::ListThreads() {
  clocks_.clear();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const clockid_t tid = std::atoi(entry.path().filename().c_str());
    // The kernel's CPU clock of thread `tid`, built as pthread_getcpuclockid
    // builds it: ~tid in the upper bits, then "per thread" and "scheduler".
    clocks_.push_back(static_cast<clockid_t>((~tid) * 8 + 6));
  }
}

uint64_t ProcessCpuClock::NowNs() const {
  uint64_t total = 0;
  for (const clockid_t clock : clocks_) {
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {  // fails once the thread has exited
      total += static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
               static_cast<uint64_t>(ts.tv_nsec);
    }
  }
  return total;
}

double Samples::WindowedPercentile(const std::vector<double>& ms, double p) const {
  std::vector<size_t> order(ms.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return start_ns[a] < start_ns[b]; });
  std::vector<double> tails;
  for (int w = 0; w < kTailWindows; ++w) {
    const size_t lo = order.size() * static_cast<size_t>(w) / kTailWindows;
    const size_t hi = order.size() * static_cast<size_t>(w + 1) / kTailWindows;
    std::vector<double> slice;
    for (size_t i = lo; i < hi; ++i) {
      slice.push_back(ms[order[i]]);
    }
    tails.push_back(Percentile(slice, p));
  }
  return Percentile(tails, 50);
}

lbc::Client* World::AddClient(rvm::NodeId node) {
  lbc::ClientOptions options;  // eager propagation, disk logging on
  auto created = lbc::Client::Create(&cluster, node, options);
  LBC_CHECK_OK(created.status());
  clients.push_back(std::move(*created));
  return clients.back().get();
}

std::vector<uint8_t> World::ReadRegionFile(rvm::RegionId region, uint64_t length) {
  std::vector<uint8_t> image(length, 0);
  auto file = mem.Open(rvm::RegionFileName(region), /*create=*/false);
  if (file.ok()) {
    auto n = (*file)->Read(0, image.data(), image.size());
    (void)n;  // a short file reads as zeros past its end, as MapRegion sees it
  }
  return image;
}

LayerCounters LayerCounters::Read(World& world) {
  LayerCounters out;
  for (auto& client : world.clients) {
    const lbc::ClientStats c = client->stats();
    out.client.updates_sent += c.updates_sent;
    out.client.update_bytes_sent += c.update_bytes_sent;
    out.client.updates_received += c.updates_received;
    out.client.updates_held += c.updates_held;
    out.client.lock_messages_sent += c.lock_messages_sent;
    out.client.acquire_waits += c.acquire_waits;
    const rvm::RvmStats r = client->rvm()->stats();
    out.rvm.transactions_committed += r.transactions_committed;
    out.rvm.ranges_logged += r.ranges_logged;
    out.rvm.bytes_logged += r.bytes_logged;
    out.rvm.log_bytes_written += r.log_bytes_written;
    out.rvm.commit_batches += r.commit_batches;
    out.rvm.commit_batch_txns += r.commit_batch_txns;
    out.rvm.fsyncs_saved += r.fsyncs_saved;
    netsim::Endpoint* endpoint = world.cluster.fabric()->GetNode(client->node());
    if (endpoint != nullptr) {
      const netsim::EndpointStats e = endpoint->stats();
      out.net.messages_sent += e.messages_sent;
      out.net.bytes_sent += e.bytes_sent;
    }
  }
  out.store = world.store.counts();
  auto* registry = obs::MetricsRegistry::Global();
  out.pages_on_demand = registry->GetCounter("recovery.pages_on_demand")->value();
  out.pages_background = registry->GetCounter("recovery.pages_background")->value();
  return out;
}

LayerCounters LayerCounters::operator-(const LayerCounters& e) const {
  LayerCounters d;
  d.client.updates_sent = client.updates_sent - e.client.updates_sent;
  d.client.update_bytes_sent = client.update_bytes_sent - e.client.update_bytes_sent;
  d.client.updates_received = client.updates_received - e.client.updates_received;
  d.client.updates_held = client.updates_held - e.client.updates_held;
  d.client.lock_messages_sent = client.lock_messages_sent - e.client.lock_messages_sent;
  d.client.acquire_waits = client.acquire_waits - e.client.acquire_waits;
  d.rvm.transactions_committed = rvm.transactions_committed - e.rvm.transactions_committed;
  d.rvm.ranges_logged = rvm.ranges_logged - e.rvm.ranges_logged;
  d.rvm.bytes_logged = rvm.bytes_logged - e.rvm.bytes_logged;
  d.rvm.log_bytes_written = rvm.log_bytes_written - e.rvm.log_bytes_written;
  d.rvm.commit_batches = rvm.commit_batches - e.rvm.commit_batches;
  d.rvm.commit_batch_txns = rvm.commit_batch_txns - e.rvm.commit_batch_txns;
  d.rvm.fsyncs_saved = rvm.fsyncs_saved - e.rvm.fsyncs_saved;
  d.net.messages_sent = net.messages_sent - e.net.messages_sent;
  d.net.bytes_sent = net.bytes_sent - e.net.bytes_sent;
  d.store = store - e.store;
  d.pages_on_demand = pages_on_demand - e.pages_on_demand;
  d.pages_background = pages_background - e.pages_background;
  return d;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double D(uint64_t v) { return static_cast<double>(v); }

// Number of `root` spans overlapping any `window` span in time.
uint64_t CountOverlapping(const std::vector<SpanRecord>& spans, const std::string& root,
                          const std::string& window) {
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (const SpanRecord& s : spans) {
    if (window == s.name) {
      windows.emplace_back(s.start_ns, s.end_ns);
    }
  }
  uint64_t n = 0;
  for (const SpanRecord& s : spans) {
    if (root != s.name) {
      continue;
    }
    for (const auto& [lo, hi] : windows) {
      if (s.start_ns < hi && lo < s.end_ns) {
        ++n;
        break;
      }
    }
  }
  return n;
}

// Database-file (region and sidecar) store operations that start between a
// RestartServer call and the return of the first commit after it, per restart.
double DbOpsPerRestart(const std::vector<SpanRecord>& spans) {
  std::vector<uint64_t> starts;
  std::vector<uint64_t> ends;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, "cluster.restart") == 0) {
      starts.push_back(s.start_ns);
    } else if (std::strcmp(s.name, "cluster.first_commit") == 0) {
      ends.push_back(s.end_ns);
    }
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  const size_t restarts = std::min(starts.size(), ends.size());
  uint64_t ops = 0;
  for (const SpanRecord& s : spans) {
    const std::string_view name = s.name;
    if (!name.starts_with("store.region.") && !name.starts_with("store.sidecar.")) {
      continue;
    }
    for (size_t i = 0; i < restarts; ++i) {
      if (starts[i] <= s.start_ns && s.start_ns < ends[i]) {
        ++ops;
        break;
      }
    }
  }
  return Ratio(D(ops), D(restarts));
}

}  // namespace

void AddCommonLayerMetrics(const std::vector<SpanRecord>& spans, const LayerCounters& d,
                           const Samples& samples, std::vector<Metric>* out) {
  const auto totals = Totalize(spans);
  auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals set_range = get("lbc.set_range");
  const SpanTotals acquire = get("lbc.acquire");
  const SpanTotals checkpoint = get("cluster.checkpoint");
  const double committed = D(samples.committed);
  // The log is written by Write and Append; both count as appends.
  const auto& log_write = d.store.at(FileClass::kLog, StoreOp::kWrite);
  const auto& log_append = d.store.at(FileClass::kLog, StoreOp::kAppend);
  const auto& log_sync = d.store.at(FileClass::kLog, StoreOp::kSync);
  const double ranges_per_txn = Ratio(D(d.rvm.ranges_logged), D(d.rvm.transactions_committed));
  const double bytes_per_update_msg =
      Ratio(D(d.client.update_bytes_sent), D(d.client.updates_sent));

  out->push_back({"lbc.set_range.ns_per_call", Ratio(set_range.total_ns, D(set_range.calls)),
                  "ns"});
  out->push_back({"lbc.commit.self_us", get("lbc.commit").MeanSelfUs(), "us"});
  out->push_back({"lbc.acquire.us", acquire.MeanUs(), "us"});
  out->push_back({"lbc.propagate.us", get("lbc.propagate").MeanUs(), "us"});
  out->push_back({"lbc.interlock_wait_ratio",
                  Ratio(D(d.client.acquire_waits), D(acquire.calls)), "1"});
  out->push_back({"lbc.lock_msgs_per_acquire",
                  Ratio(D(d.client.lock_messages_sent), D(acquire.calls)), "count"});
  out->push_back({"lbc.held_ratio",
                  Ratio(D(d.client.updates_held), D(d.client.updates_received)), "1"});
  out->push_back({"wire.bytes_per_range", Ratio(bytes_per_update_msg, ranges_per_txn), "B"});
  out->push_back({"netsim.msgs_per_txn", Ratio(D(d.net.messages_sent), committed), "count"});
  out->push_back({"netsim.bytes_per_txn", Ratio(D(d.net.bytes_sent), committed), "B"});
  out->push_back({"rvm.ranges_per_txn", ranges_per_txn, "count"});
  out->push_back({"rvm.log_bytes_per_user_byte",
                  Ratio(D(d.rvm.log_bytes_written), D(d.rvm.bytes_logged)), "1"});
  out->push_back({"rvm.txns_per_batch",
                  Ratio(D(d.rvm.commit_batch_txns), D(d.rvm.commit_batches)), "count"});
  out->push_back({"rvm.fsyncs_saved_ratio",
                  Ratio(D(d.rvm.fsyncs_saved), D(d.rvm.transactions_committed)), "1"});
  out->push_back({"store.append.us",
                  Ratio(D(log_write.nanos + log_append.nanos), D(log_write.ops + log_append.ops)) /
                      1e3,
                  "us"});
  out->push_back({"store.sync.us", Ratio(D(log_sync.nanos), D(log_sync.ops)) / 1e3, "us"});
  out->push_back({"store.syncs_per_txn", Ratio(D(log_sync.ops), committed), "count"});
  out->push_back({"store.write_bytes_per_user_byte",
                  Ratio(D(d.store.BytesWritten()), D(d.rvm.bytes_logged)), "1"});
  out->push_back({"store.db_ops_per_restart", DbOpsPerRestart(spans), "count"});
  out->push_back({"cluster.checkpoint.ms", checkpoint.MeanUs() / 1e3, "ms"});
  out->push_back({"cluster.checkpoint.commits_blocked",
                  Ratio(D(CountOverlapping(spans, "txn", "cluster.checkpoint")),
                        D(checkpoint.spans)),
                  "count"});
  out->push_back({"cluster.restart.ms", get("cluster.restart").MeanUs() / 1e3, "ms"});
  out->push_back({"cluster.first_commit.ms", get("cluster.first_commit").MeanUs() / 1e3, "ms"});
  out->push_back({"cluster.drain.ms", get("cluster.drain").MeanUs() / 1e3, "ms"});
  out->push_back({"recovery.pages_on_demand", D(d.pages_on_demand), "count"});
  out->push_back({"recovery.pages_background", D(d.pages_background), "count"});
  out->push_back({"oo7.traverse.self_us", get("oo7.traverse").MeanSelfUs(), "us"});
  out->push_back({"trace.txn_accounted_pct", ChildCoveragePct(spans, "txn"), "%"});
}

void AddWireMetrics(World& world, std::vector<Metric>* out) {
  // The workload's own committed records, read back from every node's log.
  // Capped so a long run does not turn this into a second benchmark.
  constexpr uint64_t kMaxRanges = 200000;
  std::vector<rvm::TransactionRecord> records;
  uint64_t ranges = 0;
  for (auto& client : world.clients) {
    auto txns = rvm::ReadLogTransactions(&world.mem, rvm::LogFileName(client->node()));
    if (!txns.ok()) {
      continue;
    }
    for (auto& rec : *txns) {
      if (rec.ranges.empty() || ranges >= kMaxRanges) {
        continue;
      }
      ranges += rec.ranges.size();
      records.push_back(std::move(rec));
    }
  }
  double encode_ns = 0;
  double decode_ns = 0;
  if (ranges > 0) {
    // Repeat each pass until it has run for at least 20 ms, so the clock's
    // resolution and one-off cache misses do not show.
    constexpr uint64_t kMinNanos = 20'000'000;
    std::vector<std::vector<uint8_t>> encoded(records.size());
    uint64_t passes = 0;
    const uint64_t t0 = NowNs();
    do {
      for (size_t i = 0; i < records.size(); ++i) {
        encoded[i] = lbc::EncodeUpdateRecord(records[i], /*compress_headers=*/true);
      }
      ++passes;
    } while (NowNs() - t0 < kMinNanos);
    encode_ns = D(NowNs() - t0) / D(passes * ranges);

    passes = 0;
    bool decoded_ok = true;
    rvm::TransactionRecord scratch;
    const uint64_t t1 = NowNs();
    do {
      for (const auto& bytes : encoded) {
        decoded_ok = decoded_ok && lbc::DecodeUpdate(base::ByteSpan(bytes), &scratch).ok();
      }
      ++passes;
    } while (NowNs() - t1 < kMinNanos);
    decode_ns = decoded_ok ? D(NowNs() - t1) / D(passes * ranges) : 0;
  }
  out->push_back({"wire.encode.ns_per_range", encode_ns, "ns"});
  out->push_back({"wire.decode.ns_per_range", decode_ns, "ns"});
}

void CheckEqual(const std::string& what, const uint8_t* expected, const uint8_t* actual,
                uint64_t len, std::vector<std::string>* problems) {
  if (std::memcmp(expected, actual, len) == 0) {
    return;
  }
  uint64_t at = 0;
  while (at < len && expected[at] == actual[at]) {
    ++at;
  }
  problems->push_back(what + ": images differ at offset " + std::to_string(at));
}

}  // namespace perfbench
