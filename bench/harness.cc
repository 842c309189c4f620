#include "bench/harness.h"

#include <cstdio>
#include <cstring>

#include "src/base/clock.h"
#include "src/base/logging.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/replay_on_demand.h"
#include "src/rvm/scrub.h"

namespace bench {

Oo7Harness::Oo7Harness(HarnessOptions options) : options_(std::move(options)) {
  cluster_ = std::make_unique<lbc::Cluster>(&store_);
  cluster_->DefineLock(kLock, kRegion, /*manager=*/1);

  // Build the database image and install it as the region's database file,
  // standing in for a store populated by an earlier design session.
  db_size_ = oo7::Database::RequiredSize(options_.config);
  std::vector<uint8_t> image(db_size_, 0);
  LBC_CHECK_OK(oo7::Database::Build(image.data(), image.size(), options_.config));
  {
    auto file = std::move(*store_.Open(rvm::RegionFileName(kRegion), /*create=*/true));
    LBC_CHECK_OK(file->Write(0, base::ByteSpan(image.data(), image.size())));
    LBC_CHECK_OK(file->Sync());
  }

  lbc::ClientOptions opts = options_.client;
  opts.rvm.disk_logging = options_.disk_logging;
  for (int i = 0; i <= options_.num_receivers; ++i) {
    auto client = std::move(*lbc::Client::Create(cluster_.get(), 1 + i, opts));
    LBC_CHECK_OK(client->MapRegion(kRegion, db_size_).status());
    clients_.push_back(std::move(client));
  }
}

Oo7Harness::~Oo7Harness() = default;

void Oo7Harness::ResetAllStats() {
  for (auto& client : clients_) {
    client->ResetStats();
    client->rvm()->ResetStats();
  }
}

TraversalRun Oo7Harness::Run(const std::string& name) {
  ResetAllStats();
  TraversalRun run;
  run.name = name;

  lbc::Client* writer = clients_[0].get();
  oo7::Database db(writer->GetRegion(kRegion)->data());

  base::Stopwatch total;
  lbc::Transaction txn = writer->Begin(rvm::RestoreMode::kNoRestore);
  LBC_CHECK_OK(txn.Acquire(kLock));
  RecordingSink sink;

  if (name == "T1") {
    run.result = oo7::RunT1(db);
  } else if (name == "T6") {
    run.result = oo7::RunT6(db);
  } else if (name.rfind("T2-", 0) == 0 || name.rfind("T3-", 0) == 0 ||
             name.rfind("T12-", 0) == 0) {
    char v = name.back();
    oo7::Variant variant = v == 'A'   ? oo7::Variant::kA
                           : v == 'B' ? oo7::Variant::kB
                                      : oo7::Variant::kC;
    if (name.rfind("T2-", 0) == 0) {
      run.result = oo7::RunT2(db, sink, variant);
    } else if (name.rfind("T3-", 0) == 0) {
      run.result = oo7::RunT3(db, sink, variant);
    } else {
      run.result = oo7::RunT12(db, sink, variant);
    }
  } else {
    LBC_CHECK(false && "unknown traversal");
  }
  LBC_CHECK_OK(run.result.status);
  run.measured.detect_us = sink.IssueTimed(
      [&](uint64_t offset, uint64_t len) { return txn.SetRange(kRegion, offset, len); });
  LBC_CHECK_OK(txn.Commit(rvm::CommitMode::kFlush));
  bool made_updates = writer->rvm()->stats().transactions_committed > 0 &&
                      writer->rvm()->stats().bytes_logged > 0;
  if (made_updates) {
    ++committed_seq_;
  }
  run.measured.total_us = total.ElapsedMicros();

  // Let every receiver finish applying before reading stats / comparing.
  // Under lazy propagation nothing travels until the next acquire, so there
  // is nothing to wait for (and caches are expected to be stale).
  bool eager = options_.client.policy == lbc::PropagationPolicy::kEager;
  for (size_t i = 1; i < clients_.size(); ++i) {
    if (made_updates && eager) {
      LBC_CHECK(clients_[i]->WaitForAppliedSeq(kLock, committed_seq_, /*timeout_ms=*/30000));
    }
  }

  const rvm::RvmStats w = writer->rvm()->stats();
  lbc::ClientStats ws = writer->stats();
  run.profile.updates = w.set_range_calls;
  run.profile.bytes_updated = w.bytes_logged;
  run.profile.pages_updated = w.pages_logged;
  // Message bytes to ONE peer (Table 3's configuration); updates_sent counts
  // per-peer sends.
  run.profile.message_bytes =
      ws.updates_sent == 0 ? 0 : ws.update_bytes_sent / ws.updates_sent;
  run.profile.updates_ordered = false;
  run.profile.updates_redundant = name.back() == 'C' && name.rfind("T3-", 0) != 0;

  run.measured.collect_us = static_cast<double>(w.collect_nanos) / 1e3;
  run.measured.disk_us = static_cast<double>(w.disk_nanos) / 1e3;
  run.measured.network_us = static_cast<double>(ws.network_nanos) / 1e3;
  double apply_ns = 0;
  for (size_t i = 1; i < clients_.size(); ++i) {
    apply_ns += static_cast<double>(clients_[i]->rvm()->stats().apply_nanos);
  }
  run.measured.apply_us = apply_ns / 1e3;

  // Correctness: every receiver's cache must now equal the writer's.
  run.caches_match = true;
  for (size_t i = 1; i < clients_.size(); ++i) {
    const rvm::Region* a = writer->GetRegion(kRegion);
    const rvm::Region* b = clients_[i]->GetRegion(kRegion);
    if (std::memcmp(a->data(), b->data(), a->size()) != 0) {
      run.caches_match = false;
    }
  }
  return run;
}

void PrintProfileTableHeader() {
  std::printf("%-8s %10s %14s %14s %14s\n", "Traversal", "Updates", "Bytes Updated",
              "Message Bytes", "Pages Updated");
}

void PrintProfileRow(const TraversalRun& run) {
  std::printf("%-8s %10llu %14llu %14llu %14llu   %s\n", run.name.c_str(),
              static_cast<unsigned long long>(run.profile.updates),
              static_cast<unsigned long long>(run.profile.bytes_updated),
              static_cast<unsigned long long>(run.profile.message_bytes),
              static_cast<unsigned long long>(run.profile.pages_updated),
              run.caches_match ? "[caches coherent]" : "[CACHE MISMATCH]");
}

void PrintBreakdownHeader(const std::string& unit_note) {
  std::printf("%-22s %12s %12s %12s %12s %12s   (%s)\n", "Approach", "Detect", "Collect",
              "Network", "Apply", "Total", unit_note.c_str());
}

void PrintBreakdownRow(const std::string& label, const costmodel::OverheadBreakdown& b) {
  std::printf("%-22s %12.1f %12.1f %12.1f %12.1f %12.1f\n", label.c_str(), b.detect_us,
              b.collect_us, b.network_us, b.apply_us, b.TotalUs());
}

void PrintMeasuredRow(const std::string& label, const ComponentTimes& t) {
  std::printf("%-22s %12.1f %12.1f %12.1f %12.1f %12.1f\n", label.c_str(), t.detect_us,
              t.collect_us, t.network_us, t.apply_us, t.OverheadUs());
}

void RunFigureComparison(const std::vector<std::string>& names) {
  costmodel::OperationCosts alpha = costmodel::AlphaAn1Costs();
  for (const std::string& name : names) {
    bench::HarnessOptions options;  // paper-scale OO7, disk logging disabled
    bench::Oo7Harness harness(options);
    TraversalRun run = harness.Run(name);

    std::printf("--- %s  (updates=%llu bytes=%llu msg-bytes=%llu pages=%llu)%s ---\n",
                name.c_str(), static_cast<unsigned long long>(run.profile.updates),
                static_cast<unsigned long long>(run.profile.bytes_updated),
                static_cast<unsigned long long>(run.profile.message_bytes),
                static_cast<unsigned long long>(run.profile.pages_updated),
                run.caches_match ? "" : "  [CACHE MISMATCH]");
    PrintBreakdownHeader("usec");
    PrintMeasuredRow("Log (measured, host)", run.measured);
    PrintBreakdownRow("Log (model, Alpha)", costmodel::EstimateLog(alpha, run.profile));
    PrintBreakdownRow("Cpy/Cmp (model, Alpha)",
                      costmodel::EstimateCpyCmp(alpha, run.profile));
    PrintBreakdownRow("Page (model, Alpha)", costmodel::EstimatePage(alpha, run.profile));
    std::printf("\n");
  }
  std::printf("Shape check: Log wins when updates/page is small; Cpy/Cmp catches up\n"
              "as updates cluster; Page only competes when most of a page changes.\n");

  // Register the integrity/scrub counter families before snapshotting, so
  // every fig bench's BENCH_obs.json reports them — zeros included: a bench
  // run that verified no pages and repaired nothing should say so.
  rvm::GlobalIntegrityMetrics();
  rvm::GlobalScrubMetrics();
  // And the incremental-recovery family: a bench that never restarted a
  // server should report recovery.{index_build_ms,pages_on_demand,
  // pages_background,first_commit_ms} as explicit zeros.
  rvm::GlobalIncrementalRecoveryMetrics();
  // Same for the exhaustion/overload families (they register lazily on
  // their fault paths): a clean bench snapshot must state outright that the
  // quota, backpressure, admission, and gray-detection paths never fired.
  {
    auto* reg = obs::MetricsRegistry::Global();
    for (const char* name :
         {"backpressure.stalls", "backpressure.stall_nanos",
          "backpressure.trim_requests", "backpressure.exhausted",
          "admission.admitted", "admission.shed", "admission.fetch_shed",
          "admission.commit_shed", "gray.suspect_slow",
          "gray.evictions_averted", "gray.false_evictions", "gray.retries",
          "gray.backoff_nanos", "gray.deadline_misses",
          "store.resource.enospc", "store.resource.short_appends",
          "store.resource.delays", "store.resource.delay_nanos",
          "commit.batch.batches", "commit.batch.txns", "commit.batch.bytes",
          "commit.batch.fsyncs_saved"}) {
      reg->GetCounter(name);
    }
    // The batch-shape histograms, for the same reason (zeros included).
    reg->GetHistogram("commit.batch.size");
    reg->GetHistogram("commit.batch.cohort_wait_nanos");
  }
  std::string snapshot_path = obs::SnapshotPath();
  base::Status status = obs::WriteJsonSnapshot(snapshot_path);
  if (status.ok()) {
    std::printf("obs snapshot: %s\n", snapshot_path.c_str());
  } else {
    std::printf("obs snapshot failed: %s\n", status.ToString().c_str());
  }
}

}  // namespace bench
