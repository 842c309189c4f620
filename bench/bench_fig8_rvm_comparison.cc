// Figure 8: what coherency adds on top of recoverability, for the T12-A
// benchmark. Four configurations:
//   Log-Based Coherency        — coherency on, disk logging off
//   Log-Based Coherency (Disk) — coherency on, disk logging on
//   Optimized RVM              — no coherency, disk logging, §3.1-optimized
//                                set_range (exact-match + ordered hint)
//   Standard RVM               — no coherency, disk logging, classic full
//                                range coalescing
// The paper's conclusion to reproduce: LBC's only addition over optimized
// RVM is the network send — recoverability already paid for everything else.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/base/clock.h"
#include "src/base/logging.h"
#include "src/rvm/rvm.h"

namespace {

struct Row {
  std::string label;
  double detect_us, collect_us, disk_us, network_us, apply_us, total_us;
};

Row RunPlainRvm(const std::string& label, rvm::CoalesceMode mode) {
  store::MemStore store;
  oo7::Config config;
  uint64_t size = oo7::Database::RequiredSize(config);
  std::vector<uint8_t> image(size, 0);
  LBC_CHECK_OK(oo7::Database::Build(image.data(), image.size(), config));
  {
    auto file = std::move(*store.Open(rvm::RegionFileName(1), true));
    LBC_CHECK_OK(file->Write(0, base::ByteSpan(image.data(), image.size())));
  }
  rvm::RvmOptions options;
  options.coalesce = mode;
  auto rvm = std::move(*rvm::Rvm::Open(&store, 1, options));
  rvm::Region* region = *rvm->MapRegion(1, size);
  oo7::Database db(region->data());

  base::Stopwatch total;
  rvm::TxnId txn = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
  bench::RecordingSink sink;
  auto result = oo7::RunT12(db, sink, oo7::Variant::kA);
  LBC_CHECK_OK(result.status);
  const double detect_us = sink.IssueTimed(
      [&](uint64_t offset, uint64_t len) { return rvm->SetRange(txn, 1, offset, len); });
  LBC_CHECK_OK(rvm->EndTransaction(txn, rvm::CommitMode::kFlush));

  const rvm::RvmStats s = rvm->stats();
  return Row{label,
             detect_us,
             s.collect_nanos / 1e3,
             s.disk_nanos / 1e3,
             0,
             0,
             total.ElapsedMicros()};
}

Row RunLbc(const std::string& label, bool disk_logging) {
  bench::HarnessOptions options;
  options.disk_logging = disk_logging;
  bench::Oo7Harness harness(options);
  bench::TraversalRun run = harness.Run("T12-A");
  LBC_CHECK(run.caches_match);
  return Row{label,
             run.measured.detect_us,
             run.measured.collect_us,
             run.measured.disk_us,
             run.measured.network_us,
             run.measured.apply_us,
             run.measured.total_us};
}

}  // namespace

int main() {
  std::printf("=== Figure 8: coherency vs recoverability overheads (T12-A) ===\n\n");
  std::vector<Row> rows;
  rows.push_back(RunLbc("Log-Based Coherency", /*disk_logging=*/false));
  rows.push_back(RunLbc("Log-Based Coherency (Disk)", /*disk_logging=*/true));
  rows.push_back(RunPlainRvm("Optimized RVM", rvm::CoalesceMode::kExactMatch));
  rows.push_back(RunPlainRvm("Standard RVM", rvm::CoalesceMode::kFullCoalesce));

  std::printf("%-28s %10s %10s %10s %10s %10s %12s\n", "Configuration", "Detect",
              "Collect", "Disk I/O", "Network", "Apply", "overhead us");
  for (const Row& r : rows) {
    std::printf("%-28s %10.1f %10.1f %10.1f %10.1f %10.1f %12.1f\n", r.label.c_str(),
                r.detect_us, r.collect_us, r.disk_us, r.network_us, r.apply_us,
                r.detect_us + r.collect_us + r.disk_us + r.network_us + r.apply_us);
  }
  std::printf("\nExpected shape: the LBC rows add only Network (+Apply at the peer) and,\n"
              "with disk enabled, the same Disk I/O as plain RVM — the coherency\n"
              "information itself was already collected for recoverability.\n");
  return 0;
}
