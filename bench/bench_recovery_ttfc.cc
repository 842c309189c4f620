// Time-to-first-commit after a server restart: replay-before-serve vs
// serve-first recovery.
//
// The store injects 2 ms of latency into every database-file op (region_*
// data and sidecar files) while log reads stay fast — the classic recovery
// shape where replaying the redo into the database dominates boot. A fixed
// per-region workload is committed, the server is killed, and the clock runs
// from RestartServer to the first successful commit afterward:
//
//   * replay-before-serve (the reference): RestartServer -> DrainRecovery ->
//     first commit. Every region's redo is replayed before the commit, so
//     TTFC grows linearly with the number of regions (the log volume).
//   * serve-first (what the cluster does): RestartServer -> first commit.
//     Boot only builds the per-page log index (a read-only scan), so TTFC
//     stays ~constant; pages materialize on first touch and in the
//     background drain, off the commit path.
//
// The final `recovery_ttfc:` line (largest region count) is the smoke gate:
// scripts/check.sh --bench-smoke fails when the replay-before-serve /
// serve-first TTFC ratio regresses below 80% of bench/BENCH_baseline.json's
// checked-in floor.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/lbc/client.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/replay_on_demand.h"
#include "src/rvm/types.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"

namespace {

constexpr uint64_t kRegionSize = rvm::kDbPageSize;  // one page per region
constexpr int kCommitsPerRegion = 2;
constexpr uint64_t kDbLatencyNanos = 2'000'000;  // per database-file op

rvm::LockId LockFor(int region) { return static_cast<rvm::LockId>(region * 10 + 1); }

struct TtfcResult {
  double restart_ms = 0;      // RestartServer (+ DrainRecovery) wall time
  double ttfc_ms = 0;         // restart start -> first commit done
  uint64_t index_build_ms = 0;   // counter delta
  uint64_t lazy_pages = 0;       // on-demand + background page replays
};

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global()->GetCounter(name)->value();
}

// replay_first: drain every pending page before the first commit (the
// reference); otherwise serve first and drain after the measurement.
TtfcResult MeasureTtfc(int regions, bool replay_first) {
  store::MemStore mem;
  store::ResourceStore store(&mem);
  lbc::Cluster cluster(&store);
  for (int r = 1; r <= regions; ++r) {
    cluster.DefineLock(LockFor(r), static_cast<rvm::RegionId>(r), 1);
  }
  auto client = std::move(*lbc::Client::Create(&cluster, 1, lbc::ClientOptions{}));
  for (int r = 1; r <= regions; ++r) {
    if (!client->MapRegion(static_cast<rvm::RegionId>(r), kRegionSize).ok()) {
      std::fprintf(stderr, "MapRegion %d failed\n", r);
      std::exit(1);
    }
  }
  // The committed volume the boot replay must carry grows with the region
  // count: kCommitsPerRegion full-page writes per region.
  for (int i = 0; i < kCommitsPerRegion; ++i) {
    for (int r = 1; r <= regions; ++r) {
      lbc::Transaction txn = client->Begin();
      if (!txn.Acquire(LockFor(r)).ok() ||
          !txn.SetRange(static_cast<rvm::RegionId>(r), 0, kRegionSize).ok()) {
        std::fprintf(stderr, "setup txn failed\n");
        std::exit(1);
      }
      std::memset(client->GetRegion(static_cast<rvm::RegionId>(r))->data(),
                  static_cast<uint8_t>(0x40 + i), kRegionSize);
      if (!txn.Commit(rvm::CommitMode::kFlush).ok()) {
        std::fprintf(stderr, "setup commit failed\n");
        std::exit(1);
      }
    }
  }

  // The expensive disk: every database-file op (data pages and checksum
  // sidecars both match "region_") costs 2 ms. Log files stay fast.
  store.InjectLatency("region_", kDbLatencyNanos, 0);

  TtfcResult out;
  const uint64_t index_before = Counter("recovery.index_build_ms");
  const uint64_t lazy_before =
      Counter("recovery.pages_on_demand") + Counter("recovery.pages_background");

  cluster.KillServer();
  const auto t0 = std::chrono::steady_clock::now();
  if (!cluster.RestartServer().ok()) {
    std::fprintf(stderr, "RestartServer failed\n");
    std::exit(1);
  }
  if (replay_first && !cluster.DrainRecovery().ok()) {
    std::fprintf(stderr, "DrainRecovery failed\n");
    std::exit(1);
  }
  const auto t_restart = std::chrono::steady_clock::now();
  if (!client->RejoinServer().ok()) {
    std::fprintf(stderr, "RejoinServer failed\n");
    std::exit(1);
  }
  {
    lbc::Transaction txn = client->Begin();
    if (!txn.Acquire(LockFor(1)).ok() || !txn.SetRange(1, 0, 64).ok()) {
      std::fprintf(stderr, "post-restart txn failed\n");
      std::exit(1);
    }
    std::memset(client->GetRegion(1)->data(), 0x7E, 64);
    if (!txn.Commit(rvm::CommitMode::kFlush).ok()) {
      std::fprintf(stderr, "post-restart commit failed\n");
      std::exit(1);
    }
  }
  const auto t_commit = std::chrono::steady_clock::now();
  if (!cluster.DrainRecovery().ok()) {  // serve-first: off the TTFC path
    std::fprintf(stderr, "DrainRecovery failed\n");
    std::exit(1);
  }

  out.restart_ms = std::chrono::duration<double, std::milli>(t_restart - t0).count();
  out.ttfc_ms = std::chrono::duration<double, std::milli>(t_commit - t0).count();
  out.index_build_ms = Counter("recovery.index_build_ms") - index_before;
  out.lazy_pages = Counter("recovery.pages_on_demand") +
                   Counter("recovery.pages_background") - lazy_before;
  return out;
}

}  // namespace

int main() {
  std::printf("=== Recovery TTFC: replay-before-serve vs serve-first ===\n\n");
  std::printf("2 ms per database-file op, %d full-page commits per region;\n"
              "TTFC = RestartServer start -> first post-restart commit done;\n"
              "replay-before-serve drains every page before that commit.\n\n",
              kCommitsPerRegion);
  std::printf("%8s  %12s  %12s  %12s  %12s  %7s\n", "regions", "replay_boot",
              "replay_ttfc", "serve_boot", "serve_ttfc", "ratio");

  const std::vector<int> sweep = {2, 6, 12};
  double last_ratio = 0;
  int last_regions = 0;
  double first_serve_ttfc = 0, last_serve_ttfc = 0;
  for (int regions : sweep) {
    TtfcResult replay = MeasureTtfc(regions, /*replay_first=*/true);
    TtfcResult serve = MeasureTtfc(regions, /*replay_first=*/false);
    last_ratio = serve.ttfc_ms > 0 ? replay.ttfc_ms / serve.ttfc_ms : 0;
    last_regions = regions;
    last_serve_ttfc = serve.ttfc_ms;
    if (first_serve_ttfc == 0) {
      first_serve_ttfc = serve.ttfc_ms;
    }
    std::printf("%8d  %10.1fms  %10.1fms  %10.1fms  %10.1fms  %6.1fx\n", regions,
                replay.restart_ms, replay.ttfc_ms, serve.restart_ms, serve.ttfc_ms,
                last_ratio);
    std::printf("%8s  index_build_ms=%llu lazy_pages=%llu (drained after "
                "measurement)\n",
                "", static_cast<unsigned long long>(serve.index_build_ms),
                static_cast<unsigned long long>(serve.lazy_pages));
  }

  std::printf("\nShape check: replay-before-serve TTFC grows with the region count\n"
              "(replay is on the boot path); serve-first TTFC stays ~flat (%.1fms -> %.1fms)\n"
              "because boot only indexes and the first commit touches no page.\n\n",
              first_serve_ttfc, last_serve_ttfc);
  std::printf("recovery_ttfc: regions=%d ratio=%.2f\n", last_regions, last_ratio);

  std::string snapshot_path = obs::SnapshotPath();
  base::Status status = obs::WriteJsonSnapshot(snapshot_path);
  if (status.ok()) {
    std::printf("obs snapshot: %s\n", snapshot_path.c_str());
  }
  return 0;
}
