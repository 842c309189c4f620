// Crash-schedule sweeps for INCREMENTAL recovery: the crash_explorer_test
// workload family, recovered through LogIndex + IncrementalRecovery instead
// of an eager ReplayLogsIntoDatabase.
//
//   1. Workload sweep — power cut before every mutating op of a three-node
//      workload (with two mid-run checkpoint/trims, the second replaying
//      over pages the first certified), then an incremental boot:
//      index build, one region materialized on demand, the rest drained in
//      the background order. The drained database must land on a committed
//      prefix, and every page must pass sidecar verification.
//   2. Recovery sweep — power cut before every mutating op OF THE
//      INCREMENTAL RECOVERY ITSELF (page replays, sidecar intent writes,
//      syncs), reboot, then the serving-window probe: a fresh index serves
//      both regions on demand, asserting the committed image or failing
//      loudly — never an unreplayed byte. Re-recovery must be byte-identical
//      to a clean single pass (incremental replay is idempotent).
//   3. Index builds are read-only: zero mutating ops, so a cut during one
//      degrades to a cut at its start.
//   4. Composition with bit rot: a lazily discovered rotten pre-image fails
//      materialization with DATA_LOSS and is NOT replayed over; healing the
//      page lets the same materialization succeed.
//   5. Sweeps 1 and 2 again over a multi-page batch: region 1 grows to three
//      pages and every write to it covers pages 0 and 2 partially and page
//      1 fully, so each replay of region 1 is one three-page file batch and
//      the sweeps cut power inside it.
//   6. Sweeps 1 and 2 again over a blind batch: region 1 spans two pages and
//      every write to it covers both whole, so each replay of region 1
//      reads neither pre-image nor sidecar, and its intent Write
//      carries the sidecar header with the entries; the sweeps cut power at
//      every op of it, torn prefixes of that Write included.
//
// Budget/seed are env-tunable like crash_explorer_test: LBC_CRASH_BUDGET
// (0 = exhaustive) and LBC_CRASH_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/obs/export.h"
#include "src/rvm/crash_explorer.h"
#include "src/rvm/log_index.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/replay_on_demand.h"
#include "src/rvm/rvm.h"
#include "src/rvm/types.h"
#include "src/store/corrupting_store.h"
#include "src/store/crash_point_store.h"
#include "src/store/durable_store.h"
#include "src/store/mem_store.h"

namespace {

class ObsSnapshotEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    std::string path = obs::SnapshotPath();
    base::Status status = obs::WriteJsonSnapshot(path);
    if (status.ok()) {
      std::printf("obs snapshot: %s\n", path.c_str());
    } else {
      std::printf("obs snapshot failed: %s\n", status.ToString().c_str());
    }
  }
};
const ::testing::Environment* const kObsEnv =
    ::testing::AddGlobalTestEnvironment(new ObsSnapshotEnvironment());

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

// --- the fixed workload (crash_explorer_test's shape) -----------------------

constexpr uint64_t kSliceSize = 16;
constexpr uint64_t kRegionSize = 3 * kSliceSize;
constexpr rvm::LockId kLockR1 = 101;
constexpr rvm::LockId kLockR2 = 202;
// Steps before which the workload checkpoints. The second replays over pages
// the first already certified, so the sweep cuts power inside a full replay
// whose pre-images carry sidecar entries.
constexpr int kCheckpointsBefore[] = {5, 6};

struct Step {
  rvm::NodeId node;
  rvm::RegionId region;
  uint8_t value;
};

constexpr Step kSteps[] = {
    {1, 1, 0xA1}, {2, 1, 0xB2}, {3, 2, 0xC3}, {1, 2, 0xD4}, {2, 2, 0xE5},
    {3, 1, 0xF6}, {1, 1, 0x17}, {2, 2, 0x28}, {3, 2, 0x39},
};
constexpr int kTxns = static_cast<int>(sizeof(kSteps) / sizeof(kSteps[0]));

rvm::LockId LockFor(rvm::RegionId region) { return region == 1 ? kLockR1 : kLockR2; }

std::vector<std::string> AllLogs() {
  return {rvm::LogFileName(1), rvm::LogFileName(2), rvm::LogFileName(3)};
}

// Where each step writes. kSlices: every node owns a 16-byte slice of a
// 48-byte, one-page region. kMultiPage: region 1 spans three pages and node
// n writes the last 64n bytes of page 0, all of page 1 and the first 64n
// bytes of page 2 — overlapping writes, so replay order matters on every
// page, and the partial pages depend on certified pre-images. kWholePage:
// region 1 spans two pages and every write to it covers both, so replay
// order matters and no page of it depends on its pre-image.
enum class Shape { kSlices, kMultiPage, kWholePage };

uint64_t RegionSize(Shape shape, rvm::RegionId region) {
  if (region != 1) {
    return kRegionSize;
  }
  switch (shape) {
    case Shape::kMultiPage:
      return 3 * rvm::kDbPageSize;
    case Shape::kWholePage:
      return 2 * rvm::kDbPageSize;
    case Shape::kSlices:
      break;
  }
  return kRegionSize;
}

struct Extent {
  uint64_t offset;
  uint64_t len;
};

Extent ExtentOf(Shape shape, const Step& step) {
  if (shape == Shape::kMultiPage && step.region == 1) {
    const uint64_t edge = 64 * step.node;
    return {rvm::kDbPageSize - edge, rvm::kDbPageSize + 2 * edge};
  }
  if (shape == Shape::kWholePage && step.region == 1) {
    return {0, 2 * rvm::kDbPageSize};
  }
  return {(step.node - 1) * kSliceSize, kSliceSize};
}

using RegionBytes = std::vector<uint8_t>;
using ClusterState = std::array<RegionBytes, 2>;

std::vector<ClusterState> BuildShadow(Shape shape) {
  std::vector<ClusterState> shadow;
  ClusterState state = {RegionBytes(RegionSize(shape, 1), 0),
                        RegionBytes(RegionSize(shape, 2), 0)};
  shadow.push_back(state);
  for (const Step& step : kSteps) {
    const Extent e = ExtentOf(shape, step);
    std::memset(state[step.region - 1].data() + e.offset, step.value, e.len);
    shadow.push_back(state);
  }
  return shadow;
}

base::Result<RegionBytes> ReadRegionFile(store::DurableStore* s, rvm::RegionId id,
                                         uint64_t region_size = kRegionSize) {
  RegionBytes out(region_size, 0);  // missing / short file reads as zeros
  ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(id)));
  if (!exists) {
    return out;
  }
  ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(id), /*create=*/false));
  ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size > 0) {
    RETURN_IF_ERROR(
        file->ReadExact(0, out.data(), std::min<uint64_t>(size, region_size)));
  }
  return out;
}

// Every page of `region`'s database file passes sidecar verification — the
// never-serve-a-corrupt-byte half of the serving invariant.
base::Status VerifyRegionPages(store::DurableStore* s, rvm::RegionId region) {
  ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(region)));
  if (!exists) {
    return base::OkStatus();
  }
  ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(region), /*create=*/false));
  ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::vector<uint8_t> image(size);
  if (size > 0) {
    RETURN_IF_ERROR(file->ReadExact(0, image.data(), image.size()));
  }
  ASSIGN_OR_RETURN(auto failed,
                   rvm::VerifyImagePages(s, region, image.data(), size, size));
  if (!failed.empty()) {
    return base::DataLoss("page " + std::to_string(failed[0]) +
                          " failed sidecar verification after drain");
  }
  return base::OkStatus();
}

// The incremental boot sequence, exactly as a server would run it: build
// the index (read-only), serve region 1 on first touch, drain the rest in
// deterministic background order. Single-threaded on purpose — the sweep
// needs an identical store-op sequence on every run.
base::Status RecoverIncrementally(store::DurableStore* s) {
  ASSIGN_OR_RETURN(rvm::LogIndex index, rvm::LogIndex::Build(s, AllLogs()));
  rvm::IncrementalRecovery recovery(s, std::move(index));
  RETURN_IF_ERROR(recovery.MaterializeRegion(1));  // first touch
  rvm::RegionId failed = 0;
  while (true) {
    ASSIGN_OR_RETURN(bool more, recovery.DrainStep(&failed));
    if (!more) {
      break;
    }
  }
  return base::OkStatus();
}

// Harness mirroring crash_explorer_test's workload, with the incremental
// recovery procedure swapped in.
class IncrementalHarness {
 public:
  IncrementalHarness(uint64_t budget, uint64_t seed, Shape shape = Shape::kSlices)
      : shape_(shape), shadow_(BuildShadow(shape)) {
    options_.budget = budget;
    options_.seed = seed;
  }

  rvm::CrashExplorer MakeExplorer(bool with_probe) {
    if (with_probe) {
      options_.recovery_probe = [this](store::DurableStore* s) { return Probe(s); };
    }
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [](store::DurableStore* s) { return RecoverIncrementally(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

 private:
  base::Status RunWorkload(store::DurableStore* s) {
    commits_ = 0;
    std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>> nodes;
    for (rvm::NodeId n : {rvm::NodeId{1}, rvm::NodeId{2}, rvm::NodeId{3}}) {
      ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, n, rvm::RvmOptions{}));
      RETURN_IF_ERROR(node->MapRegion(1, RegionSize(shape_, 1)).status());
      RETURN_IF_ERROR(node->MapRegion(2, RegionSize(shape_, 2)).status());
      nodes[n] = std::move(node);
    }
    std::map<rvm::LockId, uint64_t> seq;
    for (int i = 0; i < kTxns; ++i) {
      if (std::find(std::begin(kCheckpointsBefore), std::end(kCheckpointsBefore), i) !=
          std::end(kCheckpointsBefore)) {
        RETURN_IF_ERROR(Checkpoint(s, nodes, seq));
      }
      const Step& step = kSteps[i];
      rvm::Rvm* node = nodes[step.node].get();
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      const Extent e = ExtentOf(shape_, step);
      RETURN_IF_ERROR(node->SetRange(txn, step.region, e.offset, e.len));
      std::memset(node->GetRegion(step.region)->data() + e.offset, step.value, e.len);
      rvm::LockId lock = LockFor(step.region);
      RETURN_IF_ERROR(node->SetLockId(txn, lock, seq[lock] + 1));
      RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
      ++seq[lock];
      ++commits_;
    }
    return base::OkStatus();
  }

  // Mid-run checkpoint: a full replay plus per-node trims, so the sweep
  // also cuts power inside truncation — and incremental boots then start
  // from a certified, partially-trimmed history.
  base::Status Checkpoint(store::DurableStore* s,
                          std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>>& nodes,
                          const std::map<rvm::LockId, uint64_t>& seq) {
    RETURN_IF_ERROR(rvm::ReplayLogsIntoDatabase(s, AllLogs()));
    std::map<rvm::LockId, uint64_t> baselines;
    for (const auto& [lock, sq] : seq) {
      baselines[lock] = lock == kLockR2 && sq > 0 ? sq - 1 : sq;
    }
    for (auto& [n, node] : nodes) {
      RETURN_IF_ERROR(node->TrimLogWithBaselines(baselines));
    }
    return base::OkStatus();
  }

  // The serving window: the machine just rebooted out of a crashed
  // recovery. A fresh index serves both regions on demand; whatever it
  // hands out must be the committed image (the workload ran to completion
  // in this sweep), and every materialized page must verify against the
  // sidecar. Materialization here is idempotent w.r.t. the second recovery
  // pass that follows.
  base::Status Probe(store::DurableStore* s) {
    ASSIGN_OR_RETURN(rvm::LogIndex index, rvm::LogIndex::Build(s, AllLogs()));
    rvm::IncrementalRecovery recovery(s, std::move(index));
    RETURN_IF_ERROR(recovery.MaterializeRegion(1));
    RETURN_IF_ERROR(recovery.MaterializeRegion(2));
    if (!recovery.Drained()) {
      return base::Internal("probe left indexed pages unmaterialized");
    }
    ASSIGN_OR_RETURN(RegionBytes r1, ReadRegionFile(s, 1, RegionSize(shape_, 1)));
    ASSIGN_OR_RETURN(RegionBytes r2, ReadRegionFile(s, 2, RegionSize(shape_, 2)));
    const ClusterState& committed = shadow_[kTxns];
    if (r1 != committed[0] || r2 != committed[1]) {
      return base::DataLoss("serving window exposed a non-committed image");
    }
    RETURN_IF_ERROR(VerifyRegionPages(s, 1));
    return VerifyRegionPages(s, 2);
  }

  // Committed-prefix invariant over the fully drained database, plus page
  // verification (the drain may not have certified a byte it cannot prove).
  base::Status Verify(store::DurableStore* s) {
    ASSIGN_OR_RETURN(RegionBytes r1, ReadRegionFile(s, 1, RegionSize(shape_, 1)));
    ASSIGN_OR_RETURN(RegionBytes r2, ReadRegionFile(s, 2, RegionSize(shape_, 2)));
    auto matches = [&](int k) {
      return r1 == shadow_[k][0] && r2 == shadow_[k][1];
    };
    if (!matches(commits_) &&
        !(commits_ + 1 < static_cast<int>(shadow_.size()) && matches(commits_ + 1))) {
      return base::Internal("drained database matches neither the " +
                            std::to_string(commits_) + "-commit prefix nor the " +
                            std::to_string(commits_ + 1) + "-commit prefix");
    }
    RETURN_IF_ERROR(VerifyRegionPages(s, 1));
    return VerifyRegionPages(s, 2);
  }

  rvm::CrashExplorerOptions options_;
  Shape shape_;
  std::vector<ClusterState> shadow_;
  int commits_ = 0;
};

// --- the sweeps -------------------------------------------------------------

void SweepWorkloadCrashes(Shape shape) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  IncrementalHarness harness(budget, seed, shape);
  rvm::CrashExplorer explorer = harness.MakeExplorer(/*with_probe=*/false);

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("incremental workload sweep: %llu mutating ops, %llu schedules "
              "(%llu torn)\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run));
  EXPECT_GT(report.workload_ops, 30u);
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.torn_schedules_run, 0u);
  if (budget == 0) {
    EXPECT_GE(report.schedules_run, report.workload_ops);
  }
}

void SweepRecoveryCrashes(Shape shape) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  IncrementalHarness harness(budget, seed, shape);
  rvm::CrashExplorer explorer = harness.MakeExplorer(/*with_probe=*/true);

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreRecoveryCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("incremental recovery sweep: %llu mutating ops, %llu nested "
              "schedules, %llu serving-window probes\n",
              static_cast<unsigned long long>(report.recovery_ops),
              static_cast<unsigned long long>(report.nested_schedules_run),
              static_cast<unsigned long long>(report.probes_run));
  EXPECT_GT(report.recovery_ops, 0u);
  EXPECT_GT(report.nested_schedules_run, 0u);
  EXPECT_EQ(report.nested_schedules_run, report.probes_run);
  if (budget == 0) {
    EXPECT_GE(report.nested_schedules_run, report.recovery_ops);
  }
}

TEST(RecoverySweep, EveryWorkloadCrashDrainsToCommittedPrefix) {
  SweepWorkloadCrashes(Shape::kSlices);
}

TEST(RecoverySweep, EveryRecoveryCrashServesAndReconvergesByteIdentical) {
  SweepRecoveryCrashes(Shape::kSlices);
}

TEST(RecoverySweep, MultiPageBatchEveryWorkloadCrashDrainsToCommittedPrefix) {
  SweepWorkloadCrashes(Shape::kMultiPage);
}

TEST(RecoverySweep, MultiPageBatchEveryRecoveryCrashServesAndReconvergesByteIdentical) {
  SweepRecoveryCrashes(Shape::kMultiPage);
}

TEST(RecoverySweep, BlindBatchEveryWorkloadCrashDrainsToCommittedPrefix) {
  SweepWorkloadCrashes(Shape::kWholePage);
}

TEST(RecoverySweep, BlindBatchEveryRecoveryCrashServesAndReconvergesByteIdentical) {
  SweepRecoveryCrashes(Shape::kWholePage);
}

// --- index builds are read-only ---------------------------------------------

TEST(RecoverySweep, IndexBuildContributesZeroMutatingOps) {
  store::MemStore mem;
  store::CrashPointStore cps(&mem);
  // A small committed history through the instrumented store.
  {
    auto node = std::move(*rvm::Rvm::Open(&cps, 1, rvm::RvmOptions{}));
    ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, 1, 0, kSliceSize).ok());
    std::memset(node->GetRegion(1)->data(), 0x42, kSliceSize);
    ASSERT_TRUE(node->SetLockId(txn, kLockR1, 1).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }
  cps.ResetOpCount();
  auto index = rvm::LogIndex::Build(&cps, {rvm::LogFileName(1)});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(1u, index->page_count());
  // Read-only: a power cut during the build is a cut at its start.
  EXPECT_EQ(0u, cps.op_count());
}

// --- composition with bit rot -----------------------------------------------

TEST(RecoverySweep, RottenPreImageFailsMaterializationAndIsNotReplayedOver) {
  store::MemStore mem;
  store::CorruptionInjectingStore store(&mem, 0xB17F11);

  // Certified base: one full-slice commit, eagerly replayed, log trimmed —
  // the database page and its sidecar entry are the only copy.
  {
    auto node = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
    ASSERT_TRUE(node->MapRegion(1, kRegionSize).ok());
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, 1, 0, kRegionSize).ok());
    std::memset(node->GetRegion(1)->data(), 0x42, kRegionSize);
    ASSERT_TRUE(node->SetLockId(txn, kLockR1, 1).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
    ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
    ASSERT_TRUE(node->TrimLogWithBaselines({{kLockR1, 1}}).ok());

    // A partial update whose replay depends on that certified pre-image.
    txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, 1, 0, kSliceSize).ok());
    std::memset(node->GetRegion(1)->data(), 0x77, kSliceSize);
    ASSERT_TRUE(node->SetLockId(txn, kLockR1, 2).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }

  // Rot a byte of the pre-image outside the pending redo range.
  const std::string db = rvm::RegionFileName(1);
  ASSERT_TRUE(store.FlipBit(db, 2 * kSliceSize + 3, 5).ok());
  const RegionBytes rotten = *ReadRegionFile(&store, 1);

  auto built = rvm::LogIndex::Build(&store, {rvm::LogFileName(1)});
  ASSERT_TRUE(built.ok());
  rvm::IncrementalRecovery recovery(&store, std::move(*built));
  ASSERT_EQ(1u, recovery.PendingPages());

  // First touch discovers the rot: DATA_LOSS, the page stays pending, and
  // the damaged bytes were NOT overwritten by the redo.
  base::Status touched = recovery.MaterializeRegion(1);
  ASSERT_FALSE(touched.ok());
  EXPECT_EQ(base::StatusCode::kDataLoss, touched.code());
  EXPECT_EQ(1u, recovery.PendingPages());
  EXPECT_EQ(rotten, *ReadRegionFile(&store, 1));

  // Heal the page (flip the bit back — a scrubber's replica repair in
  // miniature) and the very same materialization succeeds.
  ASSERT_TRUE(store.FlipBit(db, 2 * kSliceSize + 3, 5).ok());
  ASSERT_TRUE(recovery.MaterializeRegion(1).ok());
  EXPECT_TRUE(recovery.Drained());
  RegionBytes expected(kRegionSize, 0x42);
  std::memset(expected.data(), 0x77, kSliceSize);
  EXPECT_EQ(expected, *ReadRegionFile(&store, 1));
  ASSERT_TRUE(VerifyRegionPages(&store, 1).ok());
}

}  // namespace
