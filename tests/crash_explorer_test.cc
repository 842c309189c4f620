// Systematic crash-schedule exploration over a fixed multi-client workload.
//
// Three raw Rvm nodes share one store and commit nine kFlush transactions
// into two regions (disjoint per-node slices, one segment lock per region,
// driver-assigned sequence numbers), with a §3.5-style checkpoint — merge +
// replay + per-node TrimLogWithBaselines — wedged into the middle so the
// sweep also crashes inside log truncation's temp-write/rename/dir-sync
// dance. The explorer then crashes the workload before every mutating store
// operation (plus torn-tail variants of each write), reboots, recovers via
// ReplayLogsIntoDatabase, and checks the paper's invariant: the recovered
// database equals the state after a prefix of the committed order — either
// exactly the transactions whose commit returned, or those plus one
// in-flight commit whose log record happened to be complete on the platter.
// A second sweep crashes recovery itself and requires re-recovery to land
// byte-identical to a clean single pass (replay idempotence).
//
// Budget/seed are env-tunable: LBC_CRASH_BUDGET (0 = exhaustive, the
// default — the workload is small enough to sweep fully) and
// LBC_CRASH_SEED select the sampled subset when a budget is set.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/lbc/client.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/crash_explorer.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

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

// --- the fixed workload -----------------------------------------------------

constexpr uint64_t kSliceSize = 16;
constexpr uint64_t kRegionSize = 3 * kSliceSize;  // one slice per node
constexpr rvm::LockId kLockR1 = 101;
constexpr rvm::LockId kLockR2 = 202;
constexpr int kCheckpointAfter = 5;  // txns committed before the mid-run trim

struct Step {
  rvm::NodeId node;
  rvm::RegionId region;
  uint8_t value;
};

// Serial driver order; each step fills the writer's own slice of the region.
constexpr Step kSteps[] = {
    {1, 1, 0xA1}, {2, 1, 0xB2}, {3, 2, 0xC3}, {1, 2, 0xD4}, {2, 2, 0xE5},
    {3, 1, 0xF6}, {1, 1, 0x17}, {2, 2, 0x28}, {3, 2, 0x39},
};
constexpr int kTxns = static_cast<int>(sizeof(kSteps) / sizeof(kSteps[0]));

rvm::LockId LockFor(rvm::RegionId region) { return region == 1 ? kLockR1 : kLockR2; }

using RegionBytes = std::vector<uint8_t>;
using ClusterState = std::array<RegionBytes, 2>;  // regions 1 and 2

// shadow[k] = both regions' bytes after the first k committed transactions.
std::vector<ClusterState> BuildShadow() {
  std::vector<ClusterState> shadow;
  ClusterState state = {RegionBytes(kRegionSize, 0), RegionBytes(kRegionSize, 0)};
  shadow.push_back(state);
  for (const Step& step : kSteps) {
    std::memset(state[step.region - 1].data() + (step.node - 1) * kSliceSize,
                step.value, kSliceSize);
    shadow.push_back(state);
  }
  return shadow;
}

// Harness shared by both sweeps: the workload/recover/verify closures plus
// the commit bookkeeping the verifier reads.
class ExplorerHarness {
 public:
  explicit ExplorerHarness(uint64_t budget, uint64_t seed) : shadow_(BuildShadow()) {
    options_.budget = budget;
    options_.seed = seed;
  }

  rvm::CrashExplorer MakeExplorer() {
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [this](store::DurableStore* s) { return Recover(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

 private:
  // Deterministic by construction: no clocks, no randomness, fixed step
  // table — every run issues the identical store-operation sequence up to
  // the injected crash.
  base::Status RunWorkload(store::DurableStore* s) {
    commits_ = 0;
    std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>> nodes;
    for (rvm::NodeId n : {rvm::NodeId{1}, rvm::NodeId{2}, rvm::NodeId{3}}) {
      ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, n, rvm::RvmOptions{}));
      RETURN_IF_ERROR(node->MapRegion(1, kRegionSize).status());
      RETURN_IF_ERROR(node->MapRegion(2, kRegionSize).status());
      nodes[n] = std::move(node);
    }
    std::map<rvm::LockId, uint64_t> seq;
    for (int i = 0; i < kTxns; ++i) {
      if (i == kCheckpointAfter) {
        RETURN_IF_ERROR(Checkpoint(s, nodes, seq));
      }
      const Step& step = kSteps[i];
      rvm::Rvm* node = nodes[step.node].get();
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      uint64_t off = (step.node - 1) * kSliceSize;
      RETURN_IF_ERROR(node->SetRange(txn, step.region, off, kSliceSize));
      std::memset(node->GetRegion(step.region)->data() + off, step.value, kSliceSize);
      rvm::LockId lock = LockFor(step.region);
      RETURN_IF_ERROR(node->SetLockId(txn, lock, seq[lock] + 1));
      RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
      // Only counted once the kFlush commit returned: those transactions are
      // guaranteed durable, so the verifier may demand at least that prefix.
      ++seq[lock];
      ++commits_;
    }
    return base::OkStatus();
  }

  // Mid-run §3.5 checkpoint: replay everyone's log into the database files,
  // then trim each log against the replayed baselines. Lock kLockR2's
  // baseline is held one behind so the trim's keep-the-tail path runs too
  // (replay is idempotent, so the kept record is harmless).
  base::Status Checkpoint(store::DurableStore* s,
                          std::map<rvm::NodeId, std::unique_ptr<rvm::Rvm>>& nodes,
                          const std::map<rvm::LockId, uint64_t>& seq) {
    std::vector<std::string> logs;
    for (const auto& [n, node] : nodes) {
      logs.push_back(rvm::LogFileName(n));
    }
    RETURN_IF_ERROR(rvm::ReplayLogsIntoDatabase(s, logs));
    std::map<rvm::LockId, uint64_t> baselines;
    for (const auto& [lock, sq] : seq) {
      baselines[lock] = lock == kLockR2 && sq > 0 ? sq - 1 : sq;
    }
    for (auto& [n, node] : nodes) {
      RETURN_IF_ERROR(node->TrimLogWithBaselines(baselines));
    }
    return base::OkStatus();
  }

  base::Status Recover(store::DurableStore* s) {
    // A crash before a node's first log sync leaves no durable log file;
    // ReplayLogsIntoDatabase treats the missing log as empty.
    return rvm::ReplayLogsIntoDatabase(
        s, {rvm::LogFileName(1), rvm::LogFileName(2), rvm::LogFileName(3)});
  }

  static base::Result<RegionBytes> ReadRegion(store::DurableStore* s, rvm::RegionId id) {
    RegionBytes out(kRegionSize, 0);  // missing file / short file reads as zeros
    ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(id)));
    if (!exists) {
      return out;
    }
    ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(id), /*create=*/false));
    ASSIGN_OR_RETURN(uint64_t size, file->Size());
    if (size > 0) {
      RETURN_IF_ERROR(
          file->ReadExact(0, out.data(), std::min<uint64_t>(size, kRegionSize)));
    }
    return out;
  }

  // Committed-prefix invariant: the recovered database must equal the state
  // after `commits_` transactions, or after `commits_ + 1` — the in-flight
  // commit whose EndTransaction never returned may still have landed a
  // complete log record (e.g. a whole-write torn variant). Anything else —
  // a lost committed transaction, a torn partial frame surviving CRC, an
  // out-of-order prefix — fails.
  base::Status Verify(store::DurableStore* s) {
    ASSIGN_OR_RETURN(RegionBytes r1, ReadRegion(s, 1));
    ASSIGN_OR_RETURN(RegionBytes r2, ReadRegion(s, 2));
    auto matches = [&](int k) {
      return r1 == shadow_[k][0] && r2 == shadow_[k][1];
    };
    if (matches(commits_)) {
      return base::OkStatus();
    }
    if (commits_ + 1 < static_cast<int>(shadow_.size()) && matches(commits_ + 1)) {
      return base::OkStatus();
    }
    return base::Internal("recovered database matches neither the " +
                          std::to_string(commits_) + "-commit prefix nor the " +
                          std::to_string(commits_ + 1) + "-commit prefix");
  }

  rvm::CrashExplorerOptions options_;
  std::vector<ClusterState> shadow_;
  int commits_ = 0;  // kFlush commits that returned in the current run
};

// --- the sweeps -------------------------------------------------------------

TEST(CrashExplorer, EveryWorkloadCrashRecoversToCommittedPrefix) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  ExplorerHarness harness(budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  obs::Counter* torn_detected =
      obs::MetricsRegistry::Global()->GetCounter("rvm.torn_tails_detected");
  uint64_t torn_before = torn_detected->value();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("workload sweep: %llu mutating ops, %llu schedules (%llu torn), "
              "budget=%llu seed=%#llx\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run),
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(seed));

  // The workload really spans the whole stack: per-node logs, kFlush
  // commits, and the mid-run checkpoint's replay + truncation swap.
  EXPECT_GT(report.workload_ops, 30u);
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.torn_schedules_run, 0u);
  if (budget == 0) {
    // Exhaustive mode: one clean schedule per mutating op, plus the torn
    // variants — every operation index was crashed at least once.
    EXPECT_GE(report.schedules_run, report.workload_ops);
  }
  // Torn tails were not just injected but *detected*: some schedule left a
  // partial frame that recovery's CRC scan had to stop at.
  EXPECT_GT(torn_detected->value(), torn_before);
}

TEST(CrashExplorer, CrashDuringRecoveryIsIdempotent) {
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  ExplorerHarness harness(budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreRecoveryCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("recovery sweep: %llu mutating ops, %llu nested schedules\n",
              static_cast<unsigned long long>(report.recovery_ops),
              static_cast<unsigned long long>(report.nested_schedules_run));
  EXPECT_GT(report.recovery_ops, 0u);
  EXPECT_GT(report.nested_schedules_run, 0u);
  if (budget == 0) {
    EXPECT_GE(report.nested_schedules_run, report.recovery_ops);
  }
}

// --- power cut mid-batch (group commit) -------------------------------------
//
// Four kFlush transactions are parked on a held commit pipeline and released
// as ONE vectored append plus ONE sync; the sweep crashes before each of
// those two store ops and additionally tears the batch write at frame
// boundaries (and just past them). The invariant is batch atomicity at the
// LOG-FRAME level, not the transaction level: recovery must land on the
// state after some per-transaction prefix of the batch's enqueue order —
// and the torn variants must actually produce the interior prefixes.

constexpr rvm::RegionId kBatchRegion = 7;
constexpr rvm::LockId kBatchLock = 707;
constexpr int kBatchTxns = 4;
constexpr uint64_t kBatchSlice = 16;
constexpr uint64_t kBatchRegionSize = kBatchTxns * kBatchSlice;
constexpr uint8_t kBatchValues[kBatchTxns] = {0x5A, 0x6B, 0x7C, 0x8D};

// One framed record for one kBatchSlice-byte transaction with one lock
// record, measured rather than hard-coded so the torn offsets track the
// wire format.
uint64_t MeasureBatchFrameBytes() {
  store::MemStore mem;
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, rvm::RvmOptions{}));
  EXPECT_TRUE(node->MapRegion(kBatchRegion, kBatchRegionSize).ok());
  rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
  EXPECT_TRUE(node->SetRange(txn, kBatchRegion, 0, kBatchSlice).ok());
  EXPECT_TRUE(node->SetLockId(txn, kBatchLock, 1).ok());
  EXPECT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  return node->log_bytes();
}

// batch_shadow[k] = region bytes after the first k transactions of the batch.
std::vector<RegionBytes> BuildBatchShadow() {
  std::vector<RegionBytes> shadow;
  RegionBytes state(kBatchRegionSize, 0);
  shadow.push_back(state);
  for (int i = 0; i < kBatchTxns; ++i) {
    std::memset(state.data() + i * kBatchSlice, kBatchValues[i], kBatchSlice);
    shadow.push_back(state);
  }
  return shadow;
}

class BatchHarness {
 public:
  BatchHarness(uint64_t budget, uint64_t seed, std::vector<size_t> torn_variants)
      : shadow_(BuildBatchShadow()) {
    options_.budget = budget;
    options_.seed = seed;
    options_.torn_variants = std::move(torn_variants);
  }

  rvm::CrashExplorer MakeExplorer() {
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [this](store::DurableStore* s) { return Recover(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

  // Batch prefix lengths the verifier accepted, across all schedules.
  const std::set<int>& prefixes_seen() const { return prefixes_seen_; }

 private:
  base::Status RunWorkload(store::DurableStore* s) {
    commits_ = 0;
    ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, 1, rvm::RvmOptions{}));
    RETURN_IF_ERROR(node->MapRegion(kBatchRegion, kBatchRegionSize).status());

    // Park the pipeline and enqueue the four committers ONE AT A TIME (each
    // start waits for the previous record to be parked), so the batch's
    // membership and commit_seq order are fixed on every replay. The
    // committer threads issue no store operations themselves — encoding
    // happens in memory — keeping the mutating-op sequence deterministic.
    node->HoldCommitPipeline();
    std::vector<std::thread> committers;
    std::vector<base::Status> statuses(kBatchTxns);
    for (int i = 0; i < kBatchTxns; ++i) {
      committers.emplace_back([&node, &statuses, i] {
        rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
        base::Status st =
            node->SetRange(txn, kBatchRegion, i * kBatchSlice, kBatchSlice);
        if (st.ok()) {
          std::memset(node->GetRegion(kBatchRegion)->data() + i * kBatchSlice,
                      kBatchValues[i], kBatchSlice);
          st = node->SetLockId(txn, kBatchLock, static_cast<uint64_t>(i) + 1);
        }
        if (st.ok()) {
          st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
        }
        statuses[i] = st;
      });
      while (node->PendingCommitCount() < static_cast<size_t>(i) + 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }

    // The whole cohort goes to the store as one append + one sync; these are
    // the only mutating ops of the commit phase, so the sweep's crash points
    // are exactly "power cut mid-batch".
    base::Status release = node->ReleaseCommitPipeline();
    for (auto& t : committers) {
      t.join();
    }
    for (int i = 0; i < kBatchTxns; ++i) {
      if (statuses[i].ok()) {
        ++commits_;
      } else if (release.ok()) {
        release = statuses[i];
      }
    }
    return release;
  }

  base::Status Recover(store::DurableStore* s) {
    return rvm::ReplayLogsIntoDatabase(s, {rvm::LogFileName(1)});
  }

  base::Status Verify(store::DurableStore* s) {
    RegionBytes got(kBatchRegionSize, 0);
    ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(kBatchRegion)));
    if (exists) {
      ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(kBatchRegion),
                                          /*create=*/false));
      ASSIGN_OR_RETURN(uint64_t size, file->Size());
      if (size > 0) {
        RETURN_IF_ERROR(file->ReadExact(0, got.data(),
                                        std::min<uint64_t>(size, kBatchRegionSize)));
      }
    }
    // Frame-level atomicity: the recovered region must equal the state after
    // some prefix of the batch — at least every transaction whose commit
    // returned OK, at most the whole batch. A torn write that cut frame k+1
    // must surface exactly the k-transaction state, never a blend.
    for (int k = commits_; k <= kBatchTxns; ++k) {
      if (got == shadow_[k]) {
        prefixes_seen_.insert(k);
        return base::OkStatus();
      }
    }
    return base::Internal(
        "recovered region matches no batch prefix in [" +
        std::to_string(commits_) + ", " + std::to_string(kBatchTxns) + "]");
  }

  rvm::CrashExplorerOptions options_;
  std::vector<RegionBytes> shadow_;
  std::set<int> prefixes_seen_;
  int commits_ = 0;  // EndTransaction calls that returned OK this run
};

TEST(CrashExplorer, PowerCutMidBatchRecoversPerTransactionPrefix) {
  const uint64_t frame = MeasureBatchFrameBytes();
  ASSERT_GT(frame, kBatchSlice);
  // Tear the batch write at and around every frame boundary: mid-frame
  // (partial frame discarded), exact boundaries (clean interior prefixes),
  // and the full write.
  std::vector<size_t> torn = {1,
                              static_cast<size_t>(frame - 1),
                              static_cast<size_t>(frame),
                              static_cast<size_t>(frame + 1),
                              static_cast<size_t>(2 * frame),
                              static_cast<size_t>(3 * frame),
                              static_cast<size_t>(3 * frame + 5),
                              SIZE_MAX};
  uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  BatchHarness harness(budget, seed, torn);
  rvm::CrashExplorer explorer = harness.MakeExplorer();

  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::printf("batch sweep: %llu mutating ops, %llu schedules (%llu torn)\n",
              static_cast<unsigned long long>(report.workload_ops),
              static_cast<unsigned long long>(report.schedules_run),
              static_cast<unsigned long long>(report.torn_schedules_run));
  EXPECT_GT(report.schedules_run, 0u);
  EXPECT_GT(report.torn_schedules_run, 0u);
  if (budget == 0) {
    // The torn variants really cut the batch into per-transaction prefixes:
    // every interior length showed up, not just all-or-nothing.
    for (int k = 0; k <= kBatchTxns; ++k) {
      EXPECT_TRUE(harness.prefixes_seen().count(k))
          << "no schedule recovered to the " << k << "-transaction prefix";
    }
  }
}

// --- the token-pass window ---------------------------------------------------
//
// lbc clients share one lock. Each holder in turn acquires it, fills its own
// slice and commits with every node's commit pipeline held: the commit is
// ordered — broadcast, token passed to the next holder — and parks before
// its log force. Then the nodes' forces run one at a time, in every order,
// and power is cut at every store op of them (torn variants included).
// Whatever the cut, the recovered merged log must be gap-free per lock (no
// s+1 without s) and the database must equal a prefix of the committed
// history at least as long as the commits that returned: a successor's
// force carries the records it read.

constexpr rvm::RegionId kPassRegion = 1;
constexpr rvm::LockId kPassLock = 7;
constexpr uint64_t kPassSlice = 16;

class TokenPassHarness {
 public:
  TokenPassHarness(std::vector<rvm::NodeId> holders, uint64_t budget, uint64_t seed)
      : holders_(std::move(holders)) {
    options_.budget = budget;
    options_.seed = seed;
    nodes_ = holders_;
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  }

  const std::vector<rvm::NodeId>& nodes() const { return nodes_; }

  // Sweeps every power cut with the forces run in `force_order`.
  base::Status Sweep(const std::vector<rvm::NodeId>& force_order,
                     rvm::CrashExplorerReport* report) {
    force_order_ = force_order;
    rvm::CrashExplorer explorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [this](store::DurableStore* s) { return Recover(s); },
        [this](store::DurableStore* s) { return Verify(s); });
    return explorer.ExploreWorkloadCrashes(report);
  }

 private:
  uint64_t RegionSize() const { return holders_.size() * kPassSlice; }

  base::Status RunWorkload(store::DurableStore* s) {
    returned_ = 0;
    lbc::Cluster cluster(s);
    cluster.DefineLock(kPassLock, kPassRegion, holders_.front());
    std::map<rvm::NodeId, std::unique_ptr<lbc::Client>> clients;
    for (rvm::NodeId n : nodes_) {
      ASSIGN_OR_RETURN(clients[n], lbc::Client::Create(&cluster, n, lbc::ClientOptions{}));
      RETURN_IF_ERROR(clients[n]->MapRegion(kPassRegion, RegionSize()).status());
      clients[n]->rvm()->HoldCommitPipeline();
    }
    std::atomic<int> returned{0};
    std::vector<std::thread> committers;
    std::map<rvm::NodeId, size_t> parked;
    for (size_t i = 0; i < holders_.size(); ++i) {
      lbc::Client* c = clients[holders_[i]].get();
      committers.emplace_back([c, i, &returned] {
        lbc::Transaction txn = c->Begin(rvm::RestoreMode::kNoRestore);
        if (!txn.Acquire(kPassLock).ok() ||
            !txn.SetRange(kPassRegion, i * kPassSlice, kPassSlice).ok()) {
          return;
        }
        std::memset(c->GetRegion(kPassRegion)->data() + i * kPassSlice,
                    static_cast<int>(i + 1), kPassSlice);
        if (txn.Commit(rvm::CommitMode::kFlush).ok()) {
          ++returned;
        }
      });
      // Ordered and parked before the next holder starts: the token has
      // passed, the force has not run.
      const size_t want = ++parked[holders_[i]];
      while (c->rvm()->PendingCommitCount() < want) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    base::Status first_error;
    for (rvm::NodeId n : force_order_) {
      base::Status st = clients[n]->rvm()->ReleaseCommitPipeline();
      if (first_error.ok()) {
        first_error = st;
      }
    }
    for (auto& t : committers) {
      t.join();
    }
    returned_ = returned.load();
    return first_error;
  }

  std::vector<std::string> Logs() const {
    std::vector<std::string> logs;
    for (rvm::NodeId n : nodes_) {
      logs.push_back(rvm::LogFileName(n));
    }
    return logs;
  }

  base::Status Recover(store::DurableStore* s) {
    return rvm::ReplayLogsIntoDatabase(s, Logs());
  }

  base::Status Verify(store::DurableStore* s) {
    std::vector<std::string> present;
    for (const std::string& log : Logs()) {
      ASSIGN_OR_RETURN(bool exists, s->Exists(log));
      if (exists) {
        present.push_back(log);
      }
    }
    std::vector<rvm::TransactionRecord> merged;
    if (!present.empty()) {
      ASSIGN_OR_RETURN(merged, rvm::MergeLogs(s, present));
    }
    // Gap-free: the merged lock sequences are exactly 1..k.
    uint64_t k = 0;
    for (const rvm::TransactionRecord& txn : merged) {
      if (txn.SequenceOf(kPassLock) != k + 1) {
        return base::Internal("merged log holds sequence " +
                              std::to_string(txn.SequenceOf(kPassLock)) + " after " +
                              std::to_string(k) + ": a gap");
      }
      ++k;
    }
    if (k < static_cast<uint64_t>(returned_)) {
      return base::Internal(std::to_string(returned_) + " commits returned but only " +
                            std::to_string(k) + " survived");
    }
    RegionBytes want(RegionSize(), 0);
    for (uint64_t i = 0; i < k; ++i) {
      std::memset(want.data() + i * kPassSlice, static_cast<int>(i + 1), kPassSlice);
    }
    RegionBytes got(RegionSize(), 0);
    ASSIGN_OR_RETURN(bool exists, s->Exists(rvm::RegionFileName(kPassRegion)));
    if (exists) {
      ASSIGN_OR_RETURN(auto file, s->Open(rvm::RegionFileName(kPassRegion), false));
      ASSIGN_OR_RETURN(uint64_t size, file->Size());
      RETURN_IF_ERROR(file->ReadExact(0, got.data(), std::min<uint64_t>(size, got.size())));
    }
    if (got != want) {
      return base::Internal("database is not the " + std::to_string(k) +
                            "-commit prefix of the history");
    }
    return base::OkStatus();
  }

  std::vector<rvm::NodeId> holders_;
  std::vector<rvm::NodeId> nodes_;
  std::vector<rvm::NodeId> force_order_;
  rvm::CrashExplorerOptions options_;
  int returned_ = 0;
};

void SweepEveryForceOrder(std::vector<rvm::NodeId> holders) {
  TokenPassHarness harness(std::move(holders), EnvU64("LBC_CRASH_BUDGET", 0),
                           EnvU64("LBC_CRASH_SEED", 0x5eed));
  std::vector<rvm::NodeId> order = harness.nodes();
  uint64_t schedules = 0;
  do {
    rvm::CrashExplorerReport report;
    base::Status status = harness.Sweep(order, &report);
    ASSERT_TRUE(status.ok()) << "forces in order " << ::testing::PrintToString(order)
                             << ": " << status.ToString();
    EXPECT_GT(report.schedules_run, 0u);
    schedules += report.schedules_run;
  } while (std::next_permutation(order.begin(), order.end()));
  std::printf("token-pass sweep: %llu schedules\n", static_cast<unsigned long long>(schedules));
}

TEST(TokenPassWindow, TwoNodesEveryCutIsGapFreePrefix) {
  // Node 1 holds the lock again after node 2: its second commit carries
  // node 2's record, and node 2's carries node 1's first.
  SweepEveryForceOrder({1, 2, 1});
}

TEST(TokenPassWindow, ThreeNodesEveryCutIsGapFreePrefix) {
  SweepEveryForceOrder({1, 2, 3});
}

// A tight budget still runs — sampled, boundaries pinned — so CI can bound
// sweep time on bigger workloads without losing the first/last-op cases.
TEST(CrashExplorer, SampledSweepHonorsBudget) {
  ExplorerHarness harness(/*budget=*/8, /*seed=*/7);
  rvm::CrashExplorer explorer = harness.MakeExplorer();
  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreWorkloadCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(report.schedules_run, 8u);
  EXPECT_GT(report.schedules_run, 0u);
}

}  // namespace
