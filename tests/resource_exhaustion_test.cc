// Resource-exhaustion and gray-failure resilience.
//
// Four families of scenarios, all driven through the public APIs:
//
//   * Log-quota backpressure (RvmOptions watermarks): a commit that hits the
//     hard watermark stalls — never aborts — while the trim hook checkpoints
//     and frees log space; the constrained run must land byte-identical to
//     an unconstrained one. When no trim can free space the commit fails
//     with RESOURCE_EXHAUSTED and the transaction stays active, so an
//     out-of-band trim plus retry commits the same transaction.
//
//   * Crash-during-ENOSPC sweep: the CrashExplorer's configure_machine hook
//     puts a byte quota on the simulated disk *under* the crash point, and a
//     trim-on-ENOSPC workload is crashed before every mutating store op
//     (plus torn-tail variants), across several quota sizes. Recovery must
//     restore a committed prefix every time — disk-full plus power-cut is
//     the paper's §3.5 trim machinery under its worst case.
//
//   * Server admission control: a full commit/fetch queue sheds with
//     OVERLOADED and a doubling retry-after hint; a shed Commit leaves the
//     transaction open, and the client's jittered backoff retries it to
//     completion once the queue drains.
//
//   * Gray liveness: a slow-but-beating node is classified suspect-slow
//     (withheld from LeaseExpired) instead of evicted, a genuinely dead node
//     still expires, and an acquire with an op deadline fails with
//     DEADLINE_EXCEEDED instead of blocking forever behind a slow peer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/lbc/client.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/crash_explorer.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/rvm/types.h"
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

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global()->CounterValue(name);
}

// --- log-quota backpressure -------------------------------------------------

constexpr rvm::RegionId kBpRegion = 3;
constexpr rvm::LockId kBpLock = 33;
constexpr uint64_t kBpWrite = 32;  // bytes modified per transaction
constexpr int kBpTxns = 12;
constexpr uint64_t kBpRegionBytes = kBpTxns * kBpWrite;

// One framed log record for a kBpWrite-byte transaction, measured on a
// throwaway node so the watermark tests scale with the wire format instead
// of hard-coding header sizes.
uint64_t MeasureRecordBytes() {
  store::MemStore mem;
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, rvm::RvmOptions{}));
  EXPECT_TRUE(node->MapRegion(kBpRegion, kBpRegionBytes).ok());
  rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
  EXPECT_TRUE(node->SetRange(txn, kBpRegion, 0, kBpWrite).ok());
  EXPECT_TRUE(node->SetLockId(txn, kBpLock, 1).ok());
  EXPECT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  return node->log_bytes();
}

// Runs the fixed backpressure workload; returns OK or the first commit
// error. `node` must have kBpRegion mapped. Each transaction fills its own
// kBpWrite slice with a distinct byte so prefixes are distinguishable.
base::Status RunBackpressureWorkload(rvm::Rvm* node) {
  for (int i = 0; i < kBpTxns; ++i) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    RETURN_IF_ERROR(node->SetRange(txn, kBpRegion, i * kBpWrite, kBpWrite));
    std::memset(node->GetRegion(kBpRegion)->data() + i * kBpWrite,
                static_cast<uint8_t>(0x40 + i), kBpWrite);
    RETURN_IF_ERROR(node->SetLockId(txn, kBpLock, static_cast<uint64_t>(i) + 1));
    RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
  }
  return base::OkStatus();
}

base::Result<std::vector<uint8_t>> ReadWholeFile(store::DurableStore* s,
                                                 const std::string& name,
                                                 uint64_t expect_at_most) {
  std::vector<uint8_t> out(expect_at_most, 0);
  ASSIGN_OR_RETURN(bool exists, s->Exists(name));
  if (!exists) {
    return out;
  }
  ASSIGN_OR_RETURN(auto file, s->Open(name, /*create=*/false));
  ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size > 0) {
    RETURN_IF_ERROR(
        file->ReadExact(0, out.data(), std::min<uint64_t>(size, expect_at_most)));
  }
  return out;
}

TEST(Backpressure, HardWatermarkStallsAndTrimsInsteadOfFailing) {
  const uint64_t rec = MeasureRecordBytes();
  ASSERT_GT(rec, kBpWrite);

  // Unconstrained reference run.
  store::MemStore free_mem;
  auto free_node = std::move(*rvm::Rvm::Open(&free_mem, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(free_node->MapRegion(kBpRegion, kBpRegionBytes).ok());
  ASSERT_TRUE(RunBackpressureWorkload(free_node.get()).ok());

  // Constrained run: the log may hold at most ~2.5 records, so most commits
  // hit the hard watermark and must ride a trim to completion.
  store::MemStore mem;
  rvm::RvmOptions options;
  options.log_hard_limit_bytes = rec * 5 / 2;
  options.backpressure_stall_ms = 5000;
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, options));
  ASSERT_TRUE(node->MapRegion(kBpRegion, kBpRegionBytes).ok());

  // §3.5 release valve: replay this node's log into the database, then trim
  // everything at or below the already-committed sequence numbers. Runs on
  // the stalled committer's own thread, without the instance lock.
  base::Status hook_status = base::OkStatus();
  uint64_t committed = 0;
  node->SetTrimHook([&](uint64_t used, uint64_t limit) {
    EXPECT_GE(used, limit);
    base::Status st = rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)});
    if (st.ok()) {
      st = node->TrimLogWithBaselines({{kBpLock, committed}});
    }
    if (!st.ok() && hook_status.ok()) {
      hook_status = st;
    }
  });

  for (int i = 0; i < kBpTxns; ++i) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, kBpRegion, i * kBpWrite, kBpWrite).ok());
    std::memset(node->GetRegion(kBpRegion)->data() + i * kBpWrite,
                static_cast<uint8_t>(0x40 + i), kBpWrite);
    ASSERT_TRUE(node->SetLockId(txn, kBpLock, static_cast<uint64_t>(i) + 1).ok());
    base::Status st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
    ASSERT_TRUE(st.ok()) << "commit " << i << ": " << st.ToString();
    ++committed;
  }
  ASSERT_TRUE(hook_status.ok()) << hook_status.ToString();

  rvm::RvmStats stats = node->stats();
  EXPECT_GT(stats.backpressure_stalls, 0u);
  EXPECT_GT(stats.trim_requests, 0u);
  EXPECT_EQ(0u, stats.commits_exhausted);
  EXPECT_GT(stats.backpressure_stall_nanos, 0u);
  EXPECT_LT(node->log_bytes(), options.log_hard_limit_bytes + rec);

  // The quota changed *when* bytes moved, never *what* committed: cached
  // images and recovered database files match the unconstrained run.
  EXPECT_EQ(0, std::memcmp(node->GetRegion(kBpRegion)->data(),
                           free_node->GetRegion(kBpRegion)->data(), kBpRegionBytes));
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&free_mem, {rvm::LogFileName(1)}).ok());
  auto constrained = ReadWholeFile(&mem, rvm::RegionFileName(kBpRegion), kBpRegionBytes);
  auto unconstrained =
      ReadWholeFile(&free_mem, rvm::RegionFileName(kBpRegion), kBpRegionBytes);
  ASSERT_TRUE(constrained.ok());
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_EQ(*constrained, *unconstrained);
}

TEST(Backpressure, ExhaustedCommitFailsSoftlyAndRetriesAfterManualTrim) {
  const uint64_t rec = MeasureRecordBytes();
  store::MemStore mem;
  rvm::RvmOptions options;
  options.log_hard_limit_bytes = rec * 5 / 2;
  options.backpressure_stall_ms = 50;  // no trim hook: the stall must expire
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, options));
  ASSERT_TRUE(node->MapRegion(kBpRegion, kBpRegionBytes).ok());

  uint64_t committed = 0;
  rvm::TxnId stuck_txn = 0;
  base::Status stuck = base::OkStatus();
  for (int i = 0; i < kBpTxns && stuck.ok(); ++i) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, kBpRegion, i * kBpWrite, kBpWrite).ok());
    std::memset(node->GetRegion(kBpRegion)->data() + i * kBpWrite,
                static_cast<uint8_t>(0x40 + i), kBpWrite);
    ASSERT_TRUE(node->SetLockId(txn, kBpLock, static_cast<uint64_t>(i) + 1).ok());
    stuck = node->EndTransaction(txn, rvm::CommitMode::kFlush);
    if (stuck.ok()) {
      ++committed;
    } else {
      stuck_txn = txn;
    }
  }

  // The log filled, nobody trimmed, and the stall budget expired: the commit
  // failed with RESOURCE_EXHAUSTED — a Status, not an abort() — and the
  // transaction is still active.
  ASSERT_FALSE(stuck.ok());
  EXPECT_EQ(base::StatusCode::kResourceExhausted, stuck.code()) << stuck.ToString();
  rvm::RvmStats stats = node->stats();
  EXPECT_GE(stats.backpressure_stalls, 1u);
  EXPECT_EQ(1u, stats.commits_exhausted);

  // Out-of-band trim, then retry the *same* transaction.
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  ASSERT_TRUE(node->TrimLogWithBaselines({{kBpLock, committed}}).ok());
  ASSERT_LT(node->log_bytes(), options.log_hard_limit_bytes);
  ASSERT_TRUE(node->EndTransaction(stuck_txn, rvm::CommitMode::kFlush).ok());
  ++committed;

  // The retried commit is durably in the prefix.
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  auto recovered = ReadWholeFile(&mem, rvm::RegionFileName(kBpRegion), kBpRegionBytes);
  ASSERT_TRUE(recovered.ok());
  for (uint64_t i = 0; i < committed; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(0x40 + i), (*recovered)[i * kBpWrite])
        << "transaction " << i << " missing after recovery";
  }
}

TEST(Backpressure, SoftWatermarkFiresTrimHookOnceWithoutStalling) {
  const uint64_t rec = MeasureRecordBytes();
  store::MemStore mem;
  rvm::RvmOptions options;
  options.log_soft_limit_bytes = rec * 5 / 2;  // hard limit stays disabled
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, options));
  ASSERT_TRUE(node->MapRegion(kBpRegion, kBpRegionBytes).ok());

  int fires = 0;
  uint64_t hook_used = 0;
  uint64_t hook_limit = 0;
  node->SetTrimHook([&](uint64_t used, uint64_t limit) {
    ++fires;
    hook_used = used;
    hook_limit = limit;
  });

  ASSERT_TRUE(RunBackpressureWorkload(node.get()).ok());

  // Edge-triggered: only the commit that crossed the watermark asked for a
  // trim, and — the hook having freed nothing — the log kept growing without
  // re-firing and without ever stalling a commit.
  EXPECT_EQ(1, fires);
  EXPECT_GE(hook_used, options.log_soft_limit_bytes);
  EXPECT_EQ(options.log_soft_limit_bytes, hook_limit);
  rvm::RvmStats stats = node->stats();
  EXPECT_EQ(1u, stats.trim_requests);
  EXPECT_EQ(0u, stats.backpressure_stalls);
  EXPECT_EQ(0u, stats.commits_exhausted);
}

TEST(Backpressure, MultipleStallersFireTrimHookOncePerEpisode) {
  const uint64_t rec = MeasureRecordBytes();
  store::MemStore mem;
  rvm::RvmOptions options;
  options.log_hard_limit_bytes = rec * 4;
  options.backpressure_stall_ms = 10000;
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, options));
  ASSERT_TRUE(node->MapRegion(kBpRegion, kBpRegionBytes).ok());

  // Phase 1 hook: counts firings but frees nothing, so the stall episode
  // stays open while more committers pile up behind the watermark.
  std::atomic<int> fires{0};
  node->SetTrimHook([&](uint64_t, uint64_t) { ++fires; });

  // Fill to the hard watermark.
  for (int i = 0; i < 4; ++i) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, kBpRegion, i * kBpWrite, kBpWrite).ok());
    std::memset(node->GetRegion(kBpRegion)->data() + i * kBpWrite,
                static_cast<uint8_t>(0x40 + i), kBpWrite);
    ASSERT_TRUE(node->SetLockId(txn, kBpLock, static_cast<uint64_t>(i) + 1).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }
  ASSERT_GE(node->log_bytes(), options.log_hard_limit_bytes);

  // Three committers stall at once.
  constexpr int kStallers = 3;
  std::vector<std::thread> stallers;
  std::vector<base::Status> results(kStallers);
  for (int s = 0; s < kStallers; ++s) {
    stallers.emplace_back([&, s] {
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      uint64_t off = static_cast<uint64_t>(4 + s) * kBpWrite;
      base::Status st = node->SetRange(txn, kBpRegion, off, kBpWrite);
      if (st.ok()) {
        std::memset(node->GetRegion(kBpRegion)->data() + off,
                    static_cast<uint8_t>(0x44 + s), kBpWrite);
        st = node->SetLockId(txn, kBpLock, static_cast<uint64_t>(5 + s));
      }
      if (st.ok()) {
        st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
      }
      results[s] = st;
    });
  }
  while (node->stats().backpressure_stalls < kStallers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every staller has now been through the stall loop; give them time to
  // (wrongly) stack extra trim requests. The episode guard is shared state,
  // so the second and third stallers must wait behind the first firing
  // instead of re-firing the hook themselves.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(1, fires.load());

  // End the episode with a real out-of-band trim; everyone commits.
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&mem, {rvm::LogFileName(1)}).ok());
  ASSERT_TRUE(node->TrimLogWithBaselines({{kBpLock, 4}}).ok());
  for (auto& t : stallers) {
    t.join();
  }
  for (int s = 0; s < kStallers; ++s) {
    EXPECT_TRUE(results[s].ok()) << "staller " << s << ": " << results[s].ToString();
  }
  EXPECT_EQ(1, fires.load());
  rvm::RvmStats stats = node->stats();
  EXPECT_EQ(1u, stats.trim_requests);
  EXPECT_EQ(static_cast<uint64_t>(kStallers), stats.backpressure_stalls);
  EXPECT_EQ(0u, stats.commits_exhausted);
}

TEST(Backpressure, SlowTrimHookDoesNotRefireAndDeadlineHolds) {
  const uint64_t rec = MeasureRecordBytes();
  store::MemStore mem;
  rvm::RvmOptions options;
  options.log_hard_limit_bytes = rec * 2;
  options.backpressure_stall_ms = 150;
  auto node = std::move(*rvm::Rvm::Open(&mem, 1, options));
  ASSERT_TRUE(node->MapRegion(kBpRegion, kBpRegionBytes).ok());

  // A trim hook that runs far past the stall budget and frees nothing: the
  // commit's deadline expires *inside* the hook window, and must be honored
  // as soon as the stall loop gets the lock back.
  std::atomic<int> fires{0};
  node->SetTrimHook([&](uint64_t, uint64_t) {
    ++fires;
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });

  for (int i = 0; i < 2; ++i) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(node->SetRange(txn, kBpRegion, i * kBpWrite, kBpWrite).ok());
    ASSERT_TRUE(node->SetLockId(txn, kBpLock, static_cast<uint64_t>(i) + 1).ok());
    ASSERT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }
  ASSERT_GE(node->log_bytes(), options.log_hard_limit_bytes);

  rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(node->SetRange(txn, kBpRegion, 2 * kBpWrite, kBpWrite).ok());
  base::Status first = node->EndTransaction(txn, rvm::CommitMode::kFlush);
  EXPECT_EQ(base::StatusCode::kResourceExhausted, first.code()) << first.ToString();
  EXPECT_EQ(1, fires.load());

  // Retrying the same transaction re-enters the stall, but the episode is
  // still open (nothing trimmed), so the 400 ms hook must NOT re-fire: the
  // retry burns only its own 150 ms budget, in waits clamped to what is
  // left of it.
  auto start = std::chrono::steady_clock::now();
  base::Status second = node->EndTransaction(txn, rvm::CommitMode::kFlush);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(base::StatusCode::kResourceExhausted, second.code()) << second.ToString();
  EXPECT_EQ(1, fires.load());
  EXPECT_LT(elapsed.count(), 350) << "retry re-ran the slow trim hook";
  rvm::RvmStats stats = node->stats();
  EXPECT_EQ(2u, stats.commits_exhausted);
  EXPECT_EQ(1u, stats.trim_requests);
}

// --- crash-at-every-op during ENOSPC ----------------------------------------

constexpr rvm::RegionId kQRegion = 9;
constexpr rvm::LockId kQLock = 77;
constexpr uint64_t kQRegionBytes = 32;
constexpr uint64_t kQWrite = 4;
constexpr int kQTxns = 6;
constexpr uint8_t kQValues[kQTxns] = {0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6};

using RegionBytes = std::vector<uint8_t>;

// shadow[k] = region bytes after the first k committed transactions.
std::vector<RegionBytes> BuildQuotaShadow() {
  std::vector<RegionBytes> shadow;
  RegionBytes state(kQRegionBytes, 0);
  shadow.push_back(state);
  for (int i = 0; i < kQTxns; ++i) {
    std::memset(state.data() + i * kQWrite, kQValues[i], kQWrite);
    shadow.push_back(state);
  }
  return shadow;
}

// Trim-on-ENOSPC workload harness for the crash sweep. Deterministic by
// construction: quota refusals are driven purely by byte counts (MemStore
// whole-fails the positional log write, leaving it retryable), so every
// replay issues the identical store-op sequence up to the injected crash.
// The rvm hard watermark is NOT used here — its stall is wall-clock-timed
// and would break the explorer's determinism contract.
class QuotaSweepHarness {
 public:
  QuotaSweepHarness(uint64_t quota, uint64_t budget, uint64_t seed)
      : shadow_(BuildQuotaShadow()) {
    options_.budget = budget;
    options_.seed = seed;
    options_.configure_machine = [quota](store::MemStore* mem) {
      mem->SetQuotaBytes(quota);
    };
  }

  rvm::CrashExplorer MakeExplorer() {
    return rvm::CrashExplorer(
        options_, [this](store::DurableStore* s) { return RunWorkload(s); },
        [this](store::DurableStore* s) { return Recover(s); },
        [this](store::DurableStore* s) { return Verify(s); });
  }

  // Feasibility probe: the workload must survive this quota on a crash-free
  // machine — recovery headroom comes from the early checkpoint below.
  base::Status RunWorkload(store::DurableStore* s) { return RunWorkloadImpl(s); }

  int enospc_commits() const { return enospc_commits_; }

 private:
  base::Status Checkpoint(store::DurableStore* s, rvm::Rvm* node, uint64_t seq) {
    RETURN_IF_ERROR(rvm::ReplayLogsIntoDatabase(s, {rvm::LogFileName(1)}));
    return node->TrimLogWithBaselines({{kQLock, seq}});
  }

  base::Status RunWorkloadImpl(store::DurableStore* s) {
    commits_ = 0;
    enospc_commits_ = 0;
    ASSIGN_OR_RETURN(auto node, rvm::Rvm::Open(s, 1, rvm::RvmOptions{}));
    RETURN_IF_ERROR(node->MapRegion(kQRegion, kQRegionBytes).status());
    uint64_t seq = 0;
    // Format: commit one full-region zero write and checkpoint it, so the
    // database file and its checksum sidecar exist durably at full size.
    // Every later replay — the mid-workload trims AND crash recovery —
    // writes into those files in place with zero growth, which is what
    // makes tight quotas survivable at every crash point. The zero write
    // leaves the region equal to shadow[0], so verification is unchanged.
    {
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      RETURN_IF_ERROR(node->SetRange(txn, kQRegion, 0, kQRegionBytes));
      RETURN_IF_ERROR(node->SetLockId(txn, kQLock, seq + 1));
      RETURN_IF_ERROR(node->EndTransaction(txn, rvm::CommitMode::kFlush));
      ++seq;
      RETURN_IF_ERROR(Checkpoint(s, node.get(), seq));
    }
    for (int i = 0; i < kQTxns; ++i) {
      rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
      RETURN_IF_ERROR(node->SetRange(txn, kQRegion, i * kQWrite, kQWrite));
      std::memset(node->GetRegion(kQRegion)->data() + i * kQWrite, kQValues[i],
                  kQWrite);
      RETURN_IF_ERROR(node->SetLockId(txn, kQLock, seq + 1));
      base::Status st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
      if (!st.ok() && st.code() == base::StatusCode::kResourceExhausted) {
        // Disk full: checkpoint (replay + trim below the committed
        // sequences) to free log bytes, then retry the same — still
        // active — transaction. Any other error (e.g. the injected
        // crash, UNAVAILABLE) propagates to the explorer untouched.
        ++enospc_commits_;
        RETURN_IF_ERROR(Checkpoint(s, node.get(), seq));
        st = node->EndTransaction(txn, rvm::CommitMode::kFlush);
      }
      RETURN_IF_ERROR(st);
      ++seq;
      ++commits_;
    }
    return base::OkStatus();
  }

  base::Status Recover(store::DurableStore* s) {
    return rvm::ReplayLogsIntoDatabase(s, {rvm::LogFileName(1)});
  }

  base::Status Verify(store::DurableStore* s) {
    ASSIGN_OR_RETURN(RegionBytes got,
                     ReadWholeFile(s, rvm::RegionFileName(kQRegion), kQRegionBytes));
    if (got == shadow_[commits_]) {
      return base::OkStatus();
    }
    if (commits_ + 1 < static_cast<int>(shadow_.size()) &&
        got == shadow_[commits_ + 1]) {
      return base::OkStatus();  // in-flight commit's record was complete
    }
    return base::Internal("recovered database matches neither the " +
                          std::to_string(commits_) + "-commit prefix nor the " +
                          std::to_string(commits_ + 1) + "-commit prefix");
  }

  rvm::CrashExplorerOptions options_;
  std::vector<RegionBytes> shadow_;
  int commits_ = 0;         // kFlush commits that returned in the current run
  int enospc_commits_ = 0;  // commits that rode the trim-and-retry path
};

// The quota steps for the sweep, derived from a measured unconstrained run
// so they track the wire format: `full` fits the whole workload, `tight`
// forces at least one mid-workload ENOSPC + trim + retry, `tighter` forces
// several.
struct QuotaPlan {
  uint64_t tighter;
  uint64_t tight;
  uint64_t full;
};

QuotaPlan MeasureQuotaPlan() {
  // Unconstrained footprint of the sweep workload...
  QuotaSweepHarness probe(/*quota=*/0, /*budget=*/1, /*seed=*/1);
  store::MemStore mem;
  EXPECT_TRUE(probe.RunWorkload(&mem).ok());
  const uint64_t full = mem.used_bytes();
  // ... and one log record's growth, measured in place.
  store::MemStore rec_mem;
  auto node = std::move(*rvm::Rvm::Open(&rec_mem, 1, rvm::RvmOptions{}));
  EXPECT_TRUE(node->MapRegion(kQRegion, kQRegionBytes).ok());
  auto commit = [&](int i) {
    rvm::TxnId txn = node->BeginTransaction(rvm::RestoreMode::kNoRestore);
    EXPECT_TRUE(node->SetRange(txn, kQRegion, 0, kQWrite).ok());
    EXPECT_TRUE(node->SetLockId(txn, kQLock, static_cast<uint64_t>(i) + 1).ok());
    EXPECT_TRUE(node->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  };
  commit(0);
  uint64_t before = rec_mem.used_bytes();
  commit(1);
  const uint64_t rec = rec_mem.used_bytes() - before;
  EXPECT_GT(rec, 0u);
  return QuotaPlan{full - 2 * rec, full - rec, full + rec};
}

TEST(QuotaCrashSweep, EveryCrashDuringEnospcRecoversToCommittedPrefix) {
  const uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  const uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  const QuotaPlan plan = MeasureQuotaPlan();

  int quota_index = 0;
  for (uint64_t quota : {plan.tighter, plan.tight, plan.full}) {
    SCOPED_TRACE("quota=" + std::to_string(quota));
    QuotaSweepHarness harness(quota, budget, seed + quota_index++);

    // The quota must be survivable crash-free, and the tight settings must
    // actually exercise the ENOSPC → trim → retry path the sweep is after.
    {
      store::MemStore mem;
      mem.SetQuotaBytes(quota);
      base::Status st = harness.RunWorkload(&mem);
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (quota <= plan.tight) {
        ASSERT_GT(harness.enospc_commits(), 0);
        ASSERT_GT(mem.enospc_count(), 0u);
      }
    }

    rvm::CrashExplorer explorer = harness.MakeExplorer();
    rvm::CrashExplorerReport report;
    base::Status status = explorer.ExploreWorkloadCrashes(&report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    std::printf("quota %llu: %llu ops, %llu schedules (%llu torn)\n",
                static_cast<unsigned long long>(quota),
                static_cast<unsigned long long>(report.workload_ops),
                static_cast<unsigned long long>(report.schedules_run),
                static_cast<unsigned long long>(report.torn_schedules_run));
    EXPECT_GT(report.workload_ops, 10u);
    EXPECT_GT(report.schedules_run, 0u);
    EXPECT_GT(report.torn_schedules_run, 0u);
    if (budget == 0) {
      EXPECT_GE(report.schedules_run, report.workload_ops);
    }
  }
}

TEST(QuotaCrashSweep, RecoveryUnderQuotaIsIdempotent) {
  const uint64_t budget = EnvU64("LBC_CRASH_BUDGET", 0);
  const uint64_t seed = EnvU64("LBC_CRASH_SEED", 0x5eed);
  const QuotaPlan plan = MeasureQuotaPlan();
  QuotaSweepHarness harness(plan.tight, budget, seed);
  rvm::CrashExplorer explorer = harness.MakeExplorer();
  rvm::CrashExplorerReport report;
  base::Status status = explorer.ExploreRecoveryCrashes(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(report.recovery_ops, 0u);
  EXPECT_GT(report.nested_schedules_run, 0u);
}

// --- server admission control -----------------------------------------------

constexpr rvm::RegionId kAdmRegion = 5;
constexpr rvm::LockId kAdmLock = 55;

TEST(Admission, ShedsAtLimitWithDoublingRetryAfterHint) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.SetAdmissionLimit(lbc::Cluster::ServerQueue::kCommit, 1);

  ASSERT_TRUE(cluster.Admit(lbc::Cluster::ServerQueue::kCommit).ok());
  EXPECT_EQ(1u, cluster.Inflight(lbc::Cluster::ServerQueue::kCommit));

  // While saturated, the retry-after hint doubles 1, 2, 4, ... and caps.
  const uint64_t want_hints[] = {1, 2, 4, 8, 16, 32, 64, 64};
  for (uint64_t want : want_hints) {
    uint64_t hint = 0;
    base::Status st = cluster.Admit(lbc::Cluster::ServerQueue::kCommit, &hint);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(base::StatusCode::kOverloaded, st.code()) << st.ToString();
    EXPECT_EQ(want, hint);
  }
  EXPECT_EQ(8u, cluster.ShedCount(lbc::Cluster::ServerQueue::kCommit));

  // Draining the queue resets the hint ladder.
  cluster.Finish(lbc::Cluster::ServerQueue::kCommit);
  EXPECT_EQ(0u, cluster.Inflight(lbc::Cluster::ServerQueue::kCommit));
  ASSERT_TRUE(cluster.Admit(lbc::Cluster::ServerQueue::kCommit).ok());
  uint64_t hint = 0;
  ASSERT_FALSE(cluster.Admit(lbc::Cluster::ServerQueue::kCommit, &hint).ok());
  EXPECT_EQ(1u, hint);
  cluster.Finish(lbc::Cluster::ServerQueue::kCommit);

  // The fetch queue is independent and unlimited unless configured.
  ASSERT_TRUE(cluster.Admit(lbc::Cluster::ServerQueue::kFetch).ok());
  cluster.Finish(lbc::Cluster::ServerQueue::kFetch);
  EXPECT_EQ(0u, cluster.ShedCount(lbc::Cluster::ServerQueue::kFetch));
}

TEST(Admission, ShedCommitLeavesTransactionOpenAndBackoffRecovers) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kAdmLock, kAdmRegion, /*manager=*/1);
  cluster.SetAdmissionLimit(lbc::Cluster::ServerQueue::kCommit, 1);

  lbc::ClientOptions options;
  options.overload_retries = 2;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 2;
  auto a = std::move(*lbc::Client::Create(&cluster, 1, options));
  ASSERT_TRUE(a->MapRegion(kAdmRegion, 8192).ok());

  const uint64_t shed_before = CounterValue("admission.shed");

  // Saturate the commit queue from the outside, then try to commit through.
  ASSERT_TRUE(cluster.Admit(lbc::Cluster::ServerQueue::kCommit).ok());
  lbc::Transaction txn = a->Begin();
  ASSERT_TRUE(txn.Acquire(kAdmLock).ok());
  ASSERT_TRUE(txn.SetRange(kAdmRegion, 0, 5).ok());
  std::memcpy(a->GetRegion(kAdmRegion)->data(), "quota", 5);
  base::Status st = txn.Commit();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(base::StatusCode::kOverloaded, st.code()) << st.ToString();

  // 1 initial admit + overload_retries re-admits, all shed.
  EXPECT_EQ(3u, cluster.ShedCount(lbc::Cluster::ServerQueue::kCommit));
  EXPECT_EQ(2u, a->stats().overload_retries);
  EXPECT_GE(CounterValue("admission.shed") - shed_before, 3u);

  // The shed happened before any commit state changed: the transaction is
  // still open, so once the queue drains the same handle commits clean.
  cluster.Finish(lbc::Cluster::ServerQueue::kCommit);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(0u, cluster.Inflight(lbc::Cluster::ServerQueue::kCommit));
  EXPECT_EQ(0, std::memcmp(a->GetRegion(kAdmRegion)->data(), "quota", 5));
}

TEST(Admission, ShedMapRegionRecoversOnceQueueDrains) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kAdmLock, kAdmRegion, /*manager=*/1);
  cluster.SetAdmissionLimit(lbc::Cluster::ServerQueue::kFetch, 1);

  lbc::ClientOptions options;
  options.overload_retries = 1;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 1;
  auto a = std::move(*lbc::Client::Create(&cluster, 1, options));

  ASSERT_TRUE(cluster.Admit(lbc::Cluster::ServerQueue::kFetch).ok());
  base::Result<rvm::Region*> mapped = a->MapRegion(kAdmRegion, 8192);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(base::StatusCode::kOverloaded, mapped.status().code())
      << mapped.status().ToString();

  cluster.Finish(lbc::Cluster::ServerQueue::kFetch);
  ASSERT_TRUE(a->MapRegion(kAdmRegion, 8192).ok());
  EXPECT_EQ(0u, cluster.Inflight(lbc::Cluster::ServerQueue::kFetch));
}

// --- gray liveness ----------------------------------------------------------

TEST(GrayLiveness, SlowPeerIsSuspectNotDeadUntilStretchedDeadline) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.SetGraySlackFactor(8);
  const auto lease = std::chrono::milliseconds(100);

  // Node 1 beats slowly but steadily: the EWMA of its inter-beat gap learns
  // ~250 ms, so its stretched deadline is ~2 s — far past the 100 ms lease.
  cluster.NoteAlive(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  cluster.NoteAlive(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  cluster.NoteAlive(1);

  // Past the lease, inside the stretched deadline: suspect-slow, withheld
  // from eviction — its token must not be reclaimed while it can commit.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(cluster.LeaseExpired(lease).empty());
  std::vector<rvm::NodeId> suspect = cluster.SuspectSlow();
  ASSERT_EQ(1u, suspect.size());
  EXPECT_EQ(1u, suspect[0]);

  // Another beat clears the suspicion (an averted eviction)...
  const uint64_t averted_before = CounterValue("gray.evictions_averted");
  cluster.NoteAlive(1);
  EXPECT_TRUE(cluster.LeaseExpired(lease).empty());
  EXPECT_TRUE(cluster.SuspectSlow().empty());
  EXPECT_EQ(averted_before + 1, CounterValue("gray.evictions_averted"));

  // ... but true silence outlives any stretch: the node is reported dead
  // once even slack_factor × EWMA is exhausted.
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  std::vector<rvm::NodeId> expired = cluster.LeaseExpired(lease);
  ASSERT_EQ(1u, expired.size());
  EXPECT_EQ(1u, expired[0]);
}

TEST(GrayLiveness, NominalRateNodeStillExpiresExactlyAtLease) {
  store::MemStore store;
  lbc::Cluster cluster(&store);

  // Fast beats: EWMA ≪ lease, so the stretched deadline IS the lease and
  // the gray layer changes nothing for ordinary failures.
  for (int i = 0; i < 5; ++i) {
    cluster.NoteAlive(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::vector<rvm::NodeId> expired = cluster.LeaseExpired(std::chrono::milliseconds(100));
  ASSERT_EQ(1u, expired.size());
  EXPECT_EQ(2u, expired[0]);
  EXPECT_TRUE(cluster.SuspectSlow().empty());
}

TEST(GrayLiveness, BeatFromDeclaredDeadNodeCountsAsFalseEviction) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.NoteAlive(3);
  cluster.DeclareDead(3);

  const uint64_t false_before = CounterValue("gray.false_evictions");
  cluster.NoteAlive(3);  // the "dead" node was merely slow
  EXPECT_EQ(false_before + 1, CounterValue("gray.false_evictions"));
  // The late beat does not resurrect it in the lease registry.
  EXPECT_TRUE(cluster.LeaseExpired(std::chrono::milliseconds(0)).empty());
}

TEST(GrayLiveness, AcquireDeadlineFailsFastBehindSlowHolderThenSucceeds) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kAdmLock, kAdmRegion, /*manager=*/1);

  auto a = std::move(*lbc::Client::Create(&cluster, 1, lbc::ClientOptions{}));
  lbc::ClientOptions b_options;
  b_options.op_deadline_ms = 100;
  auto b = std::move(*lbc::Client::Create(&cluster, 2, b_options));
  ASSERT_TRUE(a->MapRegion(kAdmRegion, 8192).ok());
  ASSERT_TRUE(b->MapRegion(kAdmRegion, 8192).ok());

  // A holds the lock in an open transaction — a slow peer from B's side.
  lbc::Transaction slow = a->Begin();
  ASSERT_TRUE(slow.Acquire(kAdmLock).ok());
  ASSERT_TRUE(slow.SetRange(kAdmRegion, 0, 4).ok());
  std::memcpy(a->GetRegion(kAdmRegion)->data(), "slow", 4);

  lbc::Transaction txn = b->Begin();
  base::Status st = txn.Acquire(kAdmLock);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(base::StatusCode::kDeadlineExceeded, st.code()) << st.ToString();
  EXPECT_EQ(1u, b->stats().deadline_misses);

  // The slow holder finishes; the same transaction's retried acquire now
  // lands within budget and B sees A's committed bytes.
  ASSERT_TRUE(slow.Commit().ok());
  ASSERT_TRUE(txn.Acquire(kAdmLock).ok());
  EXPECT_EQ(0, std::memcmp(b->GetRegion(kAdmRegion)->data(), "slow", 4));
  ASSERT_TRUE(txn.Commit().ok());
}

}  // namespace
