// Incremental ("instant") recovery: a restarted server builds a per-page
// index over the merged logs instead of replaying them, declares itself
// serving immediately, and materializes pages on first touch or from the
// background drainer. These tests pin, in order:
//
//   * the LogIndex itself (mirrors the merged history; Extend dedups by
//     per-node commit sequence),
//   * the serve-before-drain window and post-drain byte identity with the
//     merged logs,
//   * one sidecar write and one sidecar sync per materialized page, and
//     seven database-file ops per materialized region file, one page or
//     three, when redo covers any page partially,
//   * blind replay of whole-page redo: five ops per file (no pre-image or
//     sidecar read), the redo certified over any rot beneath it, a rotten
//     partial page stopping its file's blind pages too, and a blind page
//     resuming from its intent after a power cut,
//   * the op_deadline_ms bound on a first-touch wait (the transaction — and
//     the client — stay usable after a DEADLINE_EXCEEDED map),
//   * lazily discovered pre-image rot failing certification and routing
//     through the Scrubber instead of being replayed over — and DrainRecovery
//     returning DATA_LOSS when the scrubber cannot heal it,
//   * a dead-client recovery that no longer starves the calling heartbeat
//     thread behind a synchronous replay, and
//   * the boot-record dedup that keeps a late RecoverDeadClient from
//     rolling already-replayed pages backwards, and
//   * the drain worker pool: files replay concurrently, never two replays
//     of one file at once, and a page re-pended while its file is in
//     flight is replayed again,
//   * rot under a full replay or a trim: DATA_LOSS before any byte is
//     written, never a re-certified rotten page, healed by a trim once a
//     scrubber is attached — waived only for redo covering the whole page,
//     and
//   * full replay, the online trim and the standby checkpoint landing on
//     the reference computed from the merged logs (tests/replay_reference.h),
//     sidecars included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/sync.h"
#include "src/lbc/client.h"
#include "src/lbc/online_trim.h"
#include "src/lbc/standby.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_index.h"
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/replay_on_demand.h"
#include "src/rvm/rvm.h"
#include "src/rvm/scrub.h"
#include "src/store/corrupting_store.h"
#include "src/store/crash_point_store.h"
#include "src/store/mem_store.h"
#include "src/store/replicated_store.h"
#include "src/store/resource_store.h"
#include "tests/testing_records.h"
#include "tests/replay_reference.h"

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

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global()->GetCounter(name)->value();
}

std::vector<uint8_t> ReadFile(store::DurableStore* store, const std::string& name) {
  auto file = std::move(*store->Open(name, /*create=*/false));
  std::vector<uint8_t> bytes(*file->Size());
  if (!bytes.empty()) {
    EXPECT_TRUE(file->ReadExact(0, bytes.data(), bytes.size()).ok());
  }
  return bytes;
}

// Replays `merged` (already in merged order) through a drained recovery:
// the setup step that leaves certified region files and sidecars behind.
base::Status ReplayMerged(store::DurableStore* store,
                          std::vector<rvm::TransactionRecord> merged) {
  rvm::IncrementalRecovery recovery(store, rvm::LogIndex::FromMerged(std::move(merged)));
  for (;;) {
    ASSIGN_OR_RETURN(bool more, recovery.DrainStep());
    if (!more) {
      return base::OkStatus();
    }
  }
}

// ---------------------------------------------------------------------------
// ProbeStore: records every data op on a database file or sidecar — which
// region, which thread, when — and can park the first Write to one file
// until the test releases it, holding that file's replay in flight.
// ---------------------------------------------------------------------------

class ProbeStore : public store::DurableStore {
 public:
  struct Op {
    std::string file;
    char kind;  // 'R'ead, 'W'rite, 'A'ppend, 'S'ync, 'T'runcate
    rvm::RegionId region;
    std::thread::id thread;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };

  explicit ProbeStore(store::DurableStore* base) : base_(base) {}

  base::Result<std::unique_ptr<store::DurableFile>> Open(const std::string& name,
                                                         bool create) override {
    ASSIGN_OR_RETURN(auto file, base_->Open(name, create));
    if (name.rfind("region_", 0) != 0) {
      return file;  // logs are not probed
    }
    return std::unique_ptr<store::DurableFile>(new File(this, name, std::move(file)));
  }
  base::Status Remove(const std::string& name) override { return base_->Remove(name); }
  base::Result<bool> Exists(const std::string& name) override { return base_->Exists(name); }
  base::Result<std::vector<std::string>> List() override { return base_->List(); }
  base::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  base::Status SyncDir() override { return base_->SyncDir(); }

  void HoldFirstWrite(const std::string& name) {
    base::MutexLock lk(mu_);
    hold_file_ = name;
  }
  // True once the held Write has arrived (within 10 s).
  bool WaitHeld() {
    base::MutexLock lk(mu_);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!held_) {
      if (!cv_.WaitUntil(lk, deadline)) {
        return false;
      }
    }
    return true;
  }
  void Release() {
    base::MutexLock lk(mu_);
    hold_file_.clear();
    cv_.NotifyAll();
  }

  std::vector<Op> ops() const {
    base::MutexLock lk(mu_);
    return ops_;
  }
  void ClearOps() {
    base::MutexLock lk(mu_);
    ops_.clear();
  }
  // "<file>:<kind>" for every recorded op, in the order they completed.
  std::vector<std::string> OpTrace() const {
    std::vector<std::string> out;
    for (const Op& op : ops()) {
      out.push_back(op.file + ":" + op.kind);
    }
    return out;
  }

 private:
  class File : public store::DurableFile {
   public:
    File(ProbeStore* owner, std::string name, std::unique_ptr<store::DurableFile> base)
        : owner_(owner), name_(std::move(name)), base_(std::move(base)) {}
    base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
      const auto start = owner_->Begin(name_, /*is_write=*/false);
      auto result = base_->Read(offset, buf, len);
      owner_->End(name_, 'R', start);
      return result;
    }
    base::Status Write(uint64_t offset, base::ByteSpan data) override {
      const auto start = owner_->Begin(name_, /*is_write=*/true);
      base::Status status = base_->Write(offset, data);
      owner_->End(name_, 'W', start);
      return status;
    }
    base::Result<uint64_t> Append(base::ByteSpan data) override {
      const auto start = owner_->Begin(name_, /*is_write=*/false);
      auto result = base_->Append(data);
      owner_->End(name_, 'A', start);
      return result;
    }
    base::Status Sync() override {
      const auto start = owner_->Begin(name_, /*is_write=*/false);
      base::Status status = base_->Sync();
      owner_->End(name_, 'S', start);
      return status;
    }
    base::Result<uint64_t> Size() const override { return base_->Size(); }
    base::Status Truncate(uint64_t size) override {
      const auto start = owner_->Begin(name_, /*is_write=*/false);
      base::Status status = base_->Truncate(size);
      owner_->End(name_, 'T', start);
      return status;
    }

   private:
    ProbeStore* owner_;
    std::string name_;
    std::unique_ptr<store::DurableFile> base_;
  };

  std::chrono::steady_clock::time_point Begin(const std::string& name, bool is_write) {
    base::MutexLock lk(mu_);
    if (is_write && !held_ && name == hold_file_) {
      held_ = true;
      cv_.NotifyAll();
      while (!hold_file_.empty()) {
        cv_.Wait(lk);
      }
    }
    return std::chrono::steady_clock::now();
  }

  void End(const std::string& name, char kind, std::chrono::steady_clock::time_point start) {
    const auto end = std::chrono::steady_clock::now();
    // "region_<id>.db" / "region_<id>.dbsum"
    const auto region = static_cast<rvm::RegionId>(std::strtoull(name.c_str() + 7, nullptr, 10));
    base::MutexLock lk(mu_);
    ops_.push_back(Op{name, kind, region, std::this_thread::get_id(), start, end});
  }

  store::DurableStore* base_;
  mutable base::Mutex mu_{"test.probe_store"};
  base::CondVar cv_;
  std::string hold_file_;
  bool held_ = false;
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------------
// Shared two-region workload over a plain MemStore cluster
// ---------------------------------------------------------------------------

constexpr rvm::RegionId kRegionA = 1;
constexpr rvm::RegionId kRegionB = 2;
constexpr uint64_t kPagesA = 3;
constexpr uint64_t kPagesB = 2;
constexpr uint64_t kLenA = kPagesA * rvm::kDbPageSize;
constexpr uint64_t kLenB = kPagesB * rvm::kDbPageSize;
constexpr rvm::LockId kLockA1 = 101;  // region A, manager 1
constexpr rvm::LockId kLockA2 = 102;  // region A, manager 2
constexpr rvm::LockId kLockB1 = 103;  // region B, manager 1
constexpr rvm::LockId kLockB2 = 104;  // region B, manager 2

struct Fixture {
  Fixture() : cluster(std::make_unique<lbc::Cluster>(&mem)) {
    cluster->DefineLock(kLockA1, kRegionA, 1);
    cluster->DefineLock(kLockA2, kRegionA, 2);
    cluster->DefineLock(kLockB1, kRegionB, 1);
    cluster->DefineLock(kLockB2, kRegionB, 2);
    expected_a.assign(kLenA, 0);
    expected_b.assign(kLenB, 0);
  }

  // Two clients commit full-page and straddling partial-page patterns into
  // both regions, then detach. Every write is mirrored into expected_a/_b,
  // so the fixture always knows the byte-exact committed images.
  void CommitWorkload() {
    auto a = std::move(*lbc::Client::Create(cluster.get(), 1, {}));
    auto b = std::move(*lbc::Client::Create(cluster.get(), 2, {}));
    ASSERT_TRUE(a->MapRegion(kRegionA, kLenA).ok());
    ASSERT_TRUE(b->MapRegion(kRegionA, kLenA).ok());
    ASSERT_TRUE(a->MapRegion(kRegionB, kLenB).ok());
    ASSERT_TRUE(b->MapRegion(kRegionB, kLenB).ok());
    Commits(a.get(), b.get());
    a.reset();
    b.reset();
  }

  // The workload's commits from nodes 1 (a) and 2 (b), which map both
  // regions; returns once each has applied the other's updates.
  void Commits(lbc::Client* a, lbc::Client* b) {
    auto commit = [&](lbc::Client* c, rvm::LockId lock, rvm::RegionId region,
                      uint64_t offset, uint64_t len, uint8_t fill) {
      lbc::Transaction txn = c->Begin();
      ASSERT_TRUE(txn.Acquire(lock).ok());
      ASSERT_TRUE(txn.SetRange(region, offset, len).ok());
      std::memset(c->GetRegion(region)->data() + offset, fill, len);
      ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
      auto& expected = region == kRegionA ? expected_a : expected_b;
      std::memset(expected.data() + offset, fill, len);
    };
    commit(a, kLockA1, kRegionA, 0 * rvm::kDbPageSize, rvm::kDbPageSize, 0x11);
    commit(b, kLockA2, kRegionA, 1 * rvm::kDbPageSize, rvm::kDbPageSize, 0x22);
    commit(a, kLockA1, kRegionA, 2 * rvm::kDbPageSize, rvm::kDbPageSize, 0x33);
    commit(b, kLockA2, kRegionA, 8000, 400, 0x44);  // page 0/1 straddle
    commit(a, kLockB1, kRegionB, 0, rvm::kDbPageSize, 0x55);
    commit(b, kLockB2, kRegionB, rvm::kDbPageSize + 100, 200, 0x66);
    ASSERT_TRUE(a->WaitForAppliedSeq(kLockA2, 2, 5000));
    ASSERT_TRUE(b->WaitForAppliedSeq(kLockA1, 2, 5000));
    ASSERT_TRUE(a->WaitForAppliedSeq(kLockB2, 1, 5000));
    ASSERT_TRUE(b->WaitForAppliedSeq(kLockB1, 1, 5000));
  }

  store::MemStore mem;
  std::unique_ptr<lbc::Cluster> cluster;
  std::vector<uint8_t> expected_a;
  std::vector<uint8_t> expected_b;
};

// ---------------------------------------------------------------------------
// 1. The index mirrors the merged history
// ---------------------------------------------------------------------------

TEST(LogIndex, MirrorsMergedHistory) {
  Fixture fx;
  fx.CommitWorkload();
  const std::vector<std::string> logs = {rvm::LogFileName(1), rvm::LogFileName(2)};

  auto built = rvm::LogIndex::Build(&fx.mem, logs);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto merged = rvm::MergeLogs(&fx.mem, logs);
  ASSERT_TRUE(merged.ok());
  rvm::LogIndex from_merged = rvm::LogIndex::FromMerged(*merged);

  // Same history, same pages, same per-lock and per-node maxima.
  EXPECT_EQ(merged->size(), built->transactions().size());
  EXPECT_EQ(from_merged.Pages(), built->Pages());
  EXPECT_EQ(from_merged.MaxLockSeq(), built->MaxLockSeq());
  EXPECT_EQ(5u, built->page_count());  // A:{0,1,2} + B:{0,1}
  EXPECT_EQ((std::vector<uint64_t>{0, 1, 2}), built->PagesOf(kRegionA));
  EXPECT_EQ((std::vector<uint64_t>{0, 1}), built->PagesOf(kRegionB));
  EXPECT_TRUE(built->PagesOf(99).empty());

  // Per-lock maxima match the workload's acquire counts.
  EXPECT_EQ(2u, built->MaxLockSeq().at(kLockA1));
  EXPECT_EQ(2u, built->MaxLockSeq().at(kLockA2));
  EXPECT_EQ(1u, built->MaxLockSeq().at(kLockB1));
  EXPECT_EQ(1u, built->MaxLockSeq().at(kLockB2));
  EXPECT_GT(built->MaxCommitSeq(1), 0u);
  EXPECT_EQ(0u, built->MaxCommitSeq(99));

  // The straddling commit shows up on both pages it touches; untouched
  // pages have no slice list at all.
  ASSERT_NE(nullptr, built->SlicesFor(kRegionA, 0));
  ASSERT_NE(nullptr, built->SlicesFor(kRegionA, 1));
  EXPECT_EQ(nullptr, built->SlicesFor(kRegionA, 3));
  EXPECT_EQ(nullptr, built->SlicesFor(99, 0));

  // Per-page slice lists preserve merged order (monotone transaction
  // indexes), so replaying a page's slices alone is order-correct.
  for (const auto& key : built->Pages()) {
    const auto* slices = built->SlicesFor(key.first, key.second);
    ASSERT_NE(nullptr, slices);
    ASSERT_FALSE(slices->empty());
    for (size_t i = 1; i < slices->size(); ++i) {
      EXPECT_LE((*slices)[i - 1].txn, (*slices)[i].txn);
    }
  }
}

TEST(LogIndex, ExtendDedupsByCommitSeq) {
  Fixture fx;
  fx.CommitWorkload();
  auto built =
      rvm::LogIndex::Build(&fx.mem, {rvm::LogFileName(1), rvm::LogFileName(2)});
  ASSERT_TRUE(built.ok());
  rvm::LogIndex index = std::move(*built);
  const uint64_t pages_before = index.page_count();

  // Re-merging an already indexed log must be a no-op.
  auto merged = rvm::MergeLogs(&fx.mem, {rvm::LogFileName(2)});
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(index.Extend(*merged).empty());
  EXPECT_EQ(pages_before, index.page_count());

  // A genuinely new record (fresh commit_seq) is indexed and reports the
  // page it touches — including a page the index has never seen.
  const rvm::TransactionRecord rec =
      testing_records::Record(2, index.MaxCommitSeq(2) + 1, {{kLockA2, 3}},
                              {{kRegionB, rvm::kDbPageSize + 10, std::vector<uint8_t>(16, 0x5A)}});
  std::vector<rvm::LogIndex::PageKey> touched = index.Extend({rec});
  ASSERT_EQ(1u, touched.size());
  EXPECT_EQ(rvm::LogIndex::PageKey(kRegionB, 1), touched[0]);
  EXPECT_EQ(3u, index.MaxLockSeq().at(kLockA2));

  // And feeding the same record again dedups against the raised maximum.
  EXPECT_TRUE(index.Extend({rec}).empty());
}

// ---------------------------------------------------------------------------
// 2. Serve before the drain finishes; byte-identical to a full replay after
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, ServesBeforeDrainThenMatchesEagerByteForByte) {
  // The reference bytes come straight from the merged logs (pre-image plus
  // every range, in merged order), independent of the replay engine.
  Fixture incr;
  incr.CommitWorkload();
  incr.cluster->KillServer();
  const replay_reference::Files reference =
      replay_reference::ReferenceFiles(&incr.mem, {rvm::LogFileName(1), rvm::LogFileName(2)});
  ASSERT_EQ(4u, reference.size());

  const uint64_t on_demand_before = Counter("recovery.pages_on_demand");
  const uint64_t background_before = Counter("recovery.pages_background");

  {
    // Holding the database-writer lock freezes all page materialization, so
    // the serving-while-unreplayed window is observable deterministically.
    base::WriterMutexLock stall(incr.cluster->DbMutex());
    ASSERT_TRUE(incr.cluster->RestartServer().ok());
    EXPECT_TRUE(incr.cluster->ServerUp());
    EXPECT_TRUE(incr.cluster->RecoveryActive());
    EXPECT_EQ(kPagesA + kPagesB, incr.cluster->RecoveryPendingPages());
    // The directory is already rebuilt — baselines hold every logged
    // sequence number before a single page has been replayed.
    EXPECT_EQ(2u, incr.cluster->BaselineSeq(kLockA1));
    EXPECT_EQ(2u, incr.cluster->BaselineSeq(kLockA2));
    EXPECT_EQ(1u, incr.cluster->BaselineSeq(kLockB1));
    EXPECT_EQ(1u, incr.cluster->BaselineSeq(kLockB2));
  }

  // First touch: a fresh client maps region A while region B may still be
  // pending; the fetch must already return the committed bytes.
  auto c = std::move(*lbc::Client::Create(incr.cluster.get(), 3, {}));
  auto mapped = c->MapRegion(kRegionA, kLenA);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(0, std::memcmp((*mapped)->data(), incr.expected_a.data(), kLenA));

  // Drain the rest and retire the recovery.
  ASSERT_TRUE(incr.cluster->DrainRecovery().ok());
  EXPECT_FALSE(incr.cluster->RecoveryActive());
  EXPECT_EQ(0u, incr.cluster->RecoveryPendingPages());

  // Steady state after the drain is byte-identical to the merged-log
  // reference: database files AND checksum sidecars.
  replay_reference::ExpectFiles(&incr.mem, reference);
  EXPECT_EQ(incr.expected_a, ReadFile(&incr.mem, rvm::RegionFileName(kRegionA)));
  EXPECT_EQ(incr.expected_b, ReadFile(&incr.mem, rvm::RegionFileName(kRegionB)));

  // Every indexed page was materialized exactly once, split between the
  // first-touch path and the drainer.
  EXPECT_EQ(kPagesA + kPagesB, (Counter("recovery.pages_on_demand") -
                                on_demand_before) +
                                   (Counter("recovery.pages_background") -
                                    background_before));
}

// ---------------------------------------------------------------------------
// 2b. Each materialized page is certified once: one sidecar write and sync
//     (the intent entry, which is final), then one data write and sync
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, MaterializedPageWritesOneSidecarEntry) {
  constexpr rvm::RegionId kRegion = 4;
  store::MemStore mem;
  store::CrashPointStore store(&mem);

  // A drained replay first creates the region file and its sidecar (header
  // included), so the ops counted below are the page's own.
  rvm::TransactionRecord full;
  testing_records::AddRange(&full, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x11));
  ASSERT_TRUE(ReplayMerged(&store, {full}).ok());
  const std::vector<uint8_t> preimage = ReadFile(&mem, rvm::RegionFileName(kRegion));

  rvm::TransactionRecord redo;
  redo.node = 1;
  redo.commit_seq = 1;
  testing_records::AddRange(&redo, kRegion, 100, std::vector<uint8_t>(64, 0x22));
  std::vector<uint8_t> expected = preimage;
  std::memset(expected.data() + 100, 0x22, 64);
  const uint32_t final_crc = rvm::PageCrc(expected.data(), expected.size());
  auto sidecar_entry = [&]() -> std::optional<uint32_t> {
    auto sidecar = rvm::ChecksumSidecar::Open(&mem, kRegion, /*create=*/false);
    if (!sidecar.ok()) {
      return std::nullopt;
    }
    auto entry = (*sidecar)->ReadEntry(0);
    return entry.ok() ? *entry : std::nullopt;
  };
  rvm::IncrementalRecovery recovery(&store, rvm::LogIndex::FromMerged({redo}));

  // Power cut at the third op: the first two were the sidecar's, because
  // the final entry is durable while the data file still holds the
  // pre-image — intent before data.
  store.ResetOpCount();
  store.ArmCrashAtOp(2);
  EXPECT_FALSE(recovery.MaterializeRegion(kRegion).ok());
  store.Disarm();
  EXPECT_EQ(final_crc, sidecar_entry());
  EXPECT_EQ(preimage, ReadFile(&mem, rvm::RegionFileName(kRegion)));

  // The retry resumes from that intent and costs exactly one sidecar write,
  // one sidecar sync, one data write and one data sync.
  store.ResetOpCount();
  ASSERT_TRUE(recovery.MaterializeRegion(kRegion).ok());
  EXPECT_EQ(4u, store.op_count());
  EXPECT_EQ((std::vector<store::CrashOpKind>{
                store::CrashOpKind::kWrite, store::CrashOpKind::kSync,
                store::CrashOpKind::kWrite, store::CrashOpKind::kSync}),
            store.op_kinds());
  EXPECT_EQ(final_crc, sidecar_entry());
  EXPECT_EQ(expected, ReadFile(&mem, rvm::RegionFileName(kRegion)));
  EXPECT_TRUE(recovery.Drained());
}

// ---------------------------------------------------------------------------
// 2c. A region file is one batch: seven database-file ops whether it holds
//     one pending page or three
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, DrainingOneFileCostsSevenDatabaseFileOps) {
  constexpr rvm::RegionId kOnePage = 5;
  constexpr rvm::RegionId kThreePages = 6;
  store::MemStore mem;
  ProbeStore probe(&mem);

  // A drained replay first creates both region files and their sidecars
  // (headers included), so the ops counted below are the drain's own.
  rvm::TransactionRecord base;
  testing_records::AddRange(&base, kOnePage, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x11));
  testing_records::AddRange(&base, kThreePages, 0,
                            std::vector<uint8_t>(3 * rvm::kDbPageSize, 0x22));
  ASSERT_TRUE(ReplayMerged(&mem, {base}).ok());

  // Redo: a partial write to the one-page file; for the three-page file a
  // write covering page 0 partially, page 1 fully and page 2 partially.
  rvm::TransactionRecord redo;
  redo.node = 1;
  redo.commit_seq = 1;
  testing_records::AddRange(&redo, kOnePage, 100, std::vector<uint8_t>(64, 0x33));
  testing_records::AddRange(&redo, kThreePages, rvm::kDbPageSize - 50,
                            std::vector<uint8_t>(rvm::kDbPageSize + 100, 0x44));
  std::vector<uint8_t> one_page(rvm::kDbPageSize, 0x11);
  std::memset(one_page.data() + 100, 0x33, 64);
  std::vector<uint8_t> three_pages(3 * rvm::kDbPageSize, 0x22);
  std::memset(three_pages.data() + rvm::kDbPageSize - 50, 0x44, rvm::kDbPageSize + 100);

  rvm::IncrementalRecovery recovery(&probe, rvm::LogIndex::FromMerged({redo}));
  ASSERT_EQ(4u, recovery.PendingPages());
  const std::string db1 = rvm::RegionFileName(kOnePage);
  const std::string sum1 = rvm::ChecksumFileName(kOnePage);
  const std::string db3 = rvm::RegionFileName(kThreePages);
  const std::string sum3 = rvm::ChecksumFileName(kThreePages);

  // Pre-image read, sidecar read (header and entries), intent write and
  // sync, data write and sync, read-back.
  auto step = recovery.DrainStep();
  ASSERT_TRUE(step.ok() && *step) << step.status().ToString();
  EXPECT_EQ((std::vector<std::string>{db1 + ":R", sum1 + ":R", sum1 + ":W", sum1 + ":S",
                                      db1 + ":W", db1 + ":S", db1 + ":R"}),
            probe.OpTrace());
  EXPECT_EQ(3u, recovery.PendingPages());

  probe.ClearOps();
  step = recovery.DrainStep();
  ASSERT_TRUE(step.ok() && *step) << step.status().ToString();
  EXPECT_EQ((std::vector<std::string>{db3 + ":R", sum3 + ":R", sum3 + ":W", sum3 + ":S",
                                      db3 + ":W", db3 + ":S", db3 + ":R"}),
            probe.OpTrace());
  EXPECT_TRUE(recovery.Drained());
  step = recovery.DrainStep();
  ASSERT_TRUE(step.ok());
  EXPECT_FALSE(*step);

  EXPECT_EQ(one_page, ReadFile(&mem, db1));
  EXPECT_EQ(three_pages, ReadFile(&mem, db3));
  for (auto [region, image] : {std::make_pair(kOnePage, &one_page),
                               std::make_pair(kThreePages, &three_pages)}) {
    auto failed = rvm::VerifyImagePages(&mem, region, image->data(), image->size(),
                                        image->size());
    ASSERT_TRUE(failed.ok());
    EXPECT_TRUE(failed->empty()) << "region " << region;
  }
}

// ---------------------------------------------------------------------------
// 2d. Whole-page redo replays blind: a page the redo covers byte for byte
//     is neither read nor gated, so a file of such pages costs five ops
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, DrainingAWholePageFileCostsFiveDatabaseFileOps) {
  constexpr rvm::RegionId kOnePage = 7;
  constexpr rvm::RegionId kTwoPages = 8;
  constexpr rvm::RegionId kPastPageZero = 9;
  constexpr rvm::RegionId kBlindThenPartial = 10;
  store::MemStore mem;
  ProbeStore probe(&mem);

  // Certified files and sidecars first, so the ops counted are the drain's.
  rvm::TransactionRecord base;
  testing_records::AddRange(&base, kOnePage, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x11));
  testing_records::AddRange(&base, kTwoPages, 0,
                            std::vector<uint8_t>(2 * rvm::kDbPageSize, 0x22));
  testing_records::AddRange(&base, kPastPageZero, 0,
                            std::vector<uint8_t>(2 * rvm::kDbPageSize, 0x33));
  testing_records::AddRange(&base, kBlindThenPartial, 0,
                            std::vector<uint8_t>(3 * rvm::kDbPageSize, 0x44));
  ASSERT_TRUE(ReplayMerged(&mem, {base}).ok());

  // kOnePage: two ranges that overlap, out of offset order, cover page 0.
  // kTwoPages: one range over both pages. kPastPageZero: page 1 only.
  // kBlindThenPartial: pages 0 and 1 whole, page 2 partially.
  rvm::TransactionRecord redo;
  redo.node = 1;
  redo.commit_seq = 1;
  testing_records::AddRange(&redo, kOnePage, 4000,
                            std::vector<uint8_t>(rvm::kDbPageSize - 4000, 0x55));
  testing_records::AddRange(&redo, kOnePage, 0, std::vector<uint8_t>(5000, 0x66));
  testing_records::AddRange(&redo, kTwoPages, 0,
                            std::vector<uint8_t>(2 * rvm::kDbPageSize, 0x77));
  testing_records::AddRange(&redo, kPastPageZero, rvm::kDbPageSize,
                            std::vector<uint8_t>(rvm::kDbPageSize, 0x88));
  testing_records::AddRange(&redo, kBlindThenPartial, 0,
                            std::vector<uint8_t>(2 * rvm::kDbPageSize + 100, 0x99));
  std::vector<uint8_t> one_page(rvm::kDbPageSize, 0x55);
  std::memset(one_page.data(), 0x66, 5000);
  std::vector<uint8_t> two_pages(2 * rvm::kDbPageSize, 0x77);
  std::vector<uint8_t> past_page_zero(2 * rvm::kDbPageSize, 0x33);
  std::memset(past_page_zero.data() + rvm::kDbPageSize, 0x88, rvm::kDbPageSize);
  std::vector<uint8_t> blind_then_partial(3 * rvm::kDbPageSize, 0x44);
  std::memset(blind_then_partial.data(), 0x99, 2 * rvm::kDbPageSize + 100);

  rvm::IncrementalRecovery recovery(&probe, rvm::LogIndex::FromMerged({redo}));
  ASSERT_EQ(7u, recovery.PendingPages());
  auto drain_one = [&](rvm::RegionId region) {
    probe.ClearOps();
    auto step = recovery.DrainStep();
    EXPECT_TRUE(step.ok() && *step) << step.status().ToString();
    for (const ProbeStore::Op& op : probe.ops()) {
      EXPECT_EQ(region, op.region) << op.file;
    }
    return probe.OpTrace();
  };
  auto names = [](rvm::RegionId region) {
    return std::make_pair(rvm::RegionFileName(region), rvm::ChecksumFileName(region));
  };

  // Intent write (header and entries in one Write) and sync, data write and
  // sync, read-back: no pre-image read, no sidecar read.
  for (rvm::RegionId region : {kOnePage, kTwoPages}) {
    const auto [db, sum] = names(region);
    EXPECT_EQ((std::vector<std::string>{sum + ":W", sum + ":S", db + ":W", db + ":S", db + ":R"}),
              drain_one(region))
        << "region " << region;
  }
  // Without page 0 the entry Write cannot carry the header: it is read first.
  {
    const auto [db, sum] = names(kPastPageZero);
    EXPECT_EQ((std::vector<std::string>{sum + ":R", sum + ":W", sum + ":S", db + ":W",
                                        db + ":S", db + ":R"}),
              drain_one(kPastPageZero));
  }
  // One partial page brings back the pre-image Read (of that page alone)
  // and the sidecar Read: seven ops, as for any partially covered file.
  {
    const auto [db, sum] = names(kBlindThenPartial);
    EXPECT_EQ((std::vector<std::string>{db + ":R", sum + ":R", sum + ":W", sum + ":S",
                                        db + ":W", db + ":S", db + ":R"}),
              drain_one(kBlindThenPartial));
  }
  EXPECT_TRUE(recovery.Drained());

  for (auto [region, image] : {std::make_pair(kOnePage, &one_page),
                               std::make_pair(kTwoPages, &two_pages),
                               std::make_pair(kPastPageZero, &past_page_zero),
                               std::make_pair(kBlindThenPartial, &blind_then_partial)}) {
    EXPECT_EQ(*image, ReadFile(&mem, rvm::RegionFileName(region))) << "region " << region;
    EXPECT_EQ(replay_reference::ReferenceSidecar(region, *image),
              ReadFile(&mem, rvm::ChecksumFileName(region)))
        << "region " << region;
  }
}

// A blind page certifies its redo whatever rotted under it: the pre-image,
// its sidecar entry, the sidecar header, or the whole sidecar gone.
TEST(IncrementalRecovery, BlindPageCertifiesRedoOverRottenPreImageAndSidecar) {
  constexpr rvm::RegionId kRegion = 17;
  const std::string db = rvm::RegionFileName(kRegion);
  const std::string sum = rvm::ChecksumFileName(kRegion);
  enum class SidecarRot { kEntry, kHeader, kAbsent };
  for (SidecarRot sidecar_rot : {SidecarRot::kEntry, SidecarRot::kHeader, SidecarRot::kAbsent}) {
    SCOPED_TRACE(static_cast<int>(sidecar_rot));
    store::MemStore mem;
    store::CorruptionInjectingStore rot(&mem);
    rvm::TransactionRecord base;
    testing_records::AddRange(&base, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x11));
    ASSERT_TRUE(ReplayMerged(&rot, {base}).ok());
    ASSERT_TRUE(rot.FlipBit(db, 5000, 3).ok());
    switch (sidecar_rot) {
      case SidecarRot::kEntry:
        ASSERT_TRUE(rot.FlipBit(sum, rvm::kChecksumHeaderSize + 1, 0).ok());
        break;
      case SidecarRot::kHeader:
        ASSERT_TRUE(rot.FlipBit(sum, 1, 6).ok());
        break;
      case SidecarRot::kAbsent:
        ASSERT_TRUE(mem.Remove(sum).ok());
        break;
    }

    rvm::TransactionRecord redo;
    redo.node = 1;
    redo.commit_seq = 1;
    testing_records::AddRange(&redo, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x22));
    ASSERT_TRUE(ReplayMerged(&rot, {redo}).ok());
    const std::vector<uint8_t> expected(rvm::kDbPageSize, 0x22);
    EXPECT_EQ(expected, ReadFile(&mem, db));
    EXPECT_EQ(replay_reference::ReferenceSidecar(kRegion, expected), ReadFile(&mem, sum));
  }
}

// A blind page shares its file's fate: when another page of the file fails
// the rot gate, no page is written, the blind one included.
TEST(IncrementalRecovery, RotOnAPartialPageStopsTheBlindPagesOfItsFile) {
  constexpr rvm::RegionId kRegion = 18;
  const std::string db = rvm::RegionFileName(kRegion);
  const std::string sum = rvm::ChecksumFileName(kRegion);
  store::MemStore mem;
  store::CorruptionInjectingStore rot(&mem);
  ProbeStore probe(&rot);
  rvm::TransactionRecord base;
  testing_records::AddRange(&base, kRegion, 0,
                            std::vector<uint8_t>(2 * rvm::kDbPageSize, 0x11));
  ASSERT_TRUE(ReplayMerged(&rot, {base}).ok());
  ASSERT_TRUE(rot.FlipBit(db, rvm::kDbPageSize + 5000, 2).ok());
  const std::vector<uint8_t> db_before = ReadFile(&mem, db);
  const std::vector<uint8_t> sum_before = ReadFile(&mem, sum);

  // Page 0 whole (blind), page 1 partially over its rotten pre-image.
  rvm::TransactionRecord redo;
  redo.node = 1;
  redo.commit_seq = 1;
  testing_records::AddRange(&redo, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x22));
  testing_records::AddRange(&redo, kRegion, rvm::kDbPageSize + 100,
                            std::vector<uint8_t>(64, 0x33));
  EXPECT_EQ(base::StatusCode::kDataLoss, ReplayMerged(&probe, {redo}).code());
  for (const std::string& op : probe.OpTrace()) {
    EXPECT_EQ(':', op[op.size() - 2]);
    EXPECT_EQ('R', op.back()) << op;
  }
  EXPECT_EQ(db_before, ReadFile(&mem, db));
  EXPECT_EQ(sum_before, ReadFile(&mem, sum));
}

// A power cut after a blind page's intent is durable and before its data
// is: the retry resumes with the same four mutating ops and lands on the
// redo, its sidecar the reference's.
TEST(IncrementalRecovery, BlindPageResumesAfterACutBetweenIntentAndData) {
  constexpr rvm::RegionId kRegion = 19;
  const std::string db = rvm::RegionFileName(kRegion);
  const std::string sum = rvm::ChecksumFileName(kRegion);
  store::MemStore mem;
  store::CrashPointStore store(&mem);
  rvm::TransactionRecord base;
  testing_records::AddRange(&base, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x11));
  ASSERT_TRUE(ReplayMerged(&store, {base}).ok());
  const std::vector<uint8_t> preimage = ReadFile(&mem, db);

  rvm::TransactionRecord redo;
  redo.node = 1;
  redo.commit_seq = 1;
  testing_records::AddRange(&redo, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x22));
  const std::vector<uint8_t> expected(rvm::kDbPageSize, 0x22);
  rvm::IncrementalRecovery recovery(&store, rvm::LogIndex::FromMerged({redo}));

  // Cut at the data write: the intent (header and entry) is durable, the
  // data file still holds the pre-image.
  store.ResetOpCount();
  store.ArmCrashAtOp(2);
  EXPECT_FALSE(recovery.MaterializeRegion(kRegion).ok());
  store.Disarm();
  EXPECT_EQ(replay_reference::ReferenceSidecar(kRegion, expected), ReadFile(&mem, sum));
  EXPECT_EQ(preimage, ReadFile(&mem, db));

  store.ResetOpCount();
  ASSERT_TRUE(recovery.MaterializeRegion(kRegion).ok());
  EXPECT_EQ((std::vector<store::CrashOpKind>{
                store::CrashOpKind::kWrite, store::CrashOpKind::kSync,
                store::CrashOpKind::kWrite, store::CrashOpKind::kSync}),
            store.op_kinds());
  EXPECT_TRUE(recovery.Drained());
  EXPECT_EQ(expected, ReadFile(&mem, db));
  EXPECT_EQ(replay_reference::ReferenceSidecar(kRegion, expected), ReadFile(&mem, sum));
}

// ---------------------------------------------------------------------------
// 3. op_deadline_ms bounds the first-touch wait
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, MapRegionDeadlineBoundsWaitOnInFlightPage) {
  Fixture fx;
  fx.CommitWorkload();
  fx.cluster->KillServer();

  std::unique_ptr<lbc::Client> c;
  std::thread claimant;
  {
    // Freeze page replay: claimants mark pages in-progress, then block on
    // the database-writer lock we hold.
    base::WriterMutexLock stall(fx.cluster->DbMutex());
    ASSERT_TRUE(fx.cluster->RestartServer().ok());
    claimant = std::thread([&fx] {
      base::IgnoreError(fx.cluster->EnsureRegionRecovered(kRegionA));
    });
    // Let the claimant (or the background drainer) claim region A's pages.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));

    lbc::ClientOptions opts;
    opts.op_deadline_ms = 100;
    c = std::move(*lbc::Client::Create(fx.cluster.get(), 3, opts));
    auto mapped = c->MapRegion(kRegionA, kLenA);
    ASSERT_FALSE(mapped.ok()) << "map served while every page was frozen";
    EXPECT_EQ(base::StatusCode::kDeadlineExceeded, mapped.status().code());
    EXPECT_EQ(1u, c->stats().deadline_misses);
  }
  claimant.join();

  // The client survived the miss: the same map succeeds once the stall is
  // gone, and serves the committed bytes.
  auto mapped = c->MapRegion(kRegionA, kLenA);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(0, std::memcmp((*mapped)->data(), fx.expected_a.data(), kLenA));
  ASSERT_TRUE(fx.cluster->DrainRecovery().ok());
}

// ---------------------------------------------------------------------------
// 4. Lazily discovered rot fails certification and routes through the
//    scrubber — it is never replayed over
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, FirstTouchRotRoutesThroughScrubber) {
  constexpr rvm::RegionId kRegion = 7;
  constexpr uint64_t kPages = 3;
  constexpr uint64_t kLen = kPages * rvm::kDbPageSize;

  store::MemStore backends[2];
  std::vector<std::unique_ptr<store::CorruptionInjectingStore>> corrupt;
  corrupt.emplace_back(new store::CorruptionInjectingStore(&backends[0], 0xC0FFEE));
  corrupt.emplace_back(new store::CorruptionInjectingStore(&backends[1], 0xDECAF));
  store::ReplicatedStore replicated(
      std::vector<store::DurableStore*>{corrupt[0].get(), corrupt[1].get()});
  lbc::Cluster cluster(&replicated);
  cluster.DefineLock(200, kRegion, 1);
  cluster.DefineLock(201, kRegion, 3);
  rvm::Scrubber scrubber(&replicated, &replicated);
  cluster.SetScrubber(&scrubber);

  std::vector<uint8_t> expected(kLen, 0);
  auto commit = [&](lbc::Client* c, rvm::LockId lock, uint64_t offset,
                    uint64_t len, uint8_t fill) {
    lbc::Transaction txn = c->Begin();
    ASSERT_TRUE(txn.Acquire(lock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, offset, len).ok());
    std::memset(c->GetRegion(kRegion)->data() + offset, fill, len);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
    std::memset(expected.data() + offset, fill, len);
  };

  // Phase 1: full coverage, replayed and TRIMMED — the resulting database
  // pages and sidecar entries are the only copy of these bytes, so later
  // partial-page replay genuinely depends on certified pre-images.
  {
    auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
    ASSERT_TRUE(a->MapRegion(kRegion, kLen).ok());
    for (uint64_t page = 0; page < kPages; ++page) {
      commit(a.get(), 200, page * rvm::kDbPageSize, rvm::kDbPageSize,
             static_cast<uint8_t>(0x10 + page));
    }
  }
  ASSERT_TRUE(cluster.RecoverAndTrim({1}).ok());

  // Phase 2: partial-page updates from a fresh node — the only records a
  // boot index will hold.
  {
    auto b = std::move(*lbc::Client::Create(&cluster, 3, {}));
    ASSERT_TRUE(b->MapRegion(kRegion, kLen).ok());
    commit(b.get(), 201, 1 * rvm::kDbPageSize + 3000, 100, 0x77);
    commit(b.get(), 201, 2 * rvm::kDbPageSize + 100, 50, 0x88);
  }

  cluster.KillServer();
  const uint64_t failures_before = Counter("integrity.verify_failures");
  const uint64_t repaired_before = Counter("scrub.repaired_from_replica");
  const std::string db = rvm::RegionFileName(kRegion);
  {
    base::WriterMutexLock stall(cluster.DbMutex());
    ASSERT_TRUE(cluster.RestartServer().ok());
    EXPECT_EQ(2u, cluster.RecoveryPendingPages());  // pages 1 and 2 only
    // Rot replica 0's pre-image of page 1, outside the pending redo range.
    // Reads are served replica-0-first, so the first materialization MUST
    // see the damage — and must refuse to certify, not replay over it.
    ASSERT_TRUE(corrupt[0]->FlipBit(db, 1 * rvm::kDbPageSize + 7000, 3).ok());
  }

  // First touch discovers the rot; the fetch path repairs via the scrubber
  // (replica 1 is clean) and retries, so the client still maps cleanly.
  auto c = std::move(*lbc::Client::Create(&cluster, 5, {}));
  auto mapped = c->MapRegion(kRegion, kLen);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(0, std::memcmp((*mapped)->data(), expected.data(), kLen));
  EXPECT_GE(Counter("integrity.verify_failures"), failures_before + 1);
  EXPECT_GE(Counter("scrub.repaired_from_replica"), repaired_before + 1);

  ASSERT_TRUE(cluster.DrainRecovery().ok());
  EXPECT_FALSE(cluster.RecoveryActive());
  EXPECT_EQ(expected, ReadFile(&backends[0], db));
  EXPECT_EQ(expected, ReadFile(&backends[1], db));
  std::vector<uint8_t> image = ReadFile(&replicated, db);
  auto failed = rvm::VerifyImagePages(&replicated, kRegion, image.data(),
                                      image.size(), image.size());
  ASSERT_TRUE(failed.ok());
  EXPECT_TRUE(failed->empty());
}

// ---------------------------------------------------------------------------
// 4b. Rot that no repair path can heal: DrainRecovery gives up with
//     DATA_LOSS instead of retrying forever
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, DrainRecoveryReturnsDataLossOnUnrepairablePreImage) {
  constexpr rvm::RegionId kRegion = 13;
  constexpr uint64_t kLen = rvm::kDbPageSize;
  constexpr rvm::LockId kFirstLock = 400;   // manager 1
  constexpr rvm::LockId kSecondLock = 401;  // manager 3

  // One store, so no replica to repair from.
  store::MemStore mem;
  store::CorruptionInjectingStore corrupt(&mem);
  rvm::Scrubber scrubber(&corrupt);
  lbc::Cluster cluster(&corrupt);
  cluster.DefineLock(kFirstLock, kRegion, 1);
  cluster.DefineLock(kSecondLock, kRegion, 3);
  cluster.SetScrubber(&scrubber);

  auto commit = [&](lbc::Client* c, rvm::LockId lock, uint64_t offset, uint64_t len,
                    uint8_t fill) {
    lbc::Transaction txn = c->Begin();
    ASSERT_TRUE(txn.Acquire(lock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, offset, len).ok());
    std::memset(c->GetRegion(kRegion)->data() + offset, fill, len);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
  };
  // A full-page commit, replayed and trimmed: the logs can no longer
  // rebuild this page, so log reconstruction cannot repair it either.
  {
    auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
    ASSERT_TRUE(a->MapRegion(kRegion, kLen).ok());
    commit(a.get(), kFirstLock, 0, kLen, 0x31);
  }
  ASSERT_TRUE(cluster.RecoverAndTrim({1}).ok());
  // A partial-page redo: the only record the boot index holds.
  {
    auto b = std::move(*lbc::Client::Create(&cluster, 3, {}));
    ASSERT_TRUE(b->MapRegion(kRegion, kLen).ok());
    commit(b.get(), kSecondLock, 3000, 100, 0x42);
  }

  cluster.KillServer();
  {
    base::WriterMutexLock stall(cluster.DbMutex());
    ASSERT_TRUE(cluster.RestartServer().ok());
    ASSERT_EQ(1u, cluster.RecoveryPendingPages());
    // Rot the pre-image outside the pending redo range.
    ASSERT_TRUE(corrupt.FlipBit(rvm::RegionFileName(kRegion), 7000, 3).ok());
  }

  // Watchdog: if DrainRecovery has not returned in 10 s, detaching the
  // scrubber ends its repair loop, so a regression fails here instead of
  // hanging the suite.
  std::promise<base::Status> drained;
  std::future<base::Status> result = drained.get_future();
  std::thread drain([&] { drained.set_value(cluster.DrainRecovery()); });
  const bool returned =
      result.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!returned) {
    cluster.SetScrubber(nullptr);
  }
  drain.join();
  ASSERT_TRUE(returned) << "DrainRecovery kept retrying an unrepairable page";
  base::Status status = result.get();
  EXPECT_EQ(base::StatusCode::kDataLoss, status.code()) << status.ToString();
  // The rotten page was neither replayed over nor certified: it is still
  // pending, and still fails its sidecar check.
  EXPECT_TRUE(cluster.RecoveryActive());
  EXPECT_EQ(1u, cluster.RecoveryPendingPages());
  std::vector<uint8_t> image = ReadFile(&mem, rvm::RegionFileName(kRegion));
  auto failed =
      rvm::VerifyImagePages(&mem, kRegion, image.data(), image.size(), image.size());
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ((std::vector<uint64_t>{0}), *failed);
}

// ---------------------------------------------------------------------------
// 5. Dead-client recovery no longer starves the heartbeat thread
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, DeadClientRecoveryKeepsHeartbeatsFlowing) {
  constexpr rvm::RegionId kRegion = 9;
  constexpr uint64_t kPages = 12;
  constexpr uint64_t kLen = kPages * rvm::kDbPageSize;
  constexpr rvm::LockId kLock = 210;

  store::MemStore mem;
  store::ResourceStore store(&mem);  // slow-disk injection surface
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);

  auto survivor = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(survivor->MapRegion(kRegion, kLen).ok());
  std::vector<uint8_t> expected(kLen, 0);
  {
    auto victim = std::move(*lbc::Client::Create(&cluster, 2, {}));
    ASSERT_TRUE(victim->MapRegion(kRegion, kLen).ok());
    for (uint64_t page = 0; page < kPages; ++page) {
      lbc::Transaction txn = victim->Begin();
      ASSERT_TRUE(txn.Acquire(kLock).ok());
      ASSERT_TRUE(txn.SetRange(kRegion, page * rvm::kDbPageSize, rvm::kDbPageSize).ok());
      uint8_t fill = static_cast<uint8_t>(0xA0 + page);
      std::memset(victim->GetRegion(kRegion)->data() + page * rvm::kDbPageSize, fill,
                  rvm::kDbPageSize);
      ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
      std::memset(expected.data() + page * rvm::kDbPageSize, fill, rvm::kDbPageSize);
    }
    victim->Disconnect();
  }

  // Every database-file I/O now costs 25 ms. Replaying all 12 pages
  // synchronously on the calling thread would take several I/Os per page —
  // well over a second; RecoverDeadClient only reads the log, which is not
  // delayed.
  store.InjectLatency(rvm::RegionFileName(kRegion), 25'000'000, 0);

  // Emulate the survivor's heartbeat thread: beat every 20 ms, handle the
  // peer death inline (exactly what HeartbeatThreadMain does), keep
  // beating. The longest inter-beat gap brackets the recovery call.
  std::chrono::steady_clock::duration max_gap{0};
  std::thread heartbeat([&] {
    auto last = std::chrono::steady_clock::now();
    auto beat = [&] {
      cluster.NoteAlive(1);
      auto now = std::chrono::steady_clock::now();
      max_gap = std::max(max_gap, now - last);
      last = now;
    };
    for (int i = 0; i < 5; ++i) {
      beat();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(survivor->OnPeerDeath(2).ok());
    for (int i = 0; i < 5; ++i) {
      beat();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  heartbeat.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(max_gap).count(),
            300)
      << "dead-client recovery starved the heartbeat thread";

  // The deferred replay still lands everything: drain, then check the
  // durable image and the rebuilt baseline.
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  EXPECT_EQ(kPages, cluster.BaselineSeq(kLock));
  EXPECT_EQ(expected, ReadFile(&mem, rvm::RegionFileName(kRegion)));
}

// ---------------------------------------------------------------------------
// 6. A late RecoverDeadClient dedups records boot recovery already merged
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, LateDeadClientRecoveryDedupsBootRecords) {
  constexpr rvm::RegionId kRegion = 11;
  constexpr uint64_t kLen = rvm::kDbPageSize;
  constexpr rvm::LockId kSurvivorLock = 301;  // manager 1
  constexpr rvm::LockId kVictimLock = 302;    // manager 2

  store::MemStore mem;
  lbc::Cluster cluster(&mem);
  cluster.DefineLock(kSurvivorLock, kRegion, 1);
  cluster.DefineLock(kVictimLock, kRegion, 2);

  auto survivor = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(survivor->MapRegion(kRegion, kLen).ok());
  {
    auto victim = std::move(*lbc::Client::Create(&cluster, 2, {}));
    ASSERT_TRUE(victim->MapRegion(kRegion, kLen).ok());
    for (int i = 0; i < 3; ++i) {
      lbc::Transaction txn = victim->Begin();
      ASSERT_TRUE(txn.Acquire(kVictimLock).ok());
      ASSERT_TRUE(txn.SetRange(kRegion, 0, kLen).ok());
      std::memset(victim->GetRegion(kRegion)->data(), 0xAA, kLen);
      ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
    }
    ASSERT_TRUE(survivor->WaitForAppliedSeq(kVictimLock, 3, 5000));
    victim->Disconnect();
  }

  // Boot recovery indexes and drains the victim's records.
  cluster.KillServer();
  ASSERT_TRUE(cluster.RestartServer().ok());
  ASSERT_TRUE(survivor->RejoinServer().ok());
  ASSERT_TRUE(cluster.DrainRecovery().ok());

  // A NEWER overlapping write replays over half the page.
  {
    lbc::Transaction txn = survivor->Begin();
    ASSERT_TRUE(txn.Acquire(kSurvivorLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, kLen / 2).ok());
    std::memset(survivor->GetRegion(kRegion)->data(), 0xBB, kLen / 2);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
  }
  survivor.reset();
  ASSERT_TRUE(cluster.ReplayAndRecordBaselines({rvm::LogFileName(1)}).ok());
  const std::vector<uint8_t> gold = ReadFile(&mem, rvm::RegionFileName(kRegion));
  ASSERT_EQ(uint8_t{0xBB}, gold[0]);
  ASSERT_EQ(uint8_t{0xAA}, gold[kLen / 2]);

  // The failure detector finally notices the long-dead victim. Its log is
  // entirely boot-time records: re-pending them would replay 0xAA over the
  // newer 0xBB half. The dedup bound must make this a no-op.
  ASSERT_TRUE(cluster.RecoverDeadClient(2).ok());
  EXPECT_FALSE(cluster.RecoveryActive());
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  EXPECT_EQ(gold, ReadFile(&mem, rvm::RegionFileName(kRegion)));
}

// ---------------------------------------------------------------------------
// 7. The drain worker pool: region files replay concurrently, one replay per
//    file at a time, and a page Extend re-pends mid-flight replays again
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, WorkerPoolOverlapsFilesButNeverOneFile) {
  constexpr int kFiles = 6;
  constexpr uint64_t kPages = 3;
  constexpr uint64_t kLen = kPages * rvm::kDbPageSize;
  constexpr rvm::RegionId kHeld = 1;      // claimed first, held mid-replay
  constexpr rvm::RegionId kTouched = 6;   // a client's first touch
  constexpr rvm::LockId kVictimLock = 90;  // region kHeld, manager 3
  auto lock_of = [](rvm::RegionId region, rvm::NodeId node) {
    return static_cast<rvm::LockId>(100 + 10 * region + node);
  };

  store::MemStore mem;
  store::ResourceStore slow(&mem);
  ProbeStore probe(&slow);
  lbc::Cluster cluster(&probe);
  std::map<rvm::RegionId, std::vector<uint8_t>> expected;
  for (rvm::RegionId region = 1; region <= kFiles; ++region) {
    cluster.DefineLock(lock_of(region, 1), region, 1);
    cluster.DefineLock(lock_of(region, 2), region, 2);
    expected[region].assign(kLen, 0);
  }
  cluster.DefineLock(kVictimLock, kHeld, 3);

  auto commit = [&](lbc::Client* c, rvm::LockId lock, rvm::RegionId region, uint64_t offset,
                    uint64_t len, uint8_t fill) {
    lbc::Transaction txn = c->Begin();
    ASSERT_TRUE(txn.Acquire(lock).ok());
    ASSERT_TRUE(txn.SetRange(region, offset, len).ok());
    std::memset(c->GetRegion(region)->data() + offset, fill, len);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
    std::memset(expected[region].data() + offset, fill, len);
  };
  // Every file gets three pending pages: page 0 full and page 2 partial
  // from node 1, page 1 full from node 2 (byte-disjoint, so the merged
  // order cannot change the image).
  auto victim = std::move(*lbc::Client::Create(&cluster, 3, {}));
  ASSERT_TRUE(victim->MapRegion(kHeld, kLen).ok());
  {
    auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
    auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
    for (rvm::RegionId region = 1; region <= kFiles; ++region) {
      ASSERT_TRUE(a->MapRegion(region, kLen).ok());
      ASSERT_TRUE(b->MapRegion(region, kLen).ok());
      const auto fill = static_cast<uint8_t>(0x10 * region);
      commit(a.get(), lock_of(region, 1), region, 0, rvm::kDbPageSize, fill + 1);
      commit(b.get(), lock_of(region, 2), region, rvm::kDbPageSize, rvm::kDbPageSize,
             fill + 2);
      commit(a.get(), lock_of(region, 1), region, 2 * rvm::kDbPageSize + 100, 300, fill + 3);
    }
  }

  cluster.KillServer();
  slow.InjectLatency("region_", 2'000'000, 500'000);
  const uint64_t on_demand_before = Counter("recovery.pages_on_demand");
  const uint64_t background_before = Counter("recovery.pages_background");
  // The first worker claims region kHeld and parks at its intent write —
  // in flight, holding DbMutex shared — while the other workers drain
  // every other file.
  probe.HoldFirstWrite(rvm::ChecksumFileName(kHeld));
  ASSERT_TRUE(cluster.RestartServer().ok());
  ASSERT_TRUE(probe.WaitHeld()) << "no worker reached region " << kHeld << "'s intent write";

  // The victim commits a new record to page 2 of the in-flight file, then
  // dies; its recovery Extends the live index and re-pends that page.
  ASSERT_TRUE(victim->RejoinServer().ok());
  commit(victim.get(), kVictimLock, kHeld, 2 * rvm::kDbPageSize + 1000, 200, 0xEE);
  victim->Disconnect();
  ASSERT_TRUE(cluster.RecoverDeadClient(3).ok());

  // First touch from a client while the held file is still in flight: a
  // shared DbMutex lets it replay (or wait for) region kTouched. Bounded, so
  // a replay that excluded the others fails here instead of hanging.
  auto reader = std::move(*lbc::Client::Create(&cluster, 4, {}));
  std::future<base::Status> touched = std::async(std::launch::async, [&] {
    auto mapped = reader->MapRegion(kTouched, kLen);
    if (!mapped.ok()) {
      return mapped.status();
    }
    return std::memcmp((*mapped)->data(), expected[kTouched].data(), kLen) == 0
               ? base::OkStatus()
               : base::DataLoss("first touch served the wrong bytes");
  });
  const bool touched_in_time =
      touched.wait_for(std::chrono::seconds(10)) == std::future_status::ready;

  // Only the held file is left: every other file replayed while it was in
  // flight.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.RecoveryPendingPages() > kPages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(kPages, cluster.RecoveryPendingPages());
  probe.Release();
  EXPECT_TRUE(touched_in_time) << "first touch waited on the held file's replay";
  base::Status touch_status = touched.get();
  ASSERT_TRUE(touch_status.ok()) << touch_status.ToString();
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  EXPECT_FALSE(cluster.RecoveryActive());
  // Every page is counted once, when it is done: the re-pended page's first
  // replay did not finish it.
  EXPECT_EQ(kFiles * kPages,
            (Counter("recovery.pages_on_demand") - on_demand_before) +
                (Counter("recovery.pages_background") - background_before));

  // The drained files hold the committed images — the victim's late write
  // included — and every page verifies against its sidecar.
  std::map<std::string, std::vector<uint8_t>> drained;
  for (rvm::RegionId region = 1; region <= kFiles; ++region) {
    std::vector<uint8_t> image = ReadFile(&mem, rvm::RegionFileName(region));
    EXPECT_EQ(expected[region], image) << "region " << region;
    auto failed =
        rvm::VerifyImagePages(&mem, region, image.data(), image.size(), image.size());
    ASSERT_TRUE(failed.ok());
    EXPECT_TRUE(failed->empty()) << "region " << region;
    drained[rvm::RegionFileName(region)] = std::move(image);
    drained[rvm::ChecksumFileName(region)] = ReadFile(&mem, rvm::ChecksumFileName(region));
  }
  // ...and byte-identical, sidecars included, to the reference computed
  // from the merged logs.
  cluster.KillServer();
  std::vector<std::string> logs;
  for (rvm::NodeId node : {1, 2, 3, 4}) {
    logs.push_back(rvm::LogFileName(node));
  }
  EXPECT_EQ(replay_reference::ReferenceFiles(&mem, logs), drained);

  // A file replay's ops run back to back on one thread, so each thread's
  // consecutive ops on one region are one replay (or one image read).
  struct Replay {
    rvm::RegionId region;
    std::thread::id thread;
    std::chrono::steady_clock::time_point start, end;
  };
  std::vector<ProbeStore::Op> ops = probe.ops();
  std::sort(ops.begin(), ops.end(),
            [](const ProbeStore::Op& x, const ProbeStore::Op& y) { return x.start < y.start; });
  std::vector<Replay> replays;
  std::map<std::thread::id, size_t> last_of_thread;
  for (const ProbeStore::Op& op : ops) {
    auto it = last_of_thread.find(op.thread);
    if (it != last_of_thread.end() && replays[it->second].region == op.region) {
      replays[it->second].end = std::max(replays[it->second].end, op.end);
      continue;
    }
    last_of_thread[op.thread] = replays.size();
    replays.push_back(Replay{op.region, op.thread, op.start, op.end});
  }
  int cross_file_overlaps = 0;
  for (size_t i = 0; i < replays.size(); ++i) {
    for (size_t j = i + 1; j < replays.size(); ++j) {
      const Replay& x = replays[i];
      const Replay& y = replays[j];
      if (x.thread == y.thread || x.end <= y.start || y.end <= x.start) {
        continue;
      }
      EXPECT_NE(x.region, y.region) << "two replays of region " << x.region << " overlapped";
      cross_file_overlaps += x.region != y.region ? 1 : 0;
    }
  }
  EXPECT_GT(cross_file_overlaps, 0) << "no two region files ever replayed at once";
}

// ---------------------------------------------------------------------------
// 8. Rot under full replay: neither ReplayLogsIntoDatabase nor the trim's
//    replay launders a rotten certified page, and a trim with a scrubber
//    heals it through the drain's repair loop
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, FullReplayRefusesRotAndTrimHealsIt) {
  constexpr rvm::RegionId kRegion = 15;
  constexpr uint64_t kLen = rvm::kDbPageSize;
  constexpr rvm::LockId kLock = 500;
  constexpr uint64_t kRotByte = 5000;  // outside the redo at [100, 164)

  // Reads are served replica-0-first, so rot in replica 0 is what every
  // replay sees; replica 1 keeps the clean copy a scrubber can heal from.
  store::MemStore backends[2];
  store::CorruptionInjectingStore rot(&backends[0]);
  store::ReplicatedStore replicated(std::vector<store::DurableStore*>{&rot, &backends[1]});
  lbc::Cluster cluster(&replicated);
  cluster.DefineLock(kLock, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, kLen).ok());
  auto commit = [&](uint64_t offset, uint64_t len, uint8_t fill) {
    lbc::Transaction txn = a->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, offset, len).ok());
    std::memset(a->GetRegion(kRegion)->data() + offset, fill, len);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
  };
  // A certified page whose records the trim removes, then a partial redo
  // whose replay depends on that page's bytes.
  commit(0, kLen, 0x11);
  ASSERT_TRUE(lbc::OnlineTrim(&cluster, a.get(), {a.get()}).ok());
  commit(100, 64, 0x22);
  std::vector<uint8_t> expected(kLen, 0x11);
  std::memset(expected.data() + 100, 0x22, 64);

  const std::string db = rvm::RegionFileName(kRegion);
  const std::string sum = rvm::ChecksumFileName(kRegion);
  ASSERT_TRUE(rot.FlipBit(db, kRotByte, 2).ok());
  const std::vector<uint8_t> rotten = ReadFile(&backends[0], db);
  auto untouched = [&] {
    EXPECT_EQ(rotten, ReadFile(&backends[0], db));
    EXPECT_EQ(std::vector<uint8_t>(kLen, 0x11), ReadFile(&backends[1], db));
    for (store::MemStore& backend : backends) {
      EXPECT_EQ(replay_reference::ReferenceSidecar(kRegion, std::vector<uint8_t>(kLen, 0x11)),
                ReadFile(&backend, sum));
    }
  };

  // Full replay: DATA_LOSS before a data or sidecar byte is written.
  base::Status replayed = rvm::ReplayLogsIntoDatabase(&replicated, {rvm::LogFileName(1)});
  EXPECT_EQ(base::StatusCode::kDataLoss, replayed.code()) << replayed.ToString();
  untouched();

  // The trim's replay, with no scrubber to heal from: the same verdict.
  base::Status trimmed = cluster.ReplayAndRecordBaselines({rvm::LogFileName(1)});
  EXPECT_EQ(base::StatusCode::kDataLoss, trimmed.code()) << trimmed.ToString();
  untouched();

  // A fresh map never serves the flipped byte: the page still fails its
  // sidecar check.
  {
    auto fresh = std::move(*rvm::Rvm::Open(&replicated, 9, rvm::RvmOptions{}));
    auto mapped = fresh->MapRegion(kRegion, kLen);
    ASSERT_FALSE(mapped.ok()) << "served a rotten page";
    EXPECT_EQ(base::StatusCode::kDataLoss, mapped.status().code());
  }

  // With a replica-aware scrubber attached, the next trim heals the page
  // through the drain's repair loop and lands on the committed image.
  rvm::Scrubber scrubber(&replicated, &replicated);
  cluster.SetScrubber(&scrubber);
  const uint64_t repaired_before = Counter("scrub.repaired_from_replica");
  base::Status healed = lbc::OnlineTrim(&cluster, a.get(), {a.get()});
  ASSERT_TRUE(healed.ok()) << healed.ToString();
  EXPECT_FALSE(cluster.RecoveryActive());
  EXPECT_GE(Counter("scrub.repaired_from_replica"), repaired_before + 1);
  for (store::MemStore& backend : backends) {
    EXPECT_EQ(expected, ReadFile(&backend, db));
    EXPECT_EQ(replay_reference::ReferenceSidecar(kRegion, expected), ReadFile(&backend, sum));
  }
}

// ---------------------------------------------------------------------------
// 8b. The rot gate waives a rotten pre-image only when the redo covers every
//     byte of the page, however its ranges overlap
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, RotGateWaivesOnlyWholePageRedo) {
  constexpr rvm::RegionId kRegion = 16;
  store::MemStore mem;
  store::CorruptionInjectingStore rot(&mem);
  const std::string db = rvm::RegionFileName(kRegion);
  rvm::TransactionRecord base;
  testing_records::AddRange(&base, kRegion, 0, std::vector<uint8_t>(rvm::kDbPageSize, 0x11));
  ASSERT_TRUE(ReplayMerged(&rot, {base}).ok());
  ASSERT_TRUE(rot.FlipBit(db, 5000, 1).ok());

  // Two overlapping ranges, out of offset order, that miss the last byte.
  rvm::TransactionRecord redo;
  redo.node = 1;
  redo.commit_seq = 1;
  testing_records::AddRange(&redo, kRegion, 4000,
                            std::vector<uint8_t>(rvm::kDbPageSize - 4001, 0x33));
  testing_records::AddRange(&redo, kRegion, 0, std::vector<uint8_t>(5000, 0x22));
  const std::vector<uint8_t> rotten = ReadFile(&mem, db);
  EXPECT_EQ(base::StatusCode::kDataLoss, ReplayMerged(&rot, {redo}).code());
  EXPECT_EQ(rotten, ReadFile(&mem, db));

  // With the last byte too, the redo overwrites the whole page: the rotten
  // pre-image is irrelevant and the replay certifies the redo's bytes.
  testing_records::AddRange(&redo, kRegion, rvm::kDbPageSize - 1, std::vector<uint8_t>(1, 0x44));
  ASSERT_TRUE(ReplayMerged(&rot, {redo}).ok());
  std::vector<uint8_t> expected(rvm::kDbPageSize, 0x33);
  std::memset(expected.data(), 0x22, 5000);
  expected.back() = 0x44;
  EXPECT_EQ(expected, ReadFile(&mem, db));
  EXPECT_EQ(replay_reference::ReferenceSidecar(kRegion, expected),
            ReadFile(&mem, rvm::ChecksumFileName(kRegion)));
}

// ---------------------------------------------------------------------------
// 9. Full replay, the online trim and the standby checkpoint all land on the
//    merged-log reference, sidecars included
// ---------------------------------------------------------------------------

TEST(IncrementalRecovery, EveryReplayPathMatchesTheMergedLogReference) {
  const std::vector<std::string> logs = {rvm::LogFileName(1), rvm::LogFileName(2)};
  {
    Fixture fx;
    fx.CommitWorkload();
    fx.cluster->KillServer();
    const replay_reference::Files want = replay_reference::ReferenceFiles(&fx.mem, logs);
    ASSERT_EQ(4u, want.size());
    ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&fx.mem, logs).ok());
    replay_reference::ExpectFiles(&fx.mem, want);
  }
  // The nodes that committed stay up for the trim and the checkpoint.
  auto up = [](Fixture* fx, rvm::NodeId node, lbc::ClientOptions options = {}) {
    auto c = std::move(*lbc::Client::Create(fx->cluster.get(), node, options));
    EXPECT_TRUE(c->MapRegion(kRegionA, kLenA).ok());
    EXPECT_TRUE(c->MapRegion(kRegionB, kLenB).ok());
    return c;
  };
  {
    Fixture fx;
    auto a = up(&fx, 1);
    auto b = up(&fx, 2);
    fx.Commits(a.get(), b.get());
    const replay_reference::Files want = replay_reference::ReferenceFiles(&fx.mem, logs);
    ASSERT_TRUE(lbc::OnlineTrim(fx.cluster.get(), a.get(), {a.get(), b.get()}).ok());
    replay_reference::ExpectFiles(&fx.mem, want);
  }
  {
    Fixture fx;
    auto a = up(&fx, 1);
    auto b = up(&fx, 2);
    lbc::ClientOptions versioned;
    versioned.versioned_reads = true;
    auto standby = up(&fx, 3, versioned);
    fx.Commits(a.get(), b.get());
    // The standby has buffered every update once Accept exposes them all.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      ASSERT_TRUE(standby->Accept().ok());
      if (std::memcmp(standby->GetRegion(kRegionA)->data(), fx.expected_a.data(), kLenA) == 0 &&
          std::memcmp(standby->GetRegion(kRegionB)->data(), fx.expected_b.data(), kLenB) == 0) {
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "standby never caught up";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const replay_reference::Files want = replay_reference::ReferenceFiles(&fx.mem, logs);
    ASSERT_TRUE(
        lbc::CheckpointFromStandby(fx.cluster.get(), standby.get(), {a.get(), b.get()}).ok());
    replay_reference::ExpectFiles(&fx.mem, want);
  }
}

}  // namespace
