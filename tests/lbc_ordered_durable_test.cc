// Ordered and durable (DESIGN.md): a commit passes its lock token once it
// is ordered, before its log force; successors carry the records they read
// into their own log batches until the writer's durable watermark covers
// them. These tests pin the pieces: the token pass before the force, the
// carried copy in the successor's log, also after a failed batch, the
// watermark over written but unsynced records, the refusal to abort an
// ordered transaction, its same-record retry and the next batch's write of
// a record whose handle was dropped, the trims' drop of folded records (own
// ones too, but never one a batch in flight is writing), and the reclaim
// after a writer dies between its broadcast and its force.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "src/lbc/client.h"
#include "src/lbc/online_trim.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;
constexpr uint64_t kRegionSize = 8192;

struct Fixture {
  explicit Fixture(int n_clients) {
    cluster = std::make_unique<lbc::Cluster>(&store);
    cluster->DefineLock(kLock, kRegion, /*manager=*/1);
    for (int i = 0; i < n_clients; ++i) {
      clients.push_back(std::move(*lbc::Client::Create(cluster.get(), 1 + i, {})));
      EXPECT_TRUE(clients.back()->MapRegion(kRegion, kRegionSize).ok());
    }
  }
  lbc::Client* operator[](int i) { return clients[i].get(); }

  std::vector<rvm::TransactionRecord> Log(rvm::NodeId node) {
    auto txns = rvm::ReadLogTransactions(&store, rvm::LogFileName(node));
    return txns.ok() ? *txns : std::vector<rvm::TransactionRecord>{};
  }

  store::MemStore store;
  std::unique_ptr<lbc::Cluster> cluster;
  std::vector<std::unique_ptr<lbc::Client>> clients;
};

// Acquires kLock, writes `len` bytes of `value` at `offset`, commits.
base::Status Write(lbc::Client* c, uint64_t offset, uint8_t value, uint64_t len = 8) {
  lbc::Transaction txn = c->Begin(rvm::RestoreMode::kNoRestore);
  RETURN_IF_ERROR(txn.Acquire(kLock));
  RETURN_IF_ERROR(txn.SetRange(kRegion, offset, len));
  std::memset(c->GetRegion(kRegion)->data() + offset, value, len);
  return txn.Commit(rvm::CommitMode::kFlush);
}

void WaitForPending(rvm::Rvm* r, size_t n) {
  while (r->PendingCommitCount() < n) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// Commits 4 bytes at `offset` through `r` holding kLock at `seq` (no lock
// when `seq` is 0); the transaction's id goes to `id`.
base::Status CommitAt(rvm::Rvm* r, uint64_t offset, uint64_t seq, rvm::CommitMode mode,
                      rvm::TxnId* id = nullptr) {
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  if (id != nullptr) {
    *id = t;
  }
  RETURN_IF_ERROR(r->SetRange(t, kRegion, offset, 4));
  if (seq != 0) {
    RETURN_IF_ERROR(r->SetLockId(t, kLock, seq));
  }
  std::memset(r->GetRegion(kRegion)->data() + offset, static_cast<int>(seq + 1), 4);
  return r->EndTransaction(t, mode);
}

// Commit sequences of the records in node 1's log.
std::vector<uint64_t> LoggedSeqs(store::DurableStore* store) {
  std::vector<uint64_t> seqs;
  auto txns = rvm::ReadLogTransactions(store, rvm::LogFileName(1));
  EXPECT_TRUE(txns.ok()) << txns.status().ToString();
  for (const auto& txn : txns.ok() ? *txns : std::vector<rvm::TransactionRecord>{}) {
    seqs.push_back(txn.commit_seq);
  }
  return seqs;
}

// Lock sequences of `lock` in the merged history of every node's log.
std::vector<uint64_t> MergedSequences(store::DurableStore* store, int nodes,
                                      rvm::LockId lock) {
  std::vector<std::string> logs;
  for (int n = 1; n <= nodes; ++n) {
    if (*store->Exists(rvm::LogFileName(n))) {
      logs.push_back(rvm::LogFileName(n));
    }
  }
  auto merged = rvm::MergeLogs(store, logs);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  std::vector<uint64_t> seqs;
  for (const auto& txn : merged.ok() ? *merged : std::vector<rvm::TransactionRecord>{}) {
    if (uint64_t seq = txn.SequenceOf(lock); seq != 0) {
      seqs.push_back(seq);
    }
  }
  return seqs;
}

std::vector<uint64_t> OneTo(uint64_t n) {
  std::vector<uint64_t> out;
  for (uint64_t i = 1; i <= n; ++i) {
    out.push_back(i);
  }
  return out;
}

TEST(OrderedDurable, TokenPassesWhileTheHolderForceIsParked) {
  Fixture fx(2);
  // Node 1's commit is ordered (broadcast, locks released) but parked
  // before its log write.
  fx[0]->rvm()->HoldCommitPipeline();
  base::Status first;
  std::thread writer([&] { first = Write(fx[0], 0, 0x11); });
  WaitForPending(fx[0]->rvm(), 1);
  EXPECT_EQ(0u, fx.Log(1).size());

  // Node 2 gets the token and reads node 1's bytes: it carries the record.
  lbc::Transaction txn = fx[1]->Begin(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(0x11, fx[1]->GetRegion(kRegion)->data()[0]);
  EXPECT_EQ(1u, fx[1]->rvm()->CarriedCount());
  ASSERT_TRUE(txn.SetRange(kRegion, 8, 8).ok());
  std::memset(fx[1]->GetRegion(kRegion)->data() + 8, 0x22, 8);
  ASSERT_TRUE(txn.Commit().ok());

  // Node 2's one force made both records durable: the carried copy is
  // written ahead of its own record. It stays carried (written) until node
  // 1's watermark covers it, for a reclaim should node 1 die first.
  std::vector<rvm::TransactionRecord> log2 = fx.Log(2);
  ASSERT_EQ(2u, log2.size());
  EXPECT_EQ(1u, log2[0].node);
  EXPECT_EQ(1u, log2[0].SequenceOf(kLock));
  EXPECT_EQ(2u, log2[1].node);
  EXPECT_EQ(2u, log2[1].SequenceOf(kLock));
  EXPECT_EQ(1u, fx[1]->rvm()->CarriedCount());
  EXPECT_EQ(1u, fx[1]->rvm()->stats().carried_written);
  EXPECT_EQ(OneTo(2), MergedSequences(&fx.store, 2, kLock));

  // Node 1's commit returns only once its own record is durable.
  ASSERT_TRUE(fx[0]->rvm()->ReleaseCommitPipeline().ok());
  writer.join();
  ASSERT_TRUE(first.ok()) << first.ToString();
  // Node 1 carries node 2's record too, but its own commit was ordered
  // before it and cannot have read it: its batch holds only its own record.
  ASSERT_TRUE(fx[0]->WaitForAppliedSeq(kLock, 2, 5000));
  EXPECT_EQ(1u, fx[0]->rvm()->CarriedCount());
  EXPECT_EQ(1u, fx.Log(1).size());
  EXPECT_EQ(1u, fx[0]->rvm()->DurableSeq());
  // Two copies of node 1's record, merged once.
  EXPECT_EQ(OneTo(2), MergedSequences(&fx.store, 2, kLock));
}

TEST(OrderedDurable, FailedBatchLeavesTheCarriedRecordForTheRetry) {
  // Node 2's first batch holds node 1's carried record and its own, and its
  // write fails. The failure changes nothing: the retry writes both, the
  // carried one first, once. (EXPECTs only until the parked writer joins.)
  Fixture fx(2);
  fx[0]->rvm()->HoldCommitPipeline();
  base::Status first;
  std::thread writer([&] { first = Write(fx[0], 0, 0x11); });
  WaitForPending(fx[0]->rvm(), 1);

  lbc::Transaction txn = fx[1]->Begin(rvm::RestoreMode::kNoRestore);
  EXPECT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(0x11, fx[1]->GetRegion(kRegion)->data()[0]);
  EXPECT_TRUE(txn.SetRange(kRegion, 8, 8).ok());
  std::memset(fx[1]->GetRegion(kRegion)->data() + 8, 0x22, 8);
  fx.store.FailWritesAfterBytes(0);
  EXPECT_FALSE(txn.Commit().ok());
  EXPECT_TRUE(fx.Log(2).empty());
  EXPECT_EQ(0u, fx[1]->rvm()->stats().carried_written);
  EXPECT_EQ(1u, fx[1]->rvm()->CarriedCount());
  EXPECT_EQ(0u, fx[1]->rvm()->DurableSeq());

  fx.store.FailWritesAfterBytes(-1);
  EXPECT_TRUE(txn.Commit().ok());
  std::vector<std::pair<rvm::NodeId, uint64_t>> logged;  // (writer, kLock sequence)
  for (const rvm::TransactionRecord& rec : fx.Log(2)) {
    logged.emplace_back(rec.node, rec.SequenceOf(kLock));
  }
  EXPECT_EQ((std::vector<std::pair<rvm::NodeId, uint64_t>>{{1, 1}, {2, 2}}), logged);
  EXPECT_EQ(1u, fx[1]->rvm()->stats().carried_written);
  EXPECT_EQ(1u, fx[1]->rvm()->CarriedCount());
  EXPECT_EQ(1u, fx[1]->rvm()->DurableSeq());
  EXPECT_EQ(OneTo(2), MergedSequences(&fx.store, 2, kLock));

  EXPECT_TRUE(fx[0]->rvm()->ReleaseCommitPipeline().ok());
  writer.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
}

TEST(OrderedDurable, WriterWatermarkStopsTheCarry) {
  Fixture fx(2);
  ASSERT_TRUE(Write(fx[0], 0, 0x01).ok());
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 1, 5000));
  // Broadcast at ordered, before the force: the update's watermark did not
  // cover it yet.
  EXPECT_EQ(1u, fx[1]->rvm()->CarriedCount());
  ASSERT_TRUE(Write(fx[0], 0, 0x02).ok());
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 2, 5000));
  // The second update's watermark covers the first record.
  std::vector<rvm::TransactionRecord> carried = fx[1]->rvm()->CarriedFrom(1);
  ASSERT_EQ(1u, carried.size());
  EXPECT_EQ(2u, carried[0].commit_seq);
  // The token's watermark covers the second: node 1's commit returned, so
  // it was durable when the token left.
  lbc::Transaction txn = fx[1]->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(0u, fx[1]->rvm()->CarriedCount());
  ASSERT_TRUE(txn.Commit().ok());
  // A read-only commit logs nothing, and no carried copy was written.
  EXPECT_TRUE(fx.Log(2).empty());
}

TEST(OrderedDurable, OrderedCommitRefusesAbortAndRetriesTheSameRecord) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  int hooks = 0;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) {
    ++hooks;
    EXPECT_EQ(1u, rec.commit_seq);
  });
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 4).ok());
  ASSERT_TRUE(r->SetLockId(t, kLock, 7).ok());
  std::memcpy(region->data(), "ORDR", 4);

  store.FailWritesAfterBytes(0);  // the log write fails after ordering
  EXPECT_FALSE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(1, hooks);
  EXPECT_TRUE(r->OrderedRecord(t).has_value());
  EXPECT_EQ(0u, r->DurableSeq());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->AbortTransaction(t).code());
  EXPECT_EQ(0, std::memcmp(region->data(), "ORDR", 4));  // no undo

  store.FailWritesAfterBytes(-1);
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(1, hooks);  // no second hook
  EXPECT_FALSE(r->OrderedRecord(t).has_value());
  EXPECT_EQ(1u, r->DurableSeq());
  auto logged = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(1u, logged.size());
  EXPECT_EQ(1u, logged[0].commit_seq);
  EXPECT_EQ(7u, logged[0].SequenceOf(kLock));
}

TEST(OrderedDurable, DroppedHandleOfAFailedOrderedCommitIsLoggedByTheNextBatch) {
  // Node 1's log write fails after ordering and the caller drops the handle
  // instead of retrying. The record stays queued: node 1's next commit
  // writes it first, so its durable watermark moves past it and node 2
  // stops carrying it.
  Fixture fx(2);
  fx.store.FailWritesAfterBytes(0);
  EXPECT_FALSE(Write(fx[0], 0, 0x01).ok());  // the handle is dropped here
  EXPECT_EQ(0u, fx[0]->rvm()->DurableSeq());
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 1, 5000));
  EXPECT_EQ(1u, fx[1]->rvm()->CarriedCount());

  fx.store.FailWritesAfterBytes(-1);
  ASSERT_TRUE(Write(fx[0], 8, 0x02).ok());
  EXPECT_EQ(2u, fx[0]->rvm()->DurableSeq());
  std::vector<rvm::TransactionRecord> log1 = fx.Log(1);
  ASSERT_EQ(2u, log1.size());
  EXPECT_EQ(1u, log1[0].commit_seq);
  EXPECT_EQ(2u, log1[1].commit_seq);
  // The token brings node 1's watermark: node 2 carries neither record.
  lbc::Transaction txn = fx[1]->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(0u, fx[1]->rvm()->CarriedCount());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(OneTo(2), MergedSequences(&fx.store, 2, kLock));
}

TEST(OrderedDurable, FlushLogWritesAFailedOrderedRecord) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 4).ok());
  ASSERT_TRUE(r->SetLockId(t, kLock, 1).ok());
  std::memcpy(region->data(), "LOST", 4);
  store.FailWritesAfterBytes(0);
  EXPECT_FALSE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  EXPECT_FALSE(r->ForgetOrdered(r->BeginTransaction(rvm::RestoreMode::kNoRestore)));
  EXPECT_TRUE(r->ForgetOrdered(t));
  EXPECT_FALSE(r->OrderedRecord(t).has_value());
  store.FailWritesAfterBytes(-1);
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(1u, r->DurableSeq());
  auto logged = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(1u, logged.size());
  EXPECT_EQ(1u, logged[0].commit_seq);
}

TEST(OrderedDurable, WrittenRecordsHoldTheWatermarkUntilASync) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 64).ok());
  ASSERT_TRUE(CommitAt(r.get(), 0, 1, rvm::CommitMode::kNoFlush).ok());
  ASSERT_TRUE(CommitAt(r.get(), 8, 2, rvm::CommitMode::kNoFlush).ok());
  // Both are in the log, and neither is synced.
  EXPECT_EQ((std::vector<uint64_t>{1, 2}), LoggedSeqs(&store));
  EXPECT_EQ(0u, r->DurableSeq());
  const uint64_t bytes = r->log_bytes();
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(bytes, r->log_bytes());  // the flush only synced
  EXPECT_EQ(2u, r->DurableSeq());
}

TEST(OrderedDurable, FoldDropsAnUnwrittenOwnRecordThatHoldsLocks) {
  // A commit holding kLock at 1 fails after ordering and is forgotten. A
  // trim that folded kLock through 1 drops it: it is in the database files,
  // and the log never gets it. A record with no lock is never folded.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 64).ok());
  rvm::TxnId t = 0;
  store.FailWritesAfterBytes(0);
  EXPECT_FALSE(CommitAt(r.get(), 0, 1, rvm::CommitMode::kFlush, &t).ok());
  ASSERT_TRUE(r->ForgetOrdered(t));
  store.FailWritesAfterBytes(-1);
  EXPECT_EQ(0u, r->DurableSeq());
  r->DropFolded({{kLock, 1}});
  EXPECT_EQ(1u, r->DurableSeq());
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(0u, r->log_bytes());

  store.FailWritesAfterBytes(0);
  EXPECT_FALSE(CommitAt(r.get(), 8, 0, rvm::CommitMode::kFlush, &t).ok());
  ASSERT_TRUE(r->ForgetOrdered(t));
  store.FailWritesAfterBytes(-1);
  r->DropFolded({{kLock, 1}});
  EXPECT_EQ(1u, r->DurableSeq());
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(std::vector<uint64_t>{2}, LoggedSeqs(&store));
  EXPECT_EQ(2u, r->DurableSeq());
}

TEST(OrderedDurable, FoldKeepsAWrittenOwnRecordUntilItsSync) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 64).ok());
  ASSERT_TRUE(CommitAt(r.get(), 0, 1, rvm::CommitMode::kNoFlush).ok());
  r->DropFolded({{kLock, 1}});
  EXPECT_EQ(0u, r->DurableSeq());
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(1u, r->DurableSeq());
  EXPECT_EQ(std::vector<uint64_t>{1}, LoggedSeqs(&store));
}

TEST(OrderedDurable, FoldDropsAQueuedOwnRecord) {
  // The commit is ordered and parked: the fold drops its record, and the
  // released batch completes it without writing it.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 64).ok());
  r->HoldCommitPipeline();
  base::Status committed;
  std::thread committer(
      [&] { committed = CommitAt(r.get(), 0, 1, rvm::CommitMode::kFlush); });
  WaitForPending(r.get(), 1);
  r->DropFolded({{kLock, 1}});
  EXPECT_EQ(1u, r->DurableSeq());
  EXPECT_TRUE(r->ReleaseCommitPipeline().ok());
  committer.join();
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_TRUE(LoggedSeqs(&store).empty());
}

TEST(OrderedDurable, FoldWaitsOutTheBatchInFlight) {
  // The fold arrives while a slow log write carries the record: it waits
  // for the write, so the record is written and holds the watermark until
  // its sync.
  store::MemStore mem;
  store::ResourceStore store(&mem);
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  ASSERT_TRUE(r->MapRegion(kRegion, 64).ok());
  std::atomic<bool> ordered{false};
  r->SetCommitHook([&](const rvm::TransactionRecord&) { ordered = true; });
  store.InjectLatency(rvm::LogFileName(1), 50'000'000);
  base::Status committed;
  std::thread committer(
      [&] { committed = CommitAt(r.get(), 0, 1, rvm::CommitMode::kNoFlush); });
  // Queued once ordered; the queue empties when the leader takes the batch.
  while (!ordered || r->PendingCommitCount() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r->DropFolded({{kLock, 1}});
  EXPECT_EQ(0u, r->DurableSeq());
  committer.join();
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  store.ClearLatency();
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(1u, r->DurableSeq());
  EXPECT_EQ(std::vector<uint64_t>{1}, LoggedSeqs(&store));
}

TEST(OrderedDurable, OnlineTrimDropsFoldedCarriedRecords) {
  Fixture fx(3);
  ASSERT_TRUE(Write(fx[0], 0, 0x01).ok());
  ASSERT_TRUE(fx[2]->WaitForAppliedSeq(kLock, 1, 5000));
  ASSERT_EQ(1u, fx[2]->rvm()->CarriedCount());
  ASSERT_TRUE(lbc::OnlineTrim(fx.cluster.get(), fx[1], {fx[0], fx[1], fx[2]}).ok());
  EXPECT_EQ(0u, fx[2]->rvm()->CarriedCount());
  // A later commit at node 3 logs only its own record: the trimmed one
  // never reappears to replay over newer bytes at the next boot.
  ASSERT_TRUE(Write(fx[2], 16, 0x03).ok());
  std::vector<rvm::TransactionRecord> log3 = fx.Log(3);
  ASSERT_EQ(1u, log3.size());
  EXPECT_EQ(3u, log3[0].node);
}

TEST(OrderedDurable, RecoverAndTrimDropsFoldedCarriedRecordsAtTheNextCommit) {
  Fixture fx(2);
  ASSERT_TRUE(Write(fx[0], 0, 0x01).ok());
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 1, 5000));
  ASSERT_EQ(1u, fx[1]->rvm()->CarriedCount());
  ASSERT_TRUE(fx.cluster->RecoverAndTrim({1, 2}).ok());
  ASSERT_TRUE(Write(fx[1], 16, 0x02).ok());
  EXPECT_EQ(0u, fx[1]->rvm()->CarriedCount());
  std::vector<rvm::TransactionRecord> log2 = fx.Log(2);
  ASSERT_EQ(1u, log2.size());
  EXPECT_EQ(2u, log2[0].node);
}

TEST(OrderedDurable, WriterDeathBetweenBroadcastAndForceIsCarriedThrough) {
  // Node 3 orders a commit — its broadcast reaches nodes 1 and 2 — and dies
  // before its log force. The survivors force the carried record into
  // their own logs before answering the revoke, so the reissued token
  // follows a durable sequence and the merged logs stay gap-free.
  Fixture fx(3);
  ASSERT_TRUE(Write(fx[0], 0, 0x01).ok());
  fx[2]->rvm()->HoldCommitPipeline();
  base::Status victim_commit;
  std::thread victim([&] { victim_commit = Write(fx[2], 8, 0x33); });
  WaitForPending(fx[2]->rvm(), 1);
  ASSERT_TRUE(fx[0]->WaitForAppliedSeq(kLock, 2, 5000));
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 2, 5000));
  fx[2]->Disconnect();
  ASSERT_TRUE(fx[1]->OnPeerDeath(3).ok());
  ASSERT_TRUE(fx[0]->OnPeerDeath(3).ok());  // the manager reclaims

  // The dead writer's record is in a survivor's log, and nobody reuses its
  // sequence: node 2's next commit takes sequence 3.
  ASSERT_TRUE(Write(fx[1], 16, 0x22).ok());
  EXPECT_EQ(3u, fx[1]->AppliedSeq(kLock));
  EXPECT_EQ(OneTo(3), MergedSequences(&fx.store, 3, kLock));
  EXPECT_EQ(0x33, fx[1]->GetRegion(kRegion)->data()[8]);

  // The victim's own force finally runs (its copy merges once).
  ASSERT_TRUE(fx[2]->rvm()->ReleaseCommitPipeline().ok());
  victim.join();
  EXPECT_EQ(OneTo(3), MergedSequences(&fx.store, 3, kLock));
}

TEST(OrderedDurable, CarriedCopyASuccessorLoggedReachesAPeerTheWriterMissed) {
  // Node 3 orders sequence 2; its update reaches node 2 but not node 1.
  // Node 2 commits sequence 3, and its force logs the carried copy. Node 3
  // dies before its own force, so that copy is the only durable one. Node 2
  // still carries it at the reclaim and republishes it: node 1 applies it
  // and the held sequence 3 behind it.
  Fixture fx(3);
  ASSERT_TRUE(Write(fx[2], 0, 0x01).ok());
  for (int n = 0; n < 3; ++n) {
    ASSERT_TRUE(fx[n]->WaitForAppliedSeq(kLock, 1, 5000));
  }
  fx.cluster->fabric()->PartitionOneWay(3, 1);
  fx[2]->rvm()->HoldCommitPipeline();
  base::Status victim_commit;
  std::thread victim([&] { victim_commit = Write(fx[2], 8, 0x33); });
  WaitForPending(fx[2]->rvm(), 1);
  ASSERT_TRUE(Write(fx[1], 16, 0x22).ok());
  EXPECT_EQ(3u, fx[1]->AppliedSeq(kLock));
  std::vector<rvm::TransactionRecord> log2 = fx.Log(2);
  ASSERT_EQ(2u, log2.size());
  EXPECT_EQ(3u, log2[0].node);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx[0]->stats().updates_held == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(1u, fx[0]->stats().updates_held);
  EXPECT_EQ(1u, fx[0]->AppliedSeq(kLock));

  fx[2]->Disconnect();
  ASSERT_TRUE(fx[1]->OnPeerDeath(3).ok());
  ASSERT_TRUE(fx[0]->OnPeerDeath(3).ok());  // the manager reclaims
  ASSERT_TRUE(fx[0]->WaitForAppliedSeq(kLock, 3, 5000));
  EXPECT_EQ(0x33, fx[0]->GetRegion(kRegion)->data()[8]);
  ASSERT_TRUE(Write(fx[0], 24, 0x11).ok());
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 4, 5000));
  EXPECT_EQ(OneTo(4), MergedSequences(&fx.store, 3, kLock));
  EXPECT_EQ(0, std::memcmp(fx[0]->GetRegion(kRegion)->data(),
                           fx[1]->GetRegion(kRegion)->data(), kRegionSize));
  ASSERT_TRUE(fx[2]->rvm()->ReleaseCommitPipeline().ok());
  victim.join();
}

TEST(OrderedDurable, HeldRecordOfADeadWriterCountsAtTheReclaim) {
  // Node 4 writes sequence 3 right after node 3's sequence 2, then dies
  // before its force. Slow links leave nodes 1 and 2 holding node 4's record
  // (node 3's has not arrived) and node 3 without it. Nobody has applied 3:
  // only the held copies say it was ordered. Nodes 1 and 2 force them and
  // report 3, so the reissued token does not hand sequence 3 out again.
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, /*manager=*/1);
  std::vector<std::unique_ptr<lbc::Client>> c;
  for (rvm::NodeId n = 1; n <= 4; ++n) {
    c.push_back(std::move(*lbc::Client::Create(&cluster, n, {})));
    ASSERT_TRUE(c.back()->MapRegion(kRegion, kRegionSize).ok());
  }
  ASSERT_TRUE(Write(c[0].get(), 0, 0x01).ok());
  for (auto& client : c) {
    ASSERT_TRUE(client->WaitForAppliedSeq(kLock, 1, 5000));
  }
  constexpr uint64_t kSlowMicros = 300'000;
  cluster.fabric()->SetLinkDelay(3, 1, kSlowMicros);
  cluster.fabric()->SetLinkDelay(3, 2, kSlowMicros);
  cluster.fabric()->SetLinkDelay(4, 3, kSlowMicros);
  ASSERT_TRUE(Write(c[2].get(), 8, 0x03).ok());
  c[3]->rvm()->HoldCommitPipeline();
  base::Status victim_commit;
  std::thread victim([&] { victim_commit = Write(c[3].get(), 16, 0x04); });
  WaitForPending(c[3]->rvm(), 1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((c[0]->stats().updates_held == 0 || c[1]->stats().updates_held == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(1u, c[0]->stats().updates_held);
  ASSERT_EQ(1u, c[1]->stats().updates_held);
  EXPECT_EQ(1u, c[1]->AppliedSeq(kLock));
  EXPECT_EQ(2u, c[2]->AppliedSeq(kLock));
  c[3]->Disconnect();
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(c[s]->OnPeerDeath(4).ok());
  }
  ASSERT_TRUE(Write(c[1].get(), 24, 0x22).ok());
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(c[s]->WaitForAppliedSeq(kLock, 4, 5000)) << "node " << s + 1;
  }
  EXPECT_EQ(4u, c[1]->AppliedSeq(kLock));
  EXPECT_EQ(OneTo(4), MergedSequences(&store, 4, kLock));
  for (int s = 1; s < 3; ++s) {
    EXPECT_EQ(0, std::memcmp(c[0]->GetRegion(kRegion)->data(),
                             c[s]->GetRegion(kRegion)->data(), kRegionSize));
  }
  ASSERT_TRUE(c[3]->rvm()->ReleaseCommitPipeline().ok());
  victim.join();
}

}  // namespace
