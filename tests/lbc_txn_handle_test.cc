// Transaction handle semantics: move construction/assignment, destructor
// abort, stats bookkeeping, and no-flush commits across the client stack.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/lbc/client.h"
#include "src/store/mem_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;

struct Fixture {
  Fixture() {
    cluster = std::make_unique<lbc::Cluster>(&store);
    cluster->DefineLock(kLock, kRegion, 1);
    client = std::move(*lbc::Client::Create(cluster.get(), 1, {}));
    EXPECT_TRUE(client->MapRegion(kRegion, 8192).ok());
  }
  store::MemStore store;
  std::unique_ptr<lbc::Cluster> cluster;
  std::unique_ptr<lbc::Client> client;
};

TEST(TxnHandle, MoveConstructionTransfersOwnership) {
  Fixture fx;
  lbc::Transaction a = fx.client->Begin();
  ASSERT_TRUE(a.Acquire(kLock).ok());
  lbc::Transaction b = std::move(a);
  EXPECT_FALSE(a.open());  // NOLINT(bugprone-use-after-move): testing the moved-from state
  EXPECT_TRUE(b.open());
  ASSERT_TRUE(b.SetRange(kRegion, 0, 1).ok());
  fx.client->GetRegion(kRegion)->data()[0] = 1;
  EXPECT_TRUE(b.Commit().ok());
}

TEST(TxnHandle, MoveAssignmentAbortsTheOverwrittenTransaction) {
  Fixture fx;
  lbc::Transaction a = fx.client->Begin();
  ASSERT_TRUE(a.SetRange(kRegion, 0, 1).ok());
  fx.client->GetRegion(kRegion)->data()[0] = 7;
  lbc::Transaction b = fx.client->Begin();
  a = std::move(b);  // the original `a` transaction must abort (undo)
  EXPECT_EQ(0, fx.client->GetRegion(kRegion)->data()[0]);
  EXPECT_EQ(1u, fx.client->rvm()->stats().transactions_aborted);
  ASSERT_TRUE(a.Commit().ok());
}

TEST(TxnHandle, SelfMoveAssignmentIsHarmless) {
  Fixture fx;
  lbc::Transaction a = fx.client->Begin();
  lbc::Transaction& alias = a;
  a = std::move(alias);
  EXPECT_TRUE(a.open());
  ASSERT_TRUE(a.Abort().ok());
}

TEST(TxnHandle, NoFlushCommitThenExplicitFlushIsDurable) {
  Fixture fx;
  {
    lbc::Transaction txn = fx.client->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 4).ok());
    std::memcpy(fx.client->GetRegion(kRegion)->data(), "lazy", 4);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kNoFlush).ok());
  }
  ASSERT_TRUE(fx.client->rvm()->FlushLog().ok());
  fx.client.reset();
  fx.store.Crash();
  lbc::Cluster cluster2(&fx.store);
  cluster2.DefineLock(kLock, kRegion, 1);
  ASSERT_TRUE(cluster2.RecoverAndTrim({1}).ok());
  auto db = std::move(*fx.store.Open(rvm::RegionFileName(kRegion), false));
  char buf[4];
  ASSERT_TRUE(db->ReadExact(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "lazy", 4));
}

TEST(TxnHandle, UnflushedCommitLostInCrash) {
  Fixture fx;
  {
    lbc::Transaction txn = fx.client->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 4).ok());
    std::memcpy(fx.client->GetRegion(kRegion)->data(), "gone", 4);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kNoFlush).ok());
  }
  fx.client.reset();
  fx.store.Crash();  // log tail never synced
  lbc::Cluster cluster2(&fx.store);
  cluster2.DefineLock(kLock, kRegion, 1);
  ASSERT_TRUE(cluster2.RecoverAndTrim({1}).ok());
  auto exists = fx.store.Open(rvm::RegionFileName(kRegion), true);
  uint8_t b = 0;
  (*exists)->Read(0, &b, 1).ok();
  EXPECT_NE('g', b);
}

// Counters are monotonic and never reset: a phase is measured as the
// difference of two readings.
TEST(TxnHandle, StatsDeltasMeasureOnePhase) {
  Fixture fx;
  auto commit_one = [&fx] {
    lbc::Transaction txn = fx.client->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
    ++fx.client->GetRegion(kRegion)->data()[0];
    ASSERT_TRUE(txn.Commit().ok());
  };
  commit_one();
  const rvm::RvmStats rvm_before = fx.client->rvm()->stats();
  const lbc::ClientStats client_before = fx.client->stats();
  EXPECT_GT(rvm_before.transactions_committed, 0u);
  EXPECT_EQ(0u, fx.client->rvm()->stats().transactions_committed -
                    rvm_before.transactions_committed);
  EXPECT_EQ(0u, fx.client->stats().updates_sent - client_before.updates_sent);
  commit_one();
  EXPECT_EQ(1u, fx.client->rvm()->stats().transactions_committed -
                    rvm_before.transactions_committed);
  // Sequence state is not a counter: the lock continues from where it was.
  EXPECT_EQ(2u, fx.client->AppliedSeq(kLock));
}

// An open transaction that declared ranges in a region keeps it mapped:
// the unmap is refused before the client withdraws from the region's peer
// set, so the refusal changes nothing. Once the transaction ends the unmap
// goes through.
TEST(TxnHandle, UnmapOfADeclaredRegionIsRefusedUntilTheTransactionEnds) {
  Fixture fx;
  const std::vector<rvm::NodeId> mapped_here{1};
  lbc::Transaction txn = fx.client->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  ASSERT_TRUE(txn.SetRange(kRegion, 0, 8).ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, fx.client->UnmapRegion(kRegion).code());
  EXPECT_EQ(std::vector<rvm::RegionId>{kRegion}, fx.client->MappedRegions());
  EXPECT_EQ(mapped_here, fx.cluster->PeersOf(kRegion, /*exclude=*/0));
  fx.client->GetRegion(kRegion)->data()[0] = 1;
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.SetRange(kRegion, 0, 8).code());
  EXPECT_TRUE(fx.client->UnmapRegion(kRegion).ok());
  EXPECT_TRUE(fx.client->MappedRegions().empty());
  EXPECT_TRUE(fx.cluster->PeersOf(kRegion, /*exclude=*/0).empty());
}

TEST(TxnHandle, UnmapAfterAbortOfADeclaredRegionSucceeds) {
  Fixture fx;
  lbc::Transaction txn = fx.client->Begin();
  ASSERT_TRUE(txn.SetRange(kRegion, 0, 8).ok());
  fx.client->GetRegion(kRegion)->data()[0] = 4;
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, fx.client->UnmapRegion(kRegion).code());
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_EQ(0, fx.client->GetRegion(kRegion)->data()[0]);
  EXPECT_TRUE(fx.client->UnmapRegion(kRegion).ok());
}

TEST(TxnHandle, WaitForAppliedSeqTimesOutCleanly) {
  Fixture fx;
  EXPECT_FALSE(fx.client->WaitForAppliedSeq(kLock, 99, /*timeout_ms=*/50));
}

}  // namespace
