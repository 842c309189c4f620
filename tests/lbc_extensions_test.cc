// Extension features: multicast propagation (§4.3.1), the adaptive hybrid
// capture mode (conclusion), and online log trimming (§3.5).
#include <gtest/gtest.h>

#include <cstring>

#include "src/lbc/client.h"
#include "src/lbc/online_trim.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;

struct Fixture {
  explicit Fixture(int n_clients, lbc::ClientOptions opts = {}) {
    cluster = std::make_unique<lbc::Cluster>(&store);
    cluster->DefineLock(kLock, kRegion, 1);
    for (int i = 0; i < n_clients; ++i) {
      clients.push_back(std::move(*lbc::Client::Create(cluster.get(), 1 + i, opts)));
      EXPECT_TRUE(clients.back()->MapRegion(kRegion, 8192).ok());
    }
  }
  lbc::Client* operator[](int i) { return clients[i].get(); }

  store::MemStore store;
  std::unique_ptr<lbc::Cluster> cluster;
  std::vector<std::unique_ptr<lbc::Client>> clients;
};

void CommitByte(lbc::Client* c, uint64_t offset, uint8_t value) {
  lbc::Transaction txn = c->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  ASSERT_TRUE(txn.SetRange(kRegion, offset, 1).ok());
  c->GetRegion(kRegion)->data()[offset] = value;
  ASSERT_TRUE(txn.Commit().ok());
}

// --- multicast ---------------------------------------------------------------

TEST(Multicast, OneSendReachesAllPeers) {
  lbc::ClientOptions opts;
  opts.use_multicast = true;
  Fixture fx(4, opts);
  CommitByte(fx[0], 0, 7);
  for (int i = 1; i < 4; ++i) {
    ASSERT_TRUE(fx[i]->WaitForAppliedSeq(kLock, 1, 5000)) << i;
    EXPECT_EQ(7, fx[i]->GetRegion(kRegion)->data()[0]);
  }
  // The sender was charged for ONE message regardless of peer count.
  EXPECT_EQ(1u, fx[0]->stats().updates_sent);
}

TEST(Multicast, ByteChargeIndependentOfPeerCount) {
  uint64_t bytes[2];
  for (int peers : {1, 3}) {
    lbc::ClientOptions opts;
    opts.use_multicast = true;
    Fixture fx(1 + peers, opts);
    CommitByte(fx[0], 0, 1);
    bytes[peers == 1 ? 0 : 1] = fx[0]->stats().update_bytes_sent;
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(Multicast, OrderingInterlockStillHolds) {
  lbc::ClientOptions opts;
  opts.use_multicast = true;
  Fixture fx(3, opts);
  for (int round = 1; round <= 4; ++round) {
    lbc::Client* writer = fx[round % 2];
    lbc::Transaction txn = writer->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    EXPECT_EQ(round - 1, writer->GetRegion(kRegion)->data()[0]);
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
    writer->GetRegion(kRegion)->data()[0] = static_cast<uint8_t>(round);
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(fx[2]->WaitForAppliedSeq(kLock, 4, 5000));
  EXPECT_EQ(4, fx[2]->GetRegion(kRegion)->data()[0]);
}

// --- adaptive hybrid capture ---------------------------------------------------

TEST(AdaptiveCapture, DensePageCollapsesToOneSpan) {
  store::MemStore store;
  rvm::RvmOptions options;
  options.adaptive_ranges_per_page = 8;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  rvm::Region* region = *r->MapRegion(kRegion, 3 * 8192);

  rvm::TransactionRecord captured;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) { captured = rec; });

  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  // 20 scattered 8-byte updates inside page 0 (dense), 2 in page 2 (sparse).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(r->SetRange(txn, kRegion, static_cast<uint64_t>(i) * 400, 8).ok());
    std::memset(region->data() + i * 400, i + 1, 8);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(r->SetRange(txn, kRegion, 2 * 8192 + static_cast<uint64_t>(i) * 64, 8).ok());
  }
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());

  // Page 0's 20 ranges became one span [0, 19*400+8); page 2 kept 2 ranges.
  ASSERT_EQ(3u, captured.ranges.size());
  EXPECT_EQ(0u, testing_records::ListOf(captured)[0].offset);
  EXPECT_EQ(19u * 400 + 8, testing_records::ListOf(captured)[0].data.size());
  EXPECT_EQ(1u, r->stats().adaptive_pages_coalesced);
}

TEST(AdaptiveCapture, SpanIsRecoverable) {
  store::MemStore store;
  {
    rvm::RvmOptions options;
    options.adaptive_ranges_per_page = 4;
    auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
    rvm::Region* region = *r->MapRegion(kRegion, 8192);
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(r->SetRange(txn, kRegion, static_cast<uint64_t>(i) * 100, 4).ok());
      std::memset(region->data() + i * 100, 0xA0 + i, 4);
    }
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  }
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 8192);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(0xA0 + i, region->data()[i * 100]) << i;
  }
}

TEST(AdaptiveCapture, DisabledByDefault) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 8192);
  rvm::TransactionRecord captured;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) { captured = rec; });
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(r->SetRange(txn, kRegion, static_cast<uint64_t>(i) * 16, 8).ok());
    region->data()[i * 16] = 1;
  }
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(50u, captured.ranges.size());
  EXPECT_EQ(0u, r->stats().adaptive_pages_coalesced);
}

TEST(AdaptiveCapture, CoherentAcrossClients) {
  lbc::ClientOptions opts;
  opts.rvm.adaptive_ranges_per_page = 4;
  Fixture fx(2, opts);
  {
    lbc::Transaction txn = fx[0]->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(txn.SetRange(kRegion, static_cast<uint64_t>(i) * 100, 8).ok());
      std::memset(fx[0]->GetRegion(kRegion)->data() + i * 100, i + 1, 8);
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 1, 5000));
  EXPECT_EQ(0, std::memcmp(fx[0]->GetRegion(kRegion)->data(),
                           fx[1]->GetRegion(kRegion)->data(), 8192));
}

// --- online trimming -------------------------------------------------------------

TEST(OnlineTrim, TrimsLogsWithoutLosingState) {
  Fixture fx(3);
  CommitByte(fx[0], 0, 1);
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 1, 5000));
  CommitByte(fx[1], 1, 2);
  ASSERT_TRUE(fx[0]->WaitForAppliedSeq(kLock, 2, 5000));

  std::vector<lbc::Client*> all = {fx[0], fx[1], fx[2]};
  ASSERT_TRUE(lbc::OnlineTrim(fx.cluster.get(), fx[2], all).ok());

  // Logs are empty...
  for (int i = 0; i < 3; ++i) {
    auto log = std::move(*fx.store.Open(rvm::LogFileName(1 + i), true));
    EXPECT_EQ(0u, *log->Size()) << "node " << (1 + i);
  }
  // ...the database files hold the committed state...
  auto db = std::move(*fx.store.Open(rvm::RegionFileName(kRegion), false));
  uint8_t buf[2];
  ASSERT_TRUE(db->ReadExact(0, buf, 2).ok());
  EXPECT_EQ(1, buf[0]);
  EXPECT_EQ(2, buf[1]);
  // ...and the system keeps running afterwards (the trim's read-only
  // quiesce transaction consumed no sequence number).
  CommitByte(fx[0], 2, 3);
  ASSERT_TRUE(fx[1]->WaitForAppliedSeq(kLock, 3, 5000));
  EXPECT_EQ(3, fx[1]->GetRegion(kRegion)->data()[2]);
}

TEST(OnlineTrim, PostTrimCrashRecoversToTrimmedPlusNew) {
  store::MemStore store;
  {
    lbc::Cluster cluster(&store);
    cluster.DefineLock(kLock, kRegion, 1);
    auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
    auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
    ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());
    ASSERT_TRUE(b->MapRegion(kRegion, 8192).ok());
    CommitByte(a.get(), 0, 10);
    ASSERT_TRUE(b->WaitForAppliedSeq(kLock, 1, 5000));

    ASSERT_TRUE(lbc::OnlineTrim(&cluster, a.get(), {a.get(), b.get()}).ok());

    // New work after the trim, then crash.
    CommitByte(b.get(), 1, 20);
    ASSERT_TRUE(a->WaitForAppliedSeq(kLock, 2, 5000));
  }
  store.Crash();
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  ASSERT_TRUE(cluster.RecoverAndTrim({1, 2}).ok());
  auto fresh = std::move(*lbc::Client::Create(&cluster, 3, {}));
  rvm::Region* region = *fresh->MapRegion(kRegion, 8192);
  EXPECT_EQ(10, region->data()[0]);  // from before the trim (database file)
  EXPECT_EQ(20, region->data()[1]);  // from after the trim (post-trim log)
}

TEST(OnlineTrim, CoordinatorMustMapLockedRegions) {
  Fixture fx(1);
  fx.cluster->DefineLock(99, /*region=*/55, /*manager=*/1);  // region unmapped
  std::vector<lbc::Client*> all = {fx[0]};
  EXPECT_EQ(base::StatusCode::kFailedPrecondition,
            lbc::OnlineTrim(fx.cluster.get(), fx[0], all).code());
  // The failed trim released its locks: normal operation continues.
  CommitByte(fx[0], 0, 5);
}

}  // namespace
