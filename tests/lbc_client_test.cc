// Log-based coherency protocol tests: the §3.4 ordering interlock (the
// paper's A/B/C token race), lock contention, abort semantics, lazy
// propagation, versioned reads, multi-region peer sets, and client-crash
// recovery through the merged logs.
#include "src/lbc/client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "src/obs/metrics.h"
#include "src/rvm/recovery.h"
#include "src/store/crash_point_store.h"
#include "src/store/mem_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;

struct TestCluster {
  explicit TestCluster(int n_clients, lbc::ClientOptions opts = {},
                       uint64_t region_size = 8192) {
    cluster = std::make_unique<lbc::Cluster>(&store);
    cluster->DefineLock(kLock, kRegion, /*manager=*/1);
    for (int i = 0; i < n_clients; ++i) {
      clients.push_back(std::move(*lbc::Client::Create(cluster.get(), 1 + i, opts)));
      EXPECT_TRUE(clients.back()->MapRegion(kRegion, region_size).ok());
    }
  }

  lbc::Client* operator[](int i) { return clients[i].get(); }

  store::MemStore store;
  std::unique_ptr<lbc::Cluster> cluster;
  std::vector<std::unique_ptr<lbc::Client>> clients;
};

void WriteValue(lbc::Client* c, uint64_t offset, const char* bytes, size_t len,
                rvm::LockId lock = kLock) {
  lbc::Transaction txn = c->Begin();
  ASSERT_TRUE(txn.Acquire(lock).ok());
  ASSERT_TRUE(txn.SetRange(kRegion, offset, len).ok());
  std::memcpy(c->GetRegion(kRegion)->data() + offset, bytes, len);
  ASSERT_TRUE(txn.Commit().ok());
}

// --- §3.4: the token must not outrun the updates -----------------------------

TEST(LbcOrdering, TokenRaceHeldUntilUpdatesApplied) {
  TestCluster tc(3);
  lbc::Client* a = tc[0];
  lbc::Client* b = tc[1];
  lbc::Client* c = tc[2];

  // Delay A's coherency traffic to C; everything else flows normally.
  tc.cluster->fabric()->HoldLink(1, 3);

  WriteValue(a, 0, "A", 1);  // seq 1; C's copy of this update is held
  ASSERT_TRUE(b->WaitForAppliedSeq(kLock, 1, 5000));
  WriteValue(b, 0, "B", 1);  // seq 2; C receives it but must buffer it

  // C tries to acquire: the token arrives (B passes it at commit), carrying
  // sequence 2, but C has applied nothing — the acquire must block.
  std::atomic<bool> acquired{false};
  std::thread reader([&] {
    lbc::Transaction txn = c->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    acquired = true;
    EXPECT_EQ('B', c->GetRegion(kRegion)->data()[0]);
    ASSERT_TRUE(txn.Commit().ok());
  });

  // Wait until C is demonstrably blocked on the interlock: B's update is
  // buffered out of order AND the acquire has registered its wait.
  for (int i = 0;
       i < 2000 && (c->stats().updates_held == 0 || c->stats().acquire_waits == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(acquired.load());
  EXPECT_EQ(0u, c->AppliedSeq(kLock));
  EXPECT_EQ(0, c->GetRegion(kRegion)->data()[0]) << "B's update applied before A's";

  tc.cluster->fabric()->ReleaseLink(1, 3);  // A's update finally arrives
  reader.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(2u, c->AppliedSeq(kLock));
  EXPECT_GE(c->stats().updates_held, 1u);
  EXPECT_GE(c->stats().acquire_waits, 1u);
}

TEST(LbcOrdering, BuffersApplyInSequenceOrder) {
  TestCluster tc(3);
  tc.cluster->fabric()->HoldLink(1, 3);
  WriteValue(tc[0], 0, "1", 1);
  ASSERT_TRUE(tc[1]->WaitForAppliedSeq(kLock, 1, 5000));
  WriteValue(tc[1], 4, "2", 1);
  // C holds seq-1; has seq-2 buffered. Release: both apply, in order.
  tc.cluster->fabric()->ReleaseLink(1, 3);
  ASSERT_TRUE(tc[2]->WaitForAppliedSeq(kLock, 2, 5000));
  EXPECT_EQ('1', tc[2]->GetRegion(kRegion)->data()[0]);
  EXPECT_EQ('2', tc[2]->GetRegion(kRegion)->data()[4]);
  EXPECT_EQ(2u, tc[2]->stats().updates_applied);
}

// --- mutual exclusion & convergence under contention -------------------------

TEST(LbcLocks, ContendedCounterIsSequential) {
  TestCluster tc(3);
  constexpr int kPerClient = 25;
  auto worker = [&](int idx) {
    lbc::Client* c = tc[idx];
    for (int i = 0; i < kPerClient; ++i) {
      lbc::Transaction txn = c->Begin();
      ASSERT_TRUE(txn.Acquire(kLock).ok());
      uint64_t v;
      std::memcpy(&v, c->GetRegion(kRegion)->data(), 8);
      ++v;
      ASSERT_TRUE(txn.SetRange(kRegion, 0, 8).ok());
      std::memcpy(c->GetRegion(kRegion)->data(), &v, 8);
      ASSERT_TRUE(txn.Commit().ok());
    }
  };
  std::thread t1(worker, 0), t2(worker, 1), t3(worker, 2);
  t1.join();
  t2.join();
  t3.join();
  uint64_t total = 3 * kPerClient;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tc[i]->WaitForAppliedSeq(kLock, total, 10000)) << "client " << i;
    uint64_t v;
    std::memcpy(&v, tc[i]->GetRegion(kRegion)->data(), 8);
    EXPECT_EQ(total, v) << "client " << i;
  }
}

TEST(LbcLocks, ReacquireOnSameNodeIsLocal) {
  TestCluster tc(2);
  WriteValue(tc[0], 0, "x", 1);
  uint64_t msgs_before = tc[0]->stats().lock_messages_sent;
  WriteValue(tc[0], 0, "y", 1);  // token already here: no lock traffic
  EXPECT_EQ(msgs_before, tc[0]->stats().lock_messages_sent);
}

TEST(LbcLocks, AcquireTwiceInOneTransactionIsIdempotent) {
  TestCluster tc(1);
  lbc::Transaction txn = tc[0]->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
  tc[0]->GetRegion(kRegion)->data()[0] = 1;
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(1u, tc[0]->AppliedSeq(kLock));
}

TEST(LbcLocks, UndefinedLockFails) {
  TestCluster tc(1);
  lbc::Transaction txn = tc[0]->Begin();
  EXPECT_EQ(base::StatusCode::kNotFound, txn.Acquire(999).code());
  ASSERT_TRUE(txn.Abort().ok());
}

TEST(LbcLocks, AcquireRequiresMappedRegion) {
  TestCluster tc(1);
  tc.cluster->DefineLock(77, /*region=*/42, /*manager=*/1);
  lbc::Transaction txn = tc[0]->Begin();
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.Acquire(77).code());
  ASSERT_TRUE(txn.Abort().ok());
}

// --- abort and read-only semantics -------------------------------------------

TEST(LbcAbort, AbortRestoresAndReleasesWithoutSequence) {
  TestCluster tc(2);
  WriteValue(tc[0], 0, "ok", 2);
  {
    lbc::Transaction txn = tc[1]->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 2).ok());
    std::memcpy(tc[1]->GetRegion(kRegion)->data(), "XX", 2);
    ASSERT_TRUE(txn.Abort().ok());
  }
  EXPECT_EQ(0, std::memcmp(tc[1]->GetRegion(kRegion)->data(), "ok", 2));
  // The aborted acquire consumed no sequence number: the next writer gets
  // seq 2 and peers wait for nothing extra.
  WriteValue(tc[0], 0, "go", 2);
  ASSERT_TRUE(tc[1]->WaitForAppliedSeq(kLock, 2, 5000));
  EXPECT_EQ(0, std::memcmp(tc[1]->GetRegion(kRegion)->data(), "go", 2));
}

TEST(LbcAbort, DroppedTransactionAborts) {
  TestCluster tc(1);
  {
    lbc::Transaction txn = tc[0]->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
    tc[0]->GetRegion(kRegion)->data()[0] = 55;
    // Destructor aborts.
  }
  EXPECT_EQ(0, tc[0]->GetRegion(kRegion)->data()[0]);
  EXPECT_EQ(1u, tc[0]->rvm()->stats().transactions_aborted);
  // Lock is free again.
  WriteValue(tc[0], 0, "z", 1);
}

TEST(LbcAbort, ClosedTransactionRejectsFurtherOps) {
  TestCluster tc(1);
  lbc::Transaction txn = tc[0]->Begin();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.open());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.Acquire(kLock).code());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.SetRange(kRegion, 0, 1).code());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.Commit().code());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.Abort().code());
}

// --- propagation policies ----------------------------------------------------

TEST(LbcLazy, UpdatesTravelWithTheToken) {
  lbc::ClientOptions opts;
  opts.policy = lbc::PropagationPolicy::kLazy;
  TestCluster tc(2, opts);

  WriteValue(tc[0], 0, "L1", 2);
  // Eagerly nothing was sent.
  EXPECT_EQ(0u, tc[0]->stats().updates_sent);
  EXPECT_EQ(0u, tc[1]->AppliedSeq(kLock));

  // Acquiring on the peer pulls the retained records with the token.
  lbc::Transaction txn = tc[1]->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(0, std::memcmp(tc[1]->GetRegion(kRegion)->data(), "L1", 2));
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(1u, tc[1]->AppliedSeq(kLock));
}

TEST(LbcLazy, PiggybackSkipsAlreadyAppliedRecords) {
  lbc::ClientOptions opts;
  opts.policy = lbc::PropagationPolicy::kLazy;
  TestCluster tc(2, opts);
  // Ping-pong: each acquisition must carry only the missing records.
  for (int round = 0; round < 3; ++round) {
    for (int c = 0; c < 2; ++c) {
      lbc::Transaction txn = tc[c]->Begin();
      ASSERT_TRUE(txn.Acquire(kLock).ok());
      uint64_t v;
      std::memcpy(&v, tc[c]->GetRegion(kRegion)->data(), 8);
      EXPECT_EQ(static_cast<uint64_t>(round * 2 + c), v);
      ++v;
      ASSERT_TRUE(txn.SetRange(kRegion, 0, 8).ok());
      std::memcpy(tc[c]->GetRegion(kRegion)->data(), &v, 8);
      ASSERT_TRUE(txn.Commit().ok());
    }
  }
  EXPECT_EQ(0u, tc[0]->stats().updates_sent);
}

TEST(LbcLazy, SecondLockInTransactionRejected) {
  lbc::ClientOptions opts;
  opts.policy = lbc::PropagationPolicy::kLazy;
  TestCluster tc(1, opts);
  tc.cluster->DefineLock(11, kRegion, 1);
  lbc::Transaction txn = tc[0]->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, txn.Acquire(11).code());
  ASSERT_TRUE(txn.Abort().ok());
}

// --- versioned reads (§2.1 accept) -------------------------------------------

TEST(LbcVersioned, UpdatesHeldUntilAccept) {
  lbc::ClientOptions reader_opts;
  reader_opts.versioned_reads = true;
  TestCluster tc(1);  // writer with default options
  auto reader = std::move(*lbc::Client::Create(tc.cluster.get(), 2, reader_opts));
  ASSERT_TRUE(reader->MapRegion(kRegion, 8192).ok());

  WriteValue(tc[0], 0, "new", 3);
  // The update reaches the reader but stays buffered.
  for (int i = 0; i < 500 && reader->stats().updates_received == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(1u, reader->stats().updates_received);
  EXPECT_EQ(0, reader->GetRegion(kRegion)->data()[0]) << "applied before accept";
  EXPECT_EQ(0u, reader->AppliedSeq(kLock));

  ASSERT_TRUE(reader->Accept().ok());
  EXPECT_EQ(0, std::memcmp(reader->GetRegion(kRegion)->data(), "new", 3));
  EXPECT_EQ(1u, reader->AppliedSeq(kLock));
}

TEST(LbcVersioned, AcquireImpliesAccept) {
  lbc::ClientOptions opts;
  opts.versioned_reads = true;
  TestCluster tc(1);
  auto reader = std::move(*lbc::Client::Create(tc.cluster.get(), 2, opts));
  ASSERT_TRUE(reader->MapRegion(kRegion, 8192).ok());
  WriteValue(tc[0], 0, "acc", 3);
  for (int i = 0; i < 500 && reader->stats().updates_received == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lbc::Transaction txn = reader->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  EXPECT_EQ(0, std::memcmp(reader->GetRegion(kRegion)->data(), "acc", 3));
  ASSERT_TRUE(txn.Commit().ok());
}

// --- peer sets and multiple regions ------------------------------------------

TEST(LbcRegions, UpdatesOnlyReachMappingPeers) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  cluster.DefineLock(20, 2, 1);

  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
  auto c = std::move(*lbc::Client::Create(&cluster, 3, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 4096).ok());
  ASSERT_TRUE(a->MapRegion(2, 4096).ok());
  ASSERT_TRUE(b->MapRegion(kRegion, 4096).ok());
  ASSERT_TRUE(c->MapRegion(2, 4096).ok());

  // A writes region 1: only B should receive it.
  {
    lbc::Transaction txn = a->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
    a->GetRegion(kRegion)->data()[0] = 5;
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(b->WaitForAppliedSeq(kLock, 1, 5000));
  EXPECT_EQ(5, b->GetRegion(kRegion)->data()[0]);
  EXPECT_EQ(0u, c->stats().updates_received);
  EXPECT_EQ(1u, a->stats().updates_sent);  // exactly one peer
}

TEST(LbcRegions, MultiLockTransactionAdvancesBothSequences) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  cluster.DefineLock(21, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 4096).ok());
  ASSERT_TRUE(b->MapRegion(kRegion, 4096).ok());
  {
    lbc::Transaction txn = a->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.Acquire(21).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
    a->GetRegion(kRegion)->data()[0] = 9;
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(b->WaitForAppliedSeq(kLock, 1, 5000));
  ASSERT_TRUE(b->WaitForAppliedSeq(21, 1, 5000));
  EXPECT_EQ(9, b->GetRegion(kRegion)->data()[0]);
}

// --- crash / recovery ---------------------------------------------------------

TEST(LbcRecovery, CommittedStateSurvivesClusterCrash) {
  store::MemStore store;
  {
    lbc::Cluster cluster(&store);
    cluster.DefineLock(kLock, kRegion, 1);
    auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
    auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
    ASSERT_TRUE(a->MapRegion(kRegion, 4096).ok());
    ASSERT_TRUE(b->MapRegion(kRegion, 4096).ok());
    // Interleaved committed writes from both nodes...
    WriteValue(a.get(), 0, "AAAA", 4);
    ASSERT_TRUE(b->WaitForAppliedSeq(kLock, 1, 5000));
    WriteValue(b.get(), 2, "BB", 2);
    ASSERT_TRUE(a->WaitForAppliedSeq(kLock, 2, 5000));
    // ...and an uncommitted one that must vanish.
    lbc::Transaction doomed = a->Begin();
    ASSERT_TRUE(doomed.Acquire(kLock).ok());
    ASSERT_TRUE(doomed.SetRange(kRegion, 0, 4).ok());
    std::memcpy(a->GetRegion(kRegion)->data(), "EVIL", 4);
    // Machine dies: no commit, clients vanish.
  }
  store.Crash();

  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  ASSERT_TRUE(cluster.RecoverAndTrim({1, 2}).ok());
  auto fresh = std::move(*lbc::Client::Create(&cluster, 3, {}));
  rvm::Region* region = *fresh->MapRegion(kRegion, 4096);
  EXPECT_EQ(0, std::memcmp(region->data(), "AABB", 4));
  // Logs were trimmed.
  auto log1 = std::move(*store.Open(rvm::LogFileName(1), false));
  EXPECT_EQ(0u, *log1->Size());
}

TEST(LbcRecovery, RecoverAndTrimSkipsMissingLogs) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  EXPECT_TRUE(cluster.RecoverAndTrim({7, 8, 9}).ok());
}

// Create fails in Init before the client joins the fabric (its log cannot
// be opened). The half-built client must be torn down cleanly, and the node
// id stays free for a client created once the store is back.
TEST(LbcLifecycle, CreateFailingBeforeJoiningFabricTearsDownCleanly) {
  store::MemStore mem;
  store::CrashPointStore store(&mem);
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, /*manager=*/1);
  store.SetOffline(true);
  auto failed = lbc::Client::Create(&cluster, 1, {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(base::StatusCode::kUnavailable, failed.status().code());

  store.SetOffline(false);
  auto client = lbc::Client::Create(&cluster, 1, {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->MapRegion(kRegion, 8192).ok());
  lbc::Transaction txn = (*client)->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());
  ASSERT_TRUE(txn.SetRange(kRegion, 0, 1).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(1u, (*client)->AppliedSeq(kLock));
}

// --- statistics ----------------------------------------------------------------

TEST(LbcStats, CountsMessageBytes) {
  TestCluster tc(2);
  WriteValue(tc[0], 0, "12345678", 8);
  lbc::ClientStats s = tc[0]->stats();
  EXPECT_EQ(1u, s.updates_sent);
  EXPECT_GT(s.update_bytes_sent, 8u);   // payload + headers
  EXPECT_LT(s.update_bytes_sent, 64u);  // compressed, not the 104-byte kind
  ASSERT_TRUE(tc[1]->WaitForAppliedSeq(kLock, 1, 5000));
  EXPECT_EQ(1u, tc[1]->stats().updates_received);
  EXPECT_EQ(1u, tc[1]->stats().updates_applied);
}

// Two clusters live at once, each with a node 1: each client's stats()
// counts only its own traffic, while the exported lbc.n1.* counters sum
// both instances.
TEST(LbcStats, ConcurrentClustersCountSeparatelyAndExportTheSum) {
  auto* reg = obs::MetricsRegistry::Global();
  const uint64_t exported_before = reg->CounterValue("lbc.n1.updates_sent");
  const uint64_t bytes_before = reg->CounterValue("lbc.n1.update_bytes_sent");
  TestCluster first(3);
  TestCluster second(2);
  WriteValue(first[0], 0, "a", 1);   // node 1 -> two peers
  WriteValue(second[0], 0, "b", 1);  // node 1 -> one peer
  WriteValue(second[0], 1, "c", 1);

  const lbc::ClientStats one = first[0]->stats();
  const lbc::ClientStats two = second[0]->stats();
  EXPECT_EQ(2u, one.updates_sent);
  EXPECT_EQ(2u, two.updates_sent);
  EXPECT_EQ(0u, first[1]->stats().updates_sent);
  EXPECT_EQ(one.updates_sent + two.updates_sent,
            reg->CounterValue("lbc.n1.updates_sent") - exported_before);
  EXPECT_EQ(one.update_bytes_sent + two.update_bytes_sent,
            reg->CounterValue("lbc.n1.update_bytes_sent") - bytes_before);
  ASSERT_TRUE(second[1]->WaitForAppliedSeq(kLock, 2, 5000));
  EXPECT_EQ(2u, second[1]->stats().updates_received);
}

}  // namespace
