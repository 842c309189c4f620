// Chaos tests: the full stack under an adversarial fabric.
//
//   1. Fault injection is deterministic: the same seed yields the same
//      per-link drop/duplicate decisions (and so the same survivor stream).
//   2. ReliableChannel restores exactly-once FIFO delivery over a link that
//      drops, duplicates, and reorders.
//   3. End to end: a seeded random workload over a lossy, partitioned
//      fabric — one client killed mid-commit, then the storage server
//      itself killed and restarted mid-run (store offline, directories
//      wiped, rebuilt from the merged client logs) — still converges:
//      every surviving client's cached image is byte-identical, equals the
//      crash-recovered database files, and the whole scenario is
//      deterministic across two runs with the same seed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/base/rng.h"
#include "src/base/sync.h"
#include "src/lbc/client.h"
#include "src/netsim/fabric.h"
#include "src/netsim/reliable.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/scrub.h"
#include "src/store/crash_point_store.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"

namespace {

// Dump the accumulated metrics + protocol trace once the whole suite is done,
// so a chaos run doubles as an observability smoke test.
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

// ---------------------------------------------------------------------------
// 1. Deterministic fault injection
// ---------------------------------------------------------------------------

struct LossyRunResult {
  std::vector<uint32_t> delivered;  // message ids in arrival order
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
};

LossyRunResult RunLossyStream(uint64_t seed) {
  netsim::Fabric fabric;
  fabric.SeedFaults(seed);
  netsim::LinkFaults faults;
  faults.drop_probability = 0.3;
  faults.duplicate_probability = 0.2;
  netsim::Endpoint* a = fabric.AddNode(1);
  netsim::Endpoint* b = fabric.AddNode(2);
  fabric.SetLinkFaults(1, 2, faults);

  constexpr uint32_t kMessages = 400;
  for (uint32_t i = 0; i < kMessages; ++i) {
    std::vector<uint8_t> payload(4);
    std::memcpy(payload.data(), &i, 4);
    EXPECT_TRUE(a->Send(2, std::move(payload)).ok());
  }
  LossyRunResult out;
  out.dropped = fabric.fault_metrics().dropped.value();
  out.duplicated = fabric.fault_metrics().duplicated.value();
  // No delay faults: every survivor is already queued synchronously.
  uint64_t expect = kMessages - out.dropped + out.duplicated;
  for (uint64_t i = 0; i < expect; ++i) {
    auto msg = b->Receive();
    if (!msg.has_value()) {
      break;
    }
    uint32_t id = 0;
    std::memcpy(&id, msg->payload.data(), 4);
    out.delivered.push_back(id);
  }
  return out;
}

TEST(FabricFaults, SameSeedSameFaultDecisions) {
  LossyRunResult r1 = RunLossyStream(0xFEE1);
  LossyRunResult r2 = RunLossyStream(0xFEE1);
  EXPECT_GT(r1.dropped, 0u);
  EXPECT_GT(r1.duplicated, 0u);
  EXPECT_EQ(r1.dropped, r2.dropped);
  EXPECT_EQ(r1.duplicated, r2.duplicated);
  EXPECT_EQ(r1.delivered, r2.delivered);

  // A different seed draws a different stream (overwhelmingly likely).
  LossyRunResult r3 = RunLossyStream(0xFEE2);
  EXPECT_NE(r1.delivered, r3.delivered);
}

TEST(FabricFaults, PartitionDropsSilentlyUntilHealed) {
  netsim::Fabric fabric;
  netsim::Endpoint* a = fabric.AddNode(1);
  netsim::Endpoint* b = fabric.AddNode(2);
  fabric.Partition(1, 2);
  EXPECT_TRUE(fabric.IsPartitioned(1, 2));
  EXPECT_TRUE(fabric.IsPartitioned(2, 1));
  // Sends "succeed" (the sender cannot tell, as with IP) but nothing lands.
  EXPECT_TRUE(a->Send(2, {1}).ok());
  EXPECT_TRUE(b->Send(1, {2}).ok());
  EXPECT_EQ(2u, fabric.fault_metrics().partitioned.value());
  fabric.Heal(1, 2);
  EXPECT_FALSE(fabric.IsPartitioned(1, 2));
  EXPECT_TRUE(a->Send(2, {3}).ok());
  auto msg = b->Receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(3, msg->payload[0]);
}

// ---------------------------------------------------------------------------
// 2. ReliableChannel: exactly-once FIFO over a hostile link
// ---------------------------------------------------------------------------

TEST(ReliableChannel, ExactlyOnceFifoOverLossyLink) {
  netsim::Fabric fabric;
  fabric.SeedFaults(0xC0FFEE);
  netsim::LinkFaults faults;
  faults.drop_probability = 0.25;
  faults.duplicate_probability = 0.15;
  faults.delay_probability = 0.2;  // bypasses FIFO: reorders
  faults.delay_min_micros = 100;
  faults.delay_max_micros = 2000;
  fabric.SetDefaultFaults(faults);
  netsim::Endpoint* a = fabric.AddNode(1);
  netsim::Endpoint* b = fabric.AddNode(2);

  netsim::ReliableChannel sender(a);
  netsim::ReliableChannel receiver(b);
  base::Mutex mu("test.chaos.got");
  std::vector<uint32_t> got;
  receiver.StartReceiver([&](netsim::Message&& msg) {
    uint32_t id = 0;
    std::memcpy(&id, msg.payload.data(), 4);
    base::MutexLock lk(mu);
    got.push_back(id);
  });
  sender.StartReceiver([](netsim::Message&&) {});  // drains ACK traffic

  constexpr uint32_t kMessages = 200;
  for (uint32_t i = 0; i < kMessages; ++i) {
    std::vector<uint8_t> payload(4);
    std::memcpy(payload.data(), &i, 4);
    ASSERT_TRUE(sender.Send(2, std::move(payload)).ok());
  }
  for (int spin = 0; spin < 30000; ++spin) {
    {
      base::MutexLock lk(mu);
      if (got.size() >= kMessages) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  base::MutexLock lk(mu);
  ASSERT_EQ(kMessages, got.size()) << "lost or duplicated messages";
  for (uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_EQ(i, got[i]) << "delivery out of order at " << i;
  }
  // The link really was hostile, and the channel really did repair it.
  EXPECT_GT(fabric.fault_metrics().dropped.value(), 0u);
  EXPECT_GT(fabric.fault_metrics().duplicated.value(), 0u);
  EXPECT_GT(sender.metrics().retransmits.value(), 0u);
  EXPECT_GT(receiver.metrics().duplicates_dropped.value(), 0u);

  for (int spin = 0; spin < 30000 && !sender.AllAcked(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sender.AllAcked());
  sender.Shutdown();
  receiver.Shutdown();
}

// On a fault-free fabric the reliability layer must stay off the fast path:
// no retransmissions, and the only extra bytes are the DATA frame header
// (tag + varint sequence number) plus one small cumulative ACK per frame.
TEST(ReliableChannel, CleanFabricCostIsHeaderPlusAckOnly) {
  constexpr uint32_t kMessages = 256;
  constexpr size_t kPayload = 64;

  // Baseline: raw endpoint traffic.
  uint64_t raw_bytes = 0;
  {
    netsim::Fabric fabric;
    netsim::Endpoint* a = fabric.AddNode(1);
    netsim::Endpoint* b = fabric.AddNode(2);
    for (uint32_t i = 0; i < kMessages; ++i) {
      ASSERT_TRUE(a->Send(2, std::vector<uint8_t>(kPayload, 0x5A)).ok());
    }
    for (uint32_t i = 0; i < kMessages; ++i) {
      ASSERT_TRUE(b->Receive().has_value());
    }
    raw_bytes = a->stats().bytes_sent + b->stats().bytes_sent;
  }

  // Same workload through ReliableChannel. A long retransmission timeout
  // guarantees any retransmission seen here is a real bug, not scheduling
  // jitter on a loaded machine.
  uint64_t reliable_bytes = 0;
  uint64_t retransmits = 0;
  uint64_t acks = 0;
  {
    netsim::Fabric fabric;
    netsim::Endpoint* a = fabric.AddNode(1);
    netsim::Endpoint* b = fabric.AddNode(2);
    netsim::ReliableChannelOptions opts;
    opts.retransmit_initial_ms = 2000;
    netsim::ReliableChannel sender(a, opts);
    netsim::ReliableChannel receiver(b, opts);
    std::atomic<uint32_t> got{0};
    receiver.StartReceiver([&](netsim::Message&&) { got.fetch_add(1); });
    sender.StartReceiver([](netsim::Message&&) {});
    for (uint32_t i = 0; i < kMessages; ++i) {
      ASSERT_TRUE(sender.Send(2, std::vector<uint8_t>(kPayload, 0x5A)).ok());
    }
    for (int spin = 0; spin < 30000; ++spin) {
      if (got.load() >= kMessages && sender.AllAcked()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(kMessages, got.load());
    EXPECT_TRUE(sender.AllAcked());
    retransmits = sender.metrics().retransmits.value();
    acks = receiver.metrics().acks_sent.value();
    sender.Shutdown();
    receiver.Shutdown();
    reliable_bytes = a->stats().bytes_sent + b->stats().bytes_sent;
  }

  EXPECT_EQ(0u, retransmits);
  ASSERT_GE(reliable_bytes, raw_bytes);
  double per_msg =
      static_cast<double>(reliable_bytes - raw_bytes) / static_cast<double>(kMessages);
  std::printf("clean-fabric reliability overhead: %.2f bytes/message "
              "(%llu raw -> %llu reliable, %llu ACK frames for %u DATA frames)\n",
              per_msg, static_cast<unsigned long long>(raw_bytes),
              static_cast<unsigned long long>(reliable_bytes),
              static_cast<unsigned long long>(acks), kMessages);
  EXPECT_LE(per_msg, 8.0);
}

// ---------------------------------------------------------------------------
// 3. Full chaos scenario
// ---------------------------------------------------------------------------

constexpr int kClients = 4;          // node ids 1..4; node 4 is the victim
constexpr rvm::NodeId kVictim = 4;
constexpr int kRegions = 2;
constexpr uint64_t kRegionSize = 8192;
constexpr int kLocksPerRegion = 2;
constexpr int kTotalTxns = 40;
constexpr int kVictimTxnsBeforeDeath = 5;
constexpr rvm::LockId kVictimLastLock = 22;  // managed by live node 1
// The storage server machine is killed (store offline + directories wiped)
// right before this driver step — well after the victim's death at step 19,
// so both recoveries compose in one run.
constexpr int kServerCrashTxn = 30;

rvm::LockId LockFor(int region, int k) { return region * 10 + k + 1; }

// Managers are all survivors: a dead manager is out of scope (DESIGN.md).
rvm::NodeId ManagerFor(int region, int k) {
  return static_cast<rvm::NodeId>(1 + (region + k) % (kClients - 1));
}

struct ChaosResult {
  std::vector<std::vector<uint8_t>> images;      // per region, survivors' view
  std::vector<std::vector<uint8_t>> recovered;   // per region, post-crash db
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t partitioned = 0;
  uint64_t min_records_fetched = UINT64_MAX;     // across survivors
  uint64_t locks_reclaimed = 0;                  // across survivors
};

void RunChaosScenario(uint64_t seed, ChaosResult* out) {
  ChaosResult& result = *out;
  store::MemStore mem;
  store::CrashPointStore store(&mem);
  store.SetCrashHook([&mem] { mem.Crash(0); });
  auto cluster = std::make_unique<lbc::Cluster>(&store);
  netsim::Fabric* fabric = cluster->fabric();
  fabric->SeedFaults(seed);
  netsim::LinkFaults faults;
  faults.drop_probability = 0.15;       // >= 10% of messages dropped
  faults.duplicate_probability = 0.10;  // >= 5% duplicated
  faults.delay_probability = 0.10;      // delayed out of FIFO order
  faults.delay_min_micros = 100;
  faults.delay_max_micros = 3000;
  fabric->SetDefaultFaults(faults);

  for (int region = 1; region <= kRegions; ++region) {
    for (int k = 0; k < kLocksPerRegion; ++k) {
      cluster->DefineLock(LockFor(region, k), region, ManagerFor(region, k));
    }
  }
  std::vector<std::unique_ptr<lbc::Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    lbc::ClientOptions options;
    clients.push_back(
        std::move(*lbc::Client::Create(cluster.get(), 1 + i, options)));
    for (int region = 1; region <= kRegions; ++region) {
      EXPECT_TRUE(clients.back()->MapRegion(region, kRegionSize).ok());
    }
  }
  lbc::Client* victim = clients[kVictim - 1].get();

  // One deterministic driver: commit order, lock sequence numbers, and every
  // written byte depend only on the seed — however the fabric misbehaves.
  base::Rng rng(seed * 77 + 1);
  std::vector<uint64_t> committed_per_lock(100, 0);
  int victim_txns = 0;
  bool victim_dead = false;
  // Joined on every exit path (ASSERT failures return early).
  struct Joiner {
    std::thread t;
    ~Joiner() {
      if (t.joinable()) {
        t.join();
      }
    }
  } healer;

  auto run_txn = [&](lbc::Client* client, rvm::LockId lock, int region, int lock_k) {
    lbc::Transaction txn = client->Begin();
    ASSERT_TRUE(txn.Acquire(lock).ok());
    // Each lock guards its own disjoint slice of the region, so strict 2PL
    // serializes all conflicting writes.
    uint64_t base_off = static_cast<uint64_t>(lock_k) * (kRegionSize / kLocksPerRegion);
    int writes = 1 + static_cast<int>(rng.Uniform(4));
    for (int w = 0; w < writes; ++w) {
      uint64_t off = base_off + rng.Uniform(kRegionSize / kLocksPerRegion - 16);
      uint64_t len = 1 + rng.Uniform(12);
      ASSERT_TRUE(txn.SetRange(region, off, len).ok());
      for (uint64_t b = 0; b < len; ++b) {
        client->GetRegion(region)->data()[off + b] = static_cast<uint8_t>(rng.Next());
      }
    }
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
    ++committed_per_lock[lock];
  };

  for (int i = 0; i < kTotalTxns; ++i) {
    int writer = i % kClients;
    if (victim_dead && 1 + writer == static_cast<int>(kVictim)) {
      writer = i % (kClients - 1);  // survivors only, still deterministic
    }
    lbc::Client* client = clients[writer].get();

    if (i == kTotalTxns / 4) {
      // One-way partition between two survivors, healed by a timer halfway
      // through its life: the reliable channel retransmits across the gap.
      fabric->PartitionOneWay(1, 2);
      healer.t = std::thread([fabric] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        fabric->HealOneWay(1, 2);
      });
    }

    if (i == kServerCrashTxn) {
      // Whole-server-machine crash: the store goes dark and every
      // server-resident directory (mappings, baselines, applied reports,
      // record cache, liveness) is wiped. Client-resident state — lock
      // tokens and their sequence numbers — survives untouched.
      uint64_t epoch_before = cluster->ServerEpoch();
      store.SetOffline(true);
      cluster->KillServer();
      ASSERT_FALSE(cluster->ServerUp());

      // A survivor that tries to commit during the outage fails at the log
      // write and backs out cleanly: undo copies restore its image and the
      // locks release without consuming sequence numbers — the client's
      // "back off and retry later" path.
      {
        lbc::Client* blocked = clients[0].get();
        lbc::Transaction txn = blocked->Begin();
        ASSERT_TRUE(txn.Acquire(LockFor(1, 0)).ok());
        uint64_t off = rng.Uniform(kRegionSize / kLocksPerRegion - 16);
        ASSERT_TRUE(txn.SetRange(1, off, 8).ok());
        for (uint64_t b = 0; b < 8; ++b) {
          blocked->GetRegion(1)->data()[off + b] = static_cast<uint8_t>(rng.Next());
        }
        base::Status st = txn.Commit(rvm::CommitMode::kFlush);
        ASSERT_FALSE(st.ok()) << "commit must fail while the server is down";
      }

      // Power-cycle the machine: volatile store state is lost (kFlush
      // commits lose nothing), then the server reboots and rebuilds its
      // directory from the merged client logs (§3.5 at boot).
      mem.Crash(0);
      store.SetOffline(false);
      ASSERT_TRUE(cluster->RestartServer().ok());
      ASSERT_TRUE(cluster->ServerUp());
      EXPECT_EQ(epoch_before + 1, cluster->ServerEpoch());
      // The rebuilt baselines remember every sequence number the logs hold.
      for (int region = 1; region <= kRegions; ++region) {
        for (int k = 0; k < kLocksPerRegion; ++k) {
          rvm::LockId lock = LockFor(region, k);
          EXPECT_EQ(committed_per_lock[lock], cluster->BaselineSeq(lock))
              << "rebuilt baseline for lock " << lock;
        }
      }
      // Survivors notice the epoch bump and re-register their mappings and
      // applied positions; the interrupted writer retries in later steps.
      for (int s = 0; s < kClients - 1; ++s) {
        ASSERT_TRUE(clients[s]->RejoinServer().ok());
      }
    }

    if (!victim_dead && client == victim && victim_txns == kVictimTxnsBeforeDeath) {
      // Kill the victim mid-commit: it still holds the token for
      // kVictimLastLock from its previous transaction, so this commit needs
      // no lock traffic. The partition swallows the coherency broadcast —
      // the transaction is durable in the victim's log but reaches nobody.
      for (int s = 1; s < kClients; ++s) {
        fabric->PartitionOneWay(kVictim, s);
      }
      int region = kVictimLastLock / 10;
      int lock_k = static_cast<int>(kVictimLastLock % 10) - 1;
      run_txn(victim, kVictimLastLock, region, lock_k);
      victim->Disconnect();
      victim_dead = true;
      // Every survivor detects the death: the cluster merges the victim's
      // log (once), and each survivor reclaims the locks it manages.
      for (int s = 0; s < kClients - 1; ++s) {
        ASSERT_TRUE(clients[s]->OnPeerDeath(kVictim).ok());
      }
      continue;
    }

    int region = 1 + (i % kRegions);
    int lock_k = (i / kRegions) % kLocksPerRegion;
    rvm::LockId lock = LockFor(region, lock_k);
    if (!victim_dead && client == victim) {
      // The victim's second-to-last transaction parks the token it will
      // die with; its earlier ones run the normal workload.
      if (victim_txns == kVictimTxnsBeforeDeath - 1) {
        lock = kVictimLastLock;
        region = kVictimLastLock / 10;
        lock_k = static_cast<int>(kVictimLastLock % 10) - 1;
      }
      ++victim_txns;
    }
    run_txn(client, lock, region, lock_k);
  }
  if (healer.t.joinable()) {
    healer.t.join();
  }

  // Quiesce: every survivor reaches every lock's final sequence number —
  // including the victim's never-propagated commit, which only the server
  // record cache can supply.
  for (int region = 1; region <= kRegions; ++region) {
    for (int k = 0; k < kLocksPerRegion; ++k) {
      rvm::LockId lock = LockFor(region, k);
      for (int c = 0; c < kClients - 1; ++c) {
        ASSERT_TRUE(
            clients[c]->WaitForAppliedSeq(lock, committed_per_lock[lock], 60000))
            << "lock " << lock << " client " << clients[c]->node();
      }
    }
  }

  // Convergence across survivors.
  for (int region = 1; region <= kRegions; ++region) {
    const uint8_t* reference = clients[0]->GetRegion(region)->data();
    for (int c = 1; c < kClients - 1; ++c) {
      ASSERT_EQ(0,
                std::memcmp(reference, clients[c]->GetRegion(region)->data(),
                            kRegionSize))
          << "client " << clients[c]->node() << " diverged on region " << region;
    }
    result.images.emplace_back(reference, reference + kRegionSize);
  }
  result.dropped = fabric->fault_metrics().dropped.value();
  result.duplicated = fabric->fault_metrics().duplicated.value();
  result.partitioned = fabric->fault_metrics().partitioned.value();
  for (int c = 0; c < kClients - 1; ++c) {
    lbc::ClientStats stats = clients[c]->stats();
    result.min_records_fetched = std::min(result.min_records_fetched, stats.records_fetched);
    result.locks_reclaimed += stats.locks_reclaimed;
  }

  // Durability: crash everything and recover from the merged logs — every
  // node's log, the dead client's included. Finish the server's own page
  // replay first, so no late background page write lands on top of it.
  ASSERT_TRUE(cluster->DrainRecovery().ok());
  std::vector<std::string> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.push_back(rvm::LogFileName(1 + c));
  }
  clients.clear();
  mem.Crash(0);
  EXPECT_TRUE(rvm::ReplayLogsIntoDatabase(&store, logs).ok());
  for (int region = 1; region <= kRegions; ++region) {
    auto file = std::move(*store.Open(rvm::RegionFileName(region), false));
    std::vector<uint8_t> recovered(kRegionSize, 0);
    auto file_size = file->Size();
    EXPECT_TRUE(file_size.ok());
    EXPECT_TRUE(file->ReadExact(0, recovered.data(),
                                std::min<uint64_t>(*file_size, kRegionSize))
                    .ok());
    result.recovered.push_back(std::move(recovered));
  }
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, LossyPartitionedClusterConvergesAndRecovers) {
  ChaosResult run;
  RunChaosScenario(GetParam(), &run);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  // The fabric really was hostile.
  EXPECT_GT(run.dropped, 0u);
  EXPECT_GT(run.duplicated, 0u);
  EXPECT_GT(run.partitioned, 0u);
  // Token reclamation ran, and every survivor re-fetched the victim's
  // unpropagated commit from the server record cache.
  EXPECT_GT(run.locks_reclaimed, 0u);
  EXPECT_GE(run.min_records_fetched, 1u);
  // Survivors' cached images equal the crash-recovered database files.
  ASSERT_EQ(static_cast<size_t>(kRegions), run.recovered.size());
  for (int region = 0; region < kRegions; ++region) {
    EXPECT_EQ(run.images[region], run.recovered[region])
        << "recovered database diverged on region " << (region + 1);
  }
}

TEST(ChaosDeterminism, SameSeedSameFinalState) {
  ChaosResult r1;
  RunChaosScenario(0xDE7E12, &r1);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ChaosResult r2;
  RunChaosScenario(0xDE7E12, &r2);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_EQ(r1.images.size(), r2.images.size());
  for (size_t region = 0; region < r1.images.size(); ++region) {
    EXPECT_EQ(r1.images[region], r2.images[region])
        << "final image not deterministic for region " << (region + 1);
    EXPECT_EQ(r1.images[region], r1.recovered[region]);
    EXPECT_EQ(r2.images[region], r2.recovered[region]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range<uint64_t>(0, 3));

// ---------------------------------------------------------------------------
// 4. Gray-failure phase: slow link + slow disk, no false evictions
// ---------------------------------------------------------------------------

// A peer that is slow — degraded links, a laggy log disk, heartbeats arriving
// past the lease — is NOT dead. Mid-run, node 3's links pick up 1.5 ms of
// jittered delay, its log disk 2 ms per I/O, and its heartbeats stretch past
// the lease interval. The gray-aware detector must classify it suspect-slow
// (not expired), no eviction may fire while it can still commit, and the
// cluster must converge with the slow peer's transactions included. Only
// when its beats stop entirely does the detector report it — and the whole
// run must end with gray.false_evictions unchanged.
TEST(ChaosGray, SlowLinkAndSlowDiskConvergeWithoutFalseEviction) {
  constexpr rvm::RegionId kGrayRegion = 1;
  constexpr uint64_t kGrayRegionSize = 8192;
  constexpr rvm::NodeId kGrayNode = 3;  // the slow-but-alive peer
  const auto kLease = std::chrono::milliseconds(100);
  auto lock_for = [](int node) { return static_cast<rvm::LockId>(10 + node); };
  auto slice_for = [](int node) { return static_cast<uint64_t>(node - 1) * 2048; };

  store::MemStore mem;
  store::ResourceStore store(&mem);  // the slow-disk injection surface
  lbc::Cluster cluster(&store);
  cluster.SetGraySlackFactor(8);
  cluster.DefineLock(lock_for(1), kGrayRegion, 1);
  cluster.DefineLock(lock_for(2), kGrayRegion, 2);
  cluster.DefineLock(lock_for(3), kGrayRegion, 1);
  netsim::Fabric* fabric = cluster.fabric();

  // Healthy peers beat well inside the lease from their heartbeat threads;
  // the gray node's beats are driven below, slowly.
  lbc::ClientOptions fast;
  fast.heartbeat_interval_ms = 20;
  std::vector<std::unique_ptr<lbc::Client>> clients;
  clients.push_back(std::move(*lbc::Client::Create(&cluster, 1, fast)));
  clients.push_back(std::move(*lbc::Client::Create(&cluster, 2, fast)));
  clients.push_back(std::move(*lbc::Client::Create(&cluster, 3, lbc::ClientOptions{})));
  for (auto& c : clients) {
    ASSERT_TRUE(c->MapRegion(kGrayRegion, kGrayRegionSize).ok());
  }

  auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global()->CounterValue(name);
  };
  const uint64_t false_evictions_before = counter("gray.false_evictions");
  const uint64_t delays_before = counter("store.resource.delays");

  // The membership service: evict whatever the lease check reports.
  std::atomic<bool> stop_detector{false};
  std::atomic<int> evictions{0};
  std::thread detector([&] {
    while (!stop_detector.load(std::memory_order_acquire)) {
      for (rvm::NodeId node : cluster.LeaseExpired(kLease)) {
        cluster.DeclareDead(node);
        evictions.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  });

  // Seed the gray node's gap EWMA with two quick beats, then beat at 120 ms
  // — past the 100 ms lease every cycle, far inside the stretched deadline
  // (slack 8 × EWMA ≥ 320 ms and growing as the EWMA learns the slow rate).
  cluster.NoteAlive(kGrayNode);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  cluster.NoteAlive(kGrayNode);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  cluster.NoteAlive(kGrayNode);
  std::atomic<bool> stop_beats{false};
  std::thread slow_beater([&] {
    while (!stop_beats.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      cluster.NoteAlive(kGrayNode);
    }
  });

  auto commit_round = [&](int round) {
    for (int n = 1; n <= 3; ++n) {
      lbc::Client* c = clients[n - 1].get();
      lbc::Transaction txn = c->Begin();
      ASSERT_TRUE(txn.Acquire(lock_for(n)).ok());
      uint64_t off = slice_for(n) + static_cast<uint64_t>(round % 16) * 64;
      ASSERT_TRUE(txn.SetRange(kGrayRegion, off, 32).ok());
      std::memset(c->GetRegion(kGrayRegion)->data() + off,
                  static_cast<uint8_t>(n * 16 + round), 32);
      ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok())
          << "node " << n << " round " << round;
    }
  };

  // Phase 1: healthy traffic.
  int rounds = 0;
  for (; rounds < 10; ++rounds) {
    commit_round(rounds);
  }

  // Phase 2: gray injection mid-run — every link touching node 3 degrades
  // (slow, FIFO-preserving, NOT lossy: a gray link is not a partition), and
  // its log disk picks up per-I/O latency. The slow peer must keep
  // committing straight through.
  for (rvm::NodeId peer : {rvm::NodeId{1}, rvm::NodeId{2}}) {
    fabric->DegradeLink(kGrayNode, peer, 1500, 500);
    fabric->DegradeLink(peer, kGrayNode, 1500, 500);
  }
  store.InjectLatency(rvm::LogFileName(kGrayNode), 2'000'000, 500'000);
  for (; rounds < 22; ++rounds) {
    commit_round(rounds);
  }

  // The detector saw the slow peer cross its lease and held fire: it shows
  // up as suspect-slow on some poll (its beats land ~20 ms past the lease),
  // and nobody was evicted.
  bool saw_suspect = false;
  for (int spin = 0; spin < 300 && !saw_suspect; ++spin) {
    cluster.LeaseExpired(kLease);  // refreshes the suspicion set
    for (rvm::NodeId node : cluster.SuspectSlow()) {
      saw_suspect |= node == kGrayNode;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_suspect) << "slow peer never classified suspect-slow";
  EXPECT_EQ(0, evictions.load()) << "a live (slow) peer was evicted";

  // Convergence with the gray failures still active: everyone reaches every
  // lock's final sequence number and the images agree byte-for-byte —
  // the slow peer's tokens were never reclaimed, its commits all landed.
  for (int n = 1; n <= 3; ++n) {
    for (auto& c : clients) {
      ASSERT_TRUE(c->WaitForAppliedSeq(lock_for(n), static_cast<uint64_t>(rounds),
                                       60000))
          << "lock " << lock_for(n) << " client " << c->node();
    }
  }
  for (size_t i = 1; i < clients.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(clients[0]->GetRegion(kGrayRegion)->data(),
                             clients[i]->GetRegion(kGrayRegion)->data(),
                             kGrayRegionSize))
        << "client " << clients[i]->node() << " diverged";
  }

  // The injections really happened.
  EXPECT_GT(fabric->fault_metrics().degraded.value(), 0u);
  EXPECT_GT(counter("store.resource.delays"), delays_before);

  // Now the gray node goes silent for real. The stretched deadline delays
  // the verdict (by design) but cannot suppress it: with no beats at all
  // the detector eventually reports and evicts it.
  stop_beats.store(true, std::memory_order_release);
  slow_beater.join();
  for (int spin = 0; spin < 1000 && evictions.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(1, evictions.load()) << "a truly dead node must still expire";
  stop_detector.store(true, std::memory_order_release);
  detector.join();

  // Nobody beat after being declared dead: every eviction was of a node
  // that had actually stopped.
  EXPECT_EQ(false_evictions_before, counter("gray.false_evictions"));
}

// ---------------------------------------------------------------------------
// 5. Incremental-recovery chaos: restarts racing committers, scrubber, drainer
// ---------------------------------------------------------------------------

// The server machine is power-cycled twice mid-run with recovery mode set to
// incremental. Each reboot comes back serving immediately (the boot pass only
// indexes the merged logs) while three committer threads, a scrubber thread
// driving TryRepairRegion, and the cluster's own background drainer all race
// over the same store. The first reboot's drainer is deliberately frozen on
// the database mutex while committers pile up more than a dozen new commits,
// then released straight into the second kill — so the second power cut
// provably races an active drain. Afterward everything must converge: every
// client reaches every lock's final sequence number, the images agree
// byte-for-byte, a full eager replay of the untrimmed logs reproduces exactly
// those bytes, and every database page passes sidecar verification.
//
// Committer attempts are gated (not mid-flight) across the kill/reboot edge
// itself: a commit issued against a half-rebuilt directory would broadcast to
// an empty peer set by design, which is a directory-rebuild property, not the
// recovery race under test here.
TEST(ChaosRecovery, IncrementalRestartsRaceCommittersScrubberAndDrainer) {
  constexpr int kNodes = 3;
  constexpr int kRecRegions = 2;
  constexpr uint64_t kRecRegionSize = 8192;
  constexpr int kRounds = 48;           // successful commits per committer
  constexpr int kFirstKillAfter = 10;   // min successes before the first kill
  constexpr int kSecondKillAfter = 26;  // ... and before the second
  auto lock_for = [](int region, int node) {
    return static_cast<rvm::LockId>(region * 100 + node);
  };
  auto slice_for = [](int node) { return static_cast<uint64_t>(node - 1) * 2048; };

  store::MemStore mem;
  store::CrashPointStore store(&mem);
  store.SetCrashHook([&mem] { mem.Crash(0); });
  lbc::Cluster cluster(&store);
  netsim::Fabric* fabric = cluster.fabric();
  fabric->SeedFaults(0x19C1);
  netsim::LinkFaults faults;
  faults.drop_probability = 0.05;
  faults.duplicate_probability = 0.05;
  faults.delay_probability = 0.05;
  faults.delay_min_micros = 100;
  faults.delay_max_micros = 1000;
  fabric->SetDefaultFaults(faults);
  // Every node manages its own locks, so Acquire stays local and committers
  // never block on each other — only on the machinery under test.
  for (int region = 1; region <= kRecRegions; ++region) {
    for (int n = 1; n <= kNodes; ++n) {
      cluster.DefineLock(lock_for(region, n), region, static_cast<rvm::NodeId>(n));
    }
  }
  rvm::Scrubber scrubber(&store);
  cluster.SetScrubber(&scrubber);

  lbc::ClientOptions options;
  options.heartbeat_interval_ms = 20;  // fast epoch-bump detection -> rejoin
  std::vector<std::unique_ptr<lbc::Client>> clients;
  for (int n = 1; n <= kNodes; ++n) {
    clients.push_back(std::move(*lbc::Client::Create(&cluster, n, options)));
    for (int region = 1; region <= kRecRegions; ++region) {
      ASSERT_TRUE(clients.back()->MapRegion(region, kRecRegionSize).ok());
    }
  }

  auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global()->CounterValue(name);
  };
  const uint64_t lazy_before =
      counter("recovery.pages_on_demand") + counter("recovery.pages_background");

  std::atomic<bool> give_up{false};
  std::atomic<bool> gate_open{true};
  std::atomic<int> active_txns{0};
  std::atomic<uint64_t> committed[kRecRegions + 1][kNodes + 1] = {};
  std::atomic<int> progress[kNodes + 1] = {};

  auto committer = [&](int n) {
    lbc::Client* client = clients[n - 1].get();
    int round = 0;
    while (round < kRounds && !give_up.load(std::memory_order_acquire)) {
      if (!gate_open.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      active_txns.fetch_add(1, std::memory_order_acq_rel);
      int region = 1 + (round % kRecRegions);
      bool ok = false;
      {
        lbc::Transaction txn = client->Begin();
        uint64_t off = slice_for(n) + static_cast<uint64_t>(round % 16) * 64;
        if (txn.Acquire(lock_for(region, n)).ok() &&
            txn.SetRange(region, off, 48).ok()) {
          std::memset(client->GetRegion(region)->data() + off,
                      static_cast<uint8_t>(n * 32 + round), 48);
          ok = txn.Commit(rvm::CommitMode::kFlush).ok();
        }
      }
      active_txns.fetch_sub(1, std::memory_order_acq_rel);
      if (ok) {
        committed[region][n].fetch_add(1, std::memory_order_relaxed);
        progress[n].fetch_add(1, std::memory_order_release);
        ++round;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  };

  std::atomic<bool> stop_scrub{false};
  std::thread scrub_thread([&] {
    while (!stop_scrub.load(std::memory_order_acquire)) {
      for (int region = 1; region <= kRecRegions; ++region) {
        cluster.TryRepairRegion(region);  // false while offline/unrepairable
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> committers;
  struct Stopper {  // joins on every exit path, ASSERT returns included
    std::function<void()> fn;
    ~Stopper() { fn(); }
  } stopper{[&] {
    give_up.store(true, std::memory_order_release);
    stop_scrub.store(true, std::memory_order_release);
    for (std::thread& t : committers) {
      if (t.joinable()) {
        t.join();
      }
    }
    if (scrub_thread.joinable()) {
      scrub_thread.join();
    }
  }};
  for (int n = 1; n <= kNodes; ++n) {
    committers.emplace_back(committer, n);
  }

  auto wait_progress = [&](int target) {
    for (int spin = 0; spin < 60000; ++spin) {
      bool reached = true;
      for (int n = 1; n <= kNodes; ++n) {
        reached &= progress[n].load(std::memory_order_acquire) >= target;
      }
      if (reached) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  // Parks committer attempts (without interrupting one mid-flight) so the
  // power cut below tears the machine, not a half-issued commit.
  auto close_gate = [&] {
    gate_open.store(false, std::memory_order_release);
    while (active_txns.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  ASSERT_TRUE(wait_progress(kFirstKillAfter));

  // --- first power cycle: reboot serving, drainer frozen under load -------
  close_gate();
  store.SetOffline(true);
  cluster.KillServer();
  mem.Crash(0);
  store.SetOffline(false);
  {
    base::MutexLock stall(cluster.DbMutex());
    ASSERT_TRUE(cluster.RestartServer().ok());
    // Serving with every indexed page still pending: that IS the tentpole.
    EXPECT_TRUE(cluster.RecoveryActive());
    EXPECT_GT(cluster.RecoveryPendingPages(), 0u);
    // Re-register mappings before commits resume: a broadcast against the
    // still-empty directory would reach nobody, and catch-up fetches only
    // run on Acquire — a peer that never takes this lock would stay behind.
    for (auto& client : clients) {
      ASSERT_TRUE(client->RejoinServer().ok());
    }
    gate_open.store(true, std::memory_order_release);
    // Committers make real progress against a server whose recovery drain is
    // frozen on the database mutex — serving never waited for replay.
    ASSERT_TRUE(wait_progress(kSecondKillAfter));
    EXPECT_TRUE(cluster.RecoveryActive());
  }

  // --- second power cycle: the cut races the just-released drainer --------
  close_gate();
  store.SetOffline(true);
  cluster.KillServer();
  mem.Crash(0);
  store.SetOffline(false);
  {
    base::MutexLock stall(cluster.DbMutex());
    ASSERT_TRUE(cluster.RestartServer().ok());
    EXPECT_TRUE(cluster.RecoveryActive());
    for (auto& client : clients) {
      ASSERT_TRUE(client->RejoinServer().ok());
    }
    gate_open.store(true, std::memory_order_release);
  }

  for (std::thread& t : committers) {
    t.join();
  }
  stop_scrub.store(true, std::memory_order_release);
  scrub_thread.join();
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  EXPECT_FALSE(cluster.RecoveryActive());

  // Convergence: every client reaches every lock's final sequence number and
  // the images agree byte-for-byte.
  for (int region = 1; region <= kRecRegions; ++region) {
    for (int n = 1; n <= kNodes; ++n) {
      uint64_t seq = committed[region][n].load(std::memory_order_acquire);
      for (auto& client : clients) {
        ASSERT_TRUE(client->WaitForAppliedSeq(lock_for(region, n), seq, 60000))
            << "lock " << lock_for(region, n) << " client " << client->node();
      }
    }
  }
  std::vector<std::vector<uint8_t>> images;
  for (int region = 1; region <= kRecRegions; ++region) {
    const uint8_t* reference = clients[0]->GetRegion(region)->data();
    for (size_t i = 1; i < clients.size(); ++i) {
      ASSERT_EQ(0, std::memcmp(reference, clients[i]->GetRegion(region)->data(),
                               kRecRegionSize))
          << "client " << clients[i]->node() << " diverged on region " << region;
    }
    images.emplace_back(reference, reference + kRecRegionSize);
  }
  // Lazy replay really carried pages (on demand via the scrubber's repair
  // path and EnsureRegionRecovered, or in the background drain).
  EXPECT_GT(counter("recovery.pages_on_demand") +
                counter("recovery.pages_background"),
            lazy_before);

  // Durability: a clean eager replay of the untrimmed logs reproduces the
  // survivors' bytes exactly, and every page passes sidecar verification —
  // two interrupted incremental recoveries left no trace.
  clients.clear();
  std::vector<std::string> logs;
  for (int n = 1; n <= kNodes; ++n) {
    logs.push_back(rvm::LogFileName(n));
  }
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, logs).ok());
  for (int region = 1; region <= kRecRegions; ++region) {
    auto file = std::move(*store.Open(rvm::RegionFileName(region), false));
    auto file_size = file->Size();
    ASSERT_TRUE(file_size.ok());
    std::vector<uint8_t> recovered(kRecRegionSize, 0);
    ASSERT_TRUE(file->ReadExact(0, recovered.data(),
                                std::min<uint64_t>(*file_size, kRecRegionSize))
                    .ok());
    EXPECT_EQ(images[region - 1], recovered)
        << "eager replay diverged on region " << region;
    auto failed = rvm::VerifyImagePages(&store, region, recovered.data(),
                                        recovered.size(), *file_size);
    ASSERT_TRUE(failed.ok()) << failed.status().ToString();
    EXPECT_TRUE(failed->empty()) << "region " << region << " page "
                                 << (*failed)[0] << " failed verification";
  }
}

// The integrity scrubber loops full-speed in a background thread while two
// clients commit continuously. Over a single store the scrubber never writes
// to a live log (log repair needs replicas and quiesce), so this pins the
// read-side concurrency contract: scanning frame chains under active
// appends and verifying pages under an unchanging database never produces a
// false positive — and TSan gets to watch the whole interleaving. A final
// quiesced replay + scrub must come up spotless.
TEST(ChaosScrub, ScrubberRunsConcurrentlyWithCommits) {
  constexpr rvm::RegionId kScrubRegion = 1;
  constexpr rvm::LockId kLockA = 11;
  constexpr rvm::LockId kLockB = 12;
  constexpr uint64_t kScrubRegionSize = 4 * 8192;

  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLockA, kScrubRegion, 1);
  cluster.DefineLock(kLockB, kScrubRegion, 2);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
  ASSERT_TRUE(a->MapRegion(kScrubRegion, kScrubRegionSize).ok());
  ASSERT_TRUE(b->MapRegion(kScrubRegion, kScrubRegionSize).ok());

  // Each lock guards its own page, so the two clients never conflict.
  auto commit = [&](lbc::Client* c, rvm::LockId lock, uint64_t off, uint8_t v) {
    lbc::Transaction txn = c->Begin();
    ASSERT_TRUE(txn.Acquire(lock).ok());
    ASSERT_TRUE(txn.SetRange(kScrubRegion, off, 64).ok());
    std::memset(c->GetRegion(kScrubRegion)->data() + off, v, 64);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
  };
  // Seed the database file + checksum sidecar so the page scrub has work.
  commit(a.get(), kLockA, 0, 1);
  commit(b.get(), kLockB, 8192, 2);
  ASSERT_TRUE(
      cluster.ReplayAndRecordBaselines({rvm::LogFileName(1), rvm::LogFileName(2)})
          .ok());

  rvm::Scrubber scrubber(&store);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrubs{0};
  std::thread scrub_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto report = scrubber.ScrubOnce();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(0u, report->page_mismatches);
      EXPECT_EQ(0u, report->log_corruptions);
      EXPECT_EQ(0u, report->unrepairable);
      scrubs.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Commit until the scrubber has demonstrably overlapped the write load
  // (at least two full passes), with a floor so fast hosts still get a real
  // workload and a generous ceiling so a starved scrub thread on a loaded
  // single-core machine ends the test rather than hanging it.
  for (int i = 0; i < 150 || (scrubs.load(std::memory_order_relaxed) < 2 &&
                              i < 200000);
       ++i) {
    commit(a.get(), kLockA, static_cast<uint64_t>(i % 64) * 100,
           static_cast<uint8_t>(i));
    commit(b.get(), kLockB, 8192 + static_cast<uint64_t>(i % 64) * 100,
           static_cast<uint8_t>(i + 1));
  }
  stop.store(true, std::memory_order_release);
  scrub_thread.join();
  EXPECT_GE(scrubs.load(std::memory_order_relaxed), 1u);

  // Quiesce, fold the logs into the database, and verify end state.
  a.reset();
  b.reset();
  ASSERT_TRUE(
      cluster.ReplayAndRecordBaselines({rvm::LogFileName(1), rvm::LogFileName(2)})
          .ok());
  auto final_report = scrubber.ScrubOnce();
  ASSERT_TRUE(final_report.ok());
  EXPECT_TRUE(final_report->clean());
  EXPECT_GE(final_report->log_records_scanned, 2u);
}

}  // namespace
