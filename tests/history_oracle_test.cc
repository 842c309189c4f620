// History oracle for the eager policy: what every transaction read, checked
// against the §3.4 order.
//
// Four nodes read-modify-write tagged slots, one slot per lock: a hot lock
// every node contends for, and a lock pair that some transactions take
// together. Each transaction writes into the slot of every lock it holds
// its own tag — (writer, commit_seq, lock sequence) — next to the tag it
// read there. The fabric delays a seeded share of messages past later ones,
// so an update often arrives after the token that follows it from another
// node, and the acquire-side interlock has to wait. Midway one node commits, is ordered (broadcast, token passed) and
// dies before its log force; the survivors reclaim and go on. Then:
//
//   * every acquire at lock sequence s read the tag written at s-1 (each
//     logged transaction's read tag names the record the merged history
//     puts at s-1 on that lock);
//   * the §3.4 merged log of every node's log, the dead node's included, is
//     gap-free per lock: each lock's sequences are exactly 1..n;
//   * it replays to the survivors' images, and so does the cluster's
//     incremental recovery after a server restart.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <thread>

#include "src/base/rng.h"
#include "src/lbc/client.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"
#include "tests/replay_reference.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr uint64_t kRegionSize = 8192;
constexpr rvm::LockId kHot = 1;
constexpr rvm::LockId kPairA = 2;
constexpr rvm::LockId kPairB = 3;
constexpr int kNodes = 4;
constexpr rvm::NodeId kVictim = 4;
constexpr int kTxnsPerPhase = 60;

// A slot: the tag written by the last holder, then the tag it read.
struct Tag {
  uint64_t writer = 0;
  uint64_t commit_seq = 0;
  uint64_t lock_seq = 0;
  bool operator==(const Tag&) const = default;
};
struct Slot {
  Tag written;
  Tag read;
};
constexpr uint64_t SlotOffset(rvm::LockId lock) { return lock * 64; }

// One node's driver: its transactions, with the commit_seq each will get
// (this thread is its node's only committer).
class Driver {
 public:
  Driver(lbc::Client* client, uint64_t seed) : client_(client), rng_(seed) {}

  base::Status RunOne(bool pair) {
    lbc::Transaction txn = client_->Begin(rvm::RestoreMode::kNoRestore);
    std::vector<rvm::LockId> locks =
        pair ? std::vector<rvm::LockId>{kPairA, kPairB} : std::vector<rvm::LockId>{kHot};
    const uint64_t commit_seq = ++commits_;
    for (rvm::LockId lock : locks) {
      RETURN_IF_ERROR(txn.Acquire(lock));
    }
    uint8_t* image = client_->GetRegion(kRegion)->data();
    for (rvm::LockId lock : locks) {
      Slot slot;
      std::memcpy(&slot, image + SlotOffset(lock), sizeof(slot));
      RETURN_IF_ERROR(txn.SetRange(kRegion, SlotOffset(lock), sizeof(Slot)));
      Slot next;
      next.read = slot.written;
      // The holder's own view of its sequence: one past what it read.
      next.written = Tag{client_->node(), commit_seq, slot.written.lock_seq + 1};
      std::memcpy(image + SlotOffset(lock), &next, sizeof(next));
    }
    return txn.Commit(rvm::CommitMode::kFlush);
  }

  base::Status RunPhase(int txns) {
    for (int i = 0; i < txns; ++i) {
      RETURN_IF_ERROR(RunOne(rng_.Chance(1, 3)));
    }
    return base::OkStatus();
  }

 private:
  lbc::Client* client_;
  base::Rng rng_;
  uint64_t commits_ = 0;
};

std::vector<std::string> AllLogs() {
  std::vector<std::string> logs;
  for (int n = 1; n <= kNodes; ++n) {
    logs.push_back(rvm::LogFileName(n));
  }
  return logs;
}

// The oracle over the merged history of every log.
// Every log's records, one line each, for a failure message.
std::string DumpLogs(store::DurableStore* store) {
  std::string out;
  for (const std::string& name : AllLogs()) {
    auto txns = rvm::ReadLogTransactions(store, name);
    out += name + ":\n";
    for (const auto& txn : txns.ok() ? *txns : std::vector<rvm::TransactionRecord>{}) {
      out += "  (" + std::to_string(txn.node) + "," + std::to_string(txn.commit_seq) + ")";
      for (const auto& lr : txn.locks) {
        out += " L" + std::to_string(lr.lock_id) + "=" + std::to_string(lr.sequence);
      }
      out += "\n";
    }
  }
  return out;
}

void CheckHistory(store::DurableStore* store) {
  auto merged = rvm::MergeLogs(store, AllLogs());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString() << "\n" << DumpLogs(store);
  // Per lock, the tag each sequence wrote, in merged order.
  std::map<rvm::LockId, std::vector<Tag>> written;
  for (const rvm::TransactionRecord& txn : *merged) {
    for (const rvm::LockRecord& lr : txn.locks) {
      std::vector<Tag>& chain = written[lr.lock_id];
      ASSERT_EQ(chain.size() + 1, lr.sequence)
          << "lock " << lr.lock_id << ": sequence " << lr.sequence << " follows "
          << chain.size() << " in the merged log (a gap or a repeat)";
      std::optional<rvm::RangeImage> range;
      for (const rvm::RangeImage& r : txn.ranges) {
        if (r.offset == SlotOffset(lr.lock_id) && r.data.size() == sizeof(Slot)) {
          range = r;
        }
      }
      ASSERT_TRUE(range.has_value());
      Slot slot;
      std::memcpy(&slot, range->data.data(), sizeof(slot));
      EXPECT_EQ((Tag{txn.node, txn.commit_seq, lr.sequence}), slot.written)
          << "lock " << lr.lock_id << " seq " << lr.sequence
          << ": the writer's tag disagrees with its log record";
      const Tag expected_read = chain.empty() ? Tag{} : chain.back();
      EXPECT_EQ(expected_read, slot.read)
          << "lock " << lr.lock_id << ": the acquire at sequence " << lr.sequence
          << " (node " << txn.node << ") read the tag of (" << slot.read.writer << ", "
          << slot.read.commit_seq << ", seq " << slot.read.lock_seq
          << ") instead of the one written at " << lr.sequence - 1;
      chain.push_back(slot.written);
    }
  }
}

void RunOracle(uint64_t seed) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kHot, kRegion, 1);
  cluster.DefineLock(kPairA, kRegion, 2);
  cluster.DefineLock(kPairB, kRegion, 3);
  // Seeded delays that let a message overtake earlier ones: an update can
  // reach a node after the token that follows it from another node.
  cluster.fabric()->SeedFaults(seed);
  netsim::LinkFaults faults;
  faults.delay_probability = 0.3;
  faults.delay_min_micros = 50;
  faults.delay_max_micros = 1500;
  cluster.fabric()->SetDefaultFaults(faults);
  std::vector<std::unique_ptr<lbc::Client>> clients;
  std::vector<Driver> drivers;
  for (rvm::NodeId n = 1; n <= kNodes; ++n) {
    clients.push_back(std::move(*lbc::Client::Create(&cluster, n, lbc::ClientOptions{})));
    ASSERT_TRUE(clients.back()->MapRegion(kRegion, kRegionSize).ok());
  }
  for (int i = 0; i < kNodes; ++i) {
    drivers.emplace_back(clients[i].get(), seed * 131 + static_cast<uint64_t>(i));
  }
  auto run_phase = [&](int nodes) {
    std::vector<base::Status> results(nodes);
    std::vector<std::thread> threads;
    for (int i = 0; i < nodes; ++i) {
      threads.emplace_back([&, i] { results[i] = drivers[i].RunPhase(kTxnsPerPhase); });
    }
    for (auto& t : threads) {
      t.join();
    }
    for (int i = 0; i < nodes; ++i) {
      EXPECT_TRUE(results[i].ok()) << "node " << i + 1 << ": " << results[i].ToString();
    }
  };

  // Phase 1: everyone.
  run_phase(kNodes);

  // The victim's last commit is ordered — broadcast, token passed — and it
  // dies before the force.
  lbc::Client* victim = clients[kVictim - 1].get();
  const uint64_t victim_seq = victim->AppliedSeq(kHot);
  victim->rvm()->HoldCommitPipeline();
  std::thread last([&] { base::IgnoreError(drivers[kVictim - 1].RunOne(/*pair=*/false)); });
  struct Joiner {
    std::thread* t;
    lbc::Client* victim;
    ~Joiner() {
      if (t->joinable()) {  // an ASSERT returned early
        base::IgnoreError(victim->rvm()->ReleaseCommitPipeline());
        t->join();
      }
    }
  } joiner{&last, victim};
  // Its commit hook has broadcast and released the lock once its own
  // applied sequence moves; then wait for the survivors to apply it too.
  while (victim->rvm()->PendingCommitCount() < 1 || victim->AppliedSeq(kHot) == victim_seq) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int i = 0; i < kNodes - 1; ++i) {
    ASSERT_TRUE(clients[i]->WaitForAppliedSeq(kHot, victim->AppliedSeq(kHot), 10000));
  }
  victim->Disconnect();
  for (int i = 0; i < kNodes - 1; ++i) {
    ASSERT_TRUE(clients[i]->OnPeerDeath(kVictim).ok());
  }

  // Phase 2: the survivors.
  run_phase(kNodes - 1);
  for (rvm::LockId lock : {kHot, kPairA, kPairB}) {
    uint64_t last_seq = 0;
    for (int i = 0; i < kNodes - 1; ++i) {
      last_seq = std::max(last_seq, clients[i]->AppliedSeq(lock));
    }
    for (int i = 0; i < kNodes - 1; ++i) {
      ASSERT_TRUE(clients[i]->WaitForAppliedSeq(lock, last_seq, 10000));
    }
  }
  std::vector<uint8_t> image(clients[0]->GetRegion(kRegion)->data(),
                             clients[0]->GetRegion(kRegion)->data() + kRegionSize);
  for (int i = 1; i < kNodes - 1; ++i) {
    ASSERT_EQ(0, std::memcmp(image.data(), clients[i]->GetRegion(kRegion)->data(),
                             kRegionSize))
        << "survivor " << i + 1 << " diverged";
  }

  // The dead node's force never ran: its record lives in the survivors'
  // logs only.
  CheckHistory(&store);
  auto reference = replay_reference::ReferenceImages(
      &store, AllLogs(), replay_reference::CurrentImages(&store, {kRegion}));
  EXPECT_EQ(image, replay_reference::Prefix(reference[kRegion], kRegionSize))
      << "the merged log does not replay to the survivors' image";

  // Incremental recovery: restart the server over the logs and drain.
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  cluster.KillServer();
  ASSERT_TRUE(cluster.RestartServer().ok());
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  EXPECT_EQ(image, replay_reference::Prefix(
                       replay_reference::ReadWholeFile(&store, rvm::RegionFileName(kRegion)),
                       kRegionSize))
      << "incremental recovery does not replay to the survivors' image";

  // Let the victim's parked force finish before its client goes away.
  ASSERT_TRUE(victim->rvm()->ReleaseCommitPipeline().ok());
  last.join();
}

class HistoryOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryOracle, AcquiresReadTheirPredecessorAndTheMergedLogReplays) {
  RunOracle(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryOracle, ::testing::Range<uint64_t>(1, 6));

}  // namespace
