// hot-lock: nodes 1-4 each run one driver thread, all contending for one
// lock over one region. Each transaction acquires the lock, declares 16
// eight-byte ranges at seeded random offsets in a 64 KB hot area, writes
// seeded values there and commits. Log-file ops carry a fixed simulated
// latency. The token moves on nearly every transaction, so the lock
// protocol and the §3.4 interlock gate every acquire.
//
// op   = Acquire call -> return (token transfer + interlock wait).
// done = Acquire call -> Commit return (the whole transaction).
#include <atomic>
#include <cstring>
#include <thread>

#include "perfbench/common.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/lbc/online_trim.h"

namespace perfbench {
namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 1;
constexpr int kNodes = 4;
constexpr uint64_t kRegionSize = 64 * 1024;
constexpr int kRangesPerTxn = 16;
// Every log-file op: the simulated disk of the repository's group-commit
// benchmark (bench/update_sweep.h).
constexpr uint64_t kLogLatencyNanos = 100'000;
constexpr int kQuiesceTimeoutMs = 30000;
// Node 1's driver checkpoints the logs (OnlineTrim) every this many of its
// own transactions. Not taken from a measured system: the simulated disk's
// Sync copies the whole log file, so unbounded logs would slow every commit
// as the run goes on, and this is rare enough that the acquires a checkpoint
// stalls stay well under 1% of the samples.
constexpr uint64_t kCheckpointEvery = 1000;

class HotLock : public Workload {
 public:
  explicit HotLock(uint64_t seed) : seed_(seed) {}

  std::string OpName() const override {
    return "Acquire call -> return (token transfer + interlock wait)";
  }
  std::string DoneName() const override { return "Acquire call -> Commit return"; }
  // Beyond p99 the samples are whole-system pauses from outside the process
  // (every driver stalls at once), whose count varies from run to run; p95
  // measures the queueing behind the other nodes' transactions.
  double TailPercentile() const override { return 95; }
  std::string Describe() const override {
    return "4 nodes x 1 driver thread on one lock, 16 x 8-byte SetRange per txn in a 64 KB "
           "region, log-file ops +" + std::to_string(kLogLatencyNanos / 1000) +
           " us (ResourceStore over MemStore), OnlineTrim every " +
           std::to_string(kCheckpointEvery) + " node-1 txns";
  }

  // Maps the region at every node, then each node in turn commits a seeded
  // initial image of its quarter of the region, and a checkpoint writes the
  // result to the database file: the run starts from loaded data and an
  // empty log. The loading goes through the simulated disk.
  void Setup() override {
    world_ = std::make_unique<World>(seed_);
    world_->resource.InjectLatency("log_", kLogLatencyNanos, 0);
    world_->cluster.DefineLock(kLock, kRegion, /*manager=*/1);
    for (int node = 1; node <= kNodes; ++node) {
      LBC_CHECK_OK(world_->AddClient(node)->MapRegion(kRegion, kRegionSize).status());
      rngs_[node - 1] = base::Rng(seed_ * 0x100000001B3ull + static_cast<uint64_t>(node));
    }
    constexpr uint64_t kQuarter = kRegionSize / kNodes;
    for (int i = 0; i < kNodes; ++i) {
      lbc::Client* client = world_->client(i);
      lbc::Transaction txn = client->Begin(rvm::RestoreMode::kNoRestore);
      LBC_CHECK_OK(txn.Acquire(kLock));
      LBC_CHECK_OK(txn.SetRange(kRegion, kQuarter * i, kQuarter));
      uint8_t* data = client->GetRegion(kRegion)->data() + kQuarter * i;
      for (uint64_t k = 0; k < kQuarter; k += 8) {
        const uint64_t value = rngs_[i].Next();
        std::memcpy(data + k, &value, 8);
      }
      LBC_CHECK_OK(txn.Commit(rvm::CommitMode::kFlush));
    }
    LBC_CHECK_OK(Checkpoint());
  }

  void Teardown() override { world_.reset(); }

  Samples Run(double seconds) override {
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::atomic<bool> failed{false};
    Samples per_node[kNodes];
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < kNodes; ++i) {
        threads.emplace_back([this, i, deadline, &failed, &per_node] {
          Samples& s = per_node[i];
          uint64_t txns = 0;
          while (NowNs() < deadline && !failed.load()) {
            if (i == 0 && ++txns % kCheckpointEvery == 0) {
              s.Count(Checkpoint());
            }
            if (!RunOne(i, &s)) {
              failed = true;
            }
          }
        });
      }
    }
    Samples s;
    for (const Samples& n : per_node) {
      s.Merge(n);
    }
    s.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    return s;
  }

  void Check(std::vector<std::string>* problems) override {
    uint64_t last = 0;
    for (auto& c : world_->clients) {
      last = std::max(last, c->AppliedSeq(kLock));
    }
    for (auto& c : world_->clients) {
      if (!c->WaitForAppliedSeq(kLock, last, kQuiesceTimeoutMs)) {
        problems->push_back("hot-lock node " + std::to_string(c->node()) +
                            " never applied seq " + std::to_string(last));
      }
    }
    const uint8_t* expected = world_->client(0)->GetRegion(kRegion)->data();
    for (int i = 1; i < kNodes; ++i) {
      CheckEqual("hot-lock node " + std::to_string(i + 1) + " cache vs node 1", expected,
                 world_->client(i)->GetRegion(kRegion)->data(), kRegionSize, problems);
    }
    // The merged logs replayed into the database file must give the same
    // image: the §3.5 merge order agrees with what every node applied.
    Samples s;
    s.Count(Checkpoint());
    problems->insert(problems->end(), s.problems.begin(), s.problems.end());
    const std::vector<uint8_t> file = world_->ReadRegionFile(kRegion, kRegionSize);
    CheckEqual("hot-lock database file after checkpoint vs node 1", expected, file.data(),
               kRegionSize, problems);
  }

  World* world() override { return world_.get(); }

 private:
  // One transaction on node i+1; false when an operation failed.
  bool RunOne(int i, Samples* s) {
    const rvm::NodeId node = static_cast<rvm::NodeId>(i + 1);
    lbc::Client* client = world_->client(i);
    base::Rng& rng = rngs_[i];
    ScopedSpan txn_span("txn", node);
    const uint64_t t0 = NowNs();
    lbc::Transaction txn = client->Begin(rvm::RestoreMode::kNoRestore);
    {
      ScopedSpan span("lbc.acquire", node);
      if (!s->Count(txn.Acquire(kLock))) {
        return false;
      }
    }
    const uint64_t t1 = NowNs();
    uint64_t offsets[kRangesPerTxn];
    uint64_t values[kRangesPerTxn];
    for (int k = 0; k < kRangesPerTxn; ++k) {
      offsets[k] = rng.Uniform(kRegionSize / 8) * 8;
      values[k] = rng.Next();
    }
    base::Status declared;
    {
      ScopedSpan span("lbc.set_range", node, kRangesPerTxn);
      for (int k = 0; k < kRangesPerTxn && declared.ok(); ++k) {
        declared = txn.SetRange(kRegion, offsets[k], 8);
      }
    }
    if (!s->Count(declared)) {
      return false;
    }
    uint8_t* data = client->GetRegion(kRegion)->data();
    for (int k = 0; k < kRangesPerTxn; ++k) {
      std::memcpy(data + offsets[k], &values[k], 8);
    }
    base::Status committed;
    {
      ScopedSpan span("lbc.commit", node);
      committed = txn.Commit(rvm::CommitMode::kFlush);
    }
    const uint64_t t2 = NowNs();
    if (!s->Count(committed)) {
      return false;
    }
    txn_span.set_seq(client->AppliedSeq(kLock));
    s->Record(t0, t1 - t0, t2 - t0);
    return true;
  }

  base::Status Checkpoint() {
    std::vector<lbc::Client*> clients;
    for (auto& c : world_->clients) {
      clients.push_back(c.get());
    }
    ScopedSpan span("cluster.checkpoint", 1);
    return lbc::OnlineTrim(&world_->cluster, world_->client(0), clients);
  }

  uint64_t seed_;
  base::Rng rngs_[kNodes] = {base::Rng(0), base::Rng(0), base::Rng(0), base::Rng(0)};
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> MakeHotLock(uint64_t seed) { return std::make_unique<HotLock>(seed); }

}  // namespace perfbench
