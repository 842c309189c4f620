// commit-pressure: node 1 runs 3 committer threads on disjoint locks, each
// owning one slice of the region; every transaction writes one 8-byte range.
// Node 2 maps the region. A 4th thread checkpoints the logs through
// lbc::OnlineTrim on a fixed schedule. Log-file ops carry the same simulated
// latency as hot-lock. Group-commit batching and the store's append and sync
// dominate; tokens stay on node 1, so the lock protocol is bypassed. The
// checkpoint stall shows in the tail.
//
// op   = Acquire call -> Commit return at the committer (the transaction;
//        the acquire is local and takes microseconds unless a checkpoint
//        holds the lock).
// done = Acquire call -> update applied at node 2.
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
constexpr int kCommitters = 3;
constexpr uint64_t kSliceSize = 64 * 1024;
constexpr uint64_t kRegionSize = kSliceSize * kCommitters;
// Every log-file op: the simulated disk of the repository's group-commit
// benchmark (bench/update_sweep.h).
constexpr uint64_t kLogLatencyNanos = 100'000;
// The checkpoint thread's period. Not taken from a measured system: short
// enough that the logs stay short (the simulated disk's Sync copies the
// whole log file) and that a 20 s run sees ~200 checkpoints, so the stall
// they cause shows in the tail the same way in every run.
constexpr uint64_t kCheckpointPeriodNanos = 100'000'000;
constexpr int kVisibleTimeoutMs = 30000;

rvm::LockId LockFor(int committer) { return static_cast<rvm::LockId>(committer + 1); }

class CommitPressure : public Workload {
 public:
  explicit CommitPressure(uint64_t seed) : seed_(seed) {}

  std::string OpName() const override { return "Acquire call -> Commit return at the committer"; }
  std::string DoneName() const override { return "Acquire call -> update applied at node 2"; }
  double TailPercentile() const override { return 99; }
  std::string Describe() const override {
    return "node 1: 3 committers on disjoint locks/slices, 1 x 8-byte range per txn; node 2 "
           "receives; OnlineTrim every " + std::to_string(kCheckpointPeriodNanos / 1000000) +
           " ms from a 4th thread; log-file ops +" + std::to_string(kLogLatencyNanos / 1000) +
           " us (ResourceStore over MemStore)";
  }

  // Maps the region at both nodes, then node 1 commits a seeded initial
  // image of every slice and a checkpoint writes it to the database file:
  // the run starts from loaded data and empty logs. The loading goes through
  // the simulated disk.
  void Setup() override {
    world_ = std::make_unique<World>(seed_);
    world_->resource.InjectLatency("log_", kLogLatencyNanos, 0);
    for (int j = 0; j < kCommitters; ++j) {
      world_->cluster.DefineLock(LockFor(j), kRegion, /*manager=*/1);
      rngs_[j] = base::Rng(seed_ * 0x100000001B3ull + static_cast<uint64_t>(j));
    }
    for (rvm::NodeId node : {1, 2}) {
      LBC_CHECK_OK(world_->AddClient(node)->MapRegion(kRegion, kRegionSize).status());
    }
    lbc::Client* writer = world_->client(0);
    for (int j = 0; j < kCommitters; ++j) {
      lbc::Transaction txn = writer->Begin(rvm::RestoreMode::kNoRestore);
      LBC_CHECK_OK(txn.Acquire(LockFor(j)));
      LBC_CHECK_OK(txn.SetRange(kRegion, kSliceSize * j, kSliceSize));
      uint8_t* data = writer->GetRegion(kRegion)->data() + kSliceSize * j;
      for (uint64_t k = 0; k < kSliceSize; k += 8) {
        const uint64_t value = rngs_[j].Next();
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
    Samples per_thread[kCommitters + 1];
    {
      std::vector<std::jthread> threads;
      for (int j = 0; j < kCommitters; ++j) {
        threads.emplace_back([this, j, deadline, &failed, &per_thread] {
          while (NowNs() < deadline && !failed.load()) {
            if (!RunOne(j, &per_thread[j])) {
              failed = true;
            }
          }
        });
      }
      threads.emplace_back([this, start, deadline, &failed, &per_thread] {
        Samples& s = per_thread[kCommitters];
        for (uint64_t next = start + kCheckpointPeriodNanos; next < deadline && !failed.load();
             next += kCheckpointPeriodNanos) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(next - std::min(next, NowNs())));
          s.Count(Checkpoint());
        }
      });
    }
    Samples s;
    for (const Samples& t : per_thread) {
      s.Merge(t);
    }
    s.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    return s;
  }

  void Check(std::vector<std::string>* problems) override {
    lbc::Client* writer = world_->client(0);
    lbc::Client* peer = world_->client(1);
    for (int j = 0; j < kCommitters; ++j) {
      const uint64_t last = writer->AppliedSeq(LockFor(j));
      if (!peer->WaitForAppliedSeq(LockFor(j), last, kVisibleTimeoutMs)) {
        problems->push_back("commit-pressure node 2 never applied lock " +
                            std::to_string(LockFor(j)) + " seq " + std::to_string(last));
      }
    }
    const uint8_t* expected = writer->GetRegion(kRegion)->data();
    CheckEqual("commit-pressure node 2 cache vs node 1", expected,
               peer->GetRegion(kRegion)->data(), kRegionSize, problems);
    Samples s;
    s.Count(Checkpoint());
    problems->insert(problems->end(), s.problems.begin(), s.problems.end());
    const std::vector<uint8_t> file = world_->ReadRegionFile(kRegion, kRegionSize);
    CheckEqual("commit-pressure database file after checkpoint vs node 1", expected,
               file.data(), kRegionSize, problems);
  }

  World* world() override { return world_.get(); }

 private:
  bool RunOne(int j, Samples* s) {
    lbc::Client* writer = world_->client(0);
    const rvm::LockId lock = LockFor(j);
    const uint64_t offset = kSliceSize * static_cast<uint64_t>(j) +
                            rngs_[j].Uniform(kSliceSize / 8) * 8;
    const uint64_t value = rngs_[j].Next();
    uint64_t c0 = 0;
    uint64_t c1 = 0;
    uint64_t seq = 0;
    {
      ScopedSpan txn_span("txn", 1);
      c0 = NowNs();
      lbc::Transaction txn = writer->Begin(rvm::RestoreMode::kNoRestore);
      {
        ScopedSpan span("lbc.acquire", 1);
        if (!s->Count(txn.Acquire(lock))) {
          return false;
        }
      }
      base::Status declared;
      {
        ScopedSpan span("lbc.set_range", 1);
        declared = txn.SetRange(kRegion, offset, 8);
      }
      if (!s->Count(declared)) {
        return false;
      }
      std::memcpy(writer->GetRegion(kRegion)->data() + offset, &value, 8);
      base::Status committed;
      {
        ScopedSpan span("lbc.commit", 1);
        committed = txn.Commit(rvm::CommitMode::kFlush);
      }
      c1 = NowNs();
      if (!s->Count(committed)) {
        return false;
      }
      seq = writer->AppliedSeq(lock);
      txn_span.set_seq(seq);
    }
    bool visible = false;
    {
      ScopedSpan span("lbc.propagate", 1);
      span.set_seq(seq);
      visible = world_->client(1)->WaitForAppliedSeq(lock, seq, kVisibleTimeoutMs);
    }
    const uint64_t c2 = NowNs();
    if (!s->Count(visible ? base::OkStatus()
                          : base::DeadlineExceeded("commit not visible at node 2"))) {
      return false;
    }
    s->Record(c0, c1 - c0, c2 - c0);
    return true;
  }

  base::Status Checkpoint() {
    std::vector<lbc::Client*> clients = {world_->client(0), world_->client(1)};
    ScopedSpan span("cluster.checkpoint", 1);
    return lbc::OnlineTrim(&world_->cluster, world_->client(0), clients);
  }

  uint64_t seed_;
  base::Rng rngs_[kCommitters] = {base::Rng(0), base::Rng(0), base::Rng(0)};
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> MakeCommitPressure(uint64_t seed) {
  return std::make_unique<CommitPressure>(seed);
}

}  // namespace perfbench
