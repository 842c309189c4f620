// oo7-fanout: node 1 runs OO7 T2-B at paper scale as one transaction per
// iteration (43 740 eight-byte SetRanges over 495 pages); nodes 2-4 map the
// region and receive every commit eagerly. MemStore with no injected
// latency. Detect, gather/encode, wire encode/decode, fan-out and receiver
// apply sit on the critical path; the lock protocol and the store idle.
//
// The work is CPU-bound, so it is timed in CPU time, which does not count
// the time the host or the other threads take the processor away, and each
// iteration also runs the ReferenceKernel, by which the driver rescales the
// times (see common.h):
// op   = the writer thread's CPU time from its first SetRange call to the
//        return of Commit (declare + commit).
// done = the CPU time of every thread of the process over the same start
//        until every peer's AppliedSeq reaches the commit's seq (declare,
//        commit, fan-out, receive, decode and apply at 3 peers).
#include <cstring>
#include <utility>

#include "perfbench/common.h"
#include "src/base/logging.h"
#include "src/lbc/online_trim.h"
#include "src/oo7/database.h"
#include "src/oo7/traversals.h"

namespace perfbench {
namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 1;
constexpr int kNodes = 4;
// Checkpoint the log every this many commits, outside the timed loop. Not
// taken from a measured system: the simulated disk's Sync copies the whole
// log file, so a long log would make every commit slower as the run goes on;
// a short one keeps each commit's work the same from the first iteration to
// the last.
constexpr uint64_t kCheckpointEvery = 4;
constexpr int kVisibleTimeoutMs = 30000;

// Records the traversal's SetRange declarations so the driver can issue
// them as one batch inside one span (transactions run kNoRestore, so the
// declarations need not precede the stores).
class RecordingSink : public oo7::UpdateSink {
 public:
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    ranges.emplace_back(offset, len);
    return base::OkStatus();
  }
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
};

class Oo7Fanout : public Workload {
 public:
  explicit Oo7Fanout(uint64_t seed) : seed_(seed) {
    config_.seed ^= seed * 0x9E3779B97F4A7C15ull;
  }

  std::string OpName() const override {
    return "writer thread CPU time, first SetRange -> Commit return";
  }
  std::string DoneName() const override {
    return "all threads' CPU time, first SetRange -> update applied at all 3 peers";
  }
  bool TimesCpu() const override { return true; }
  double TailPercentile() const override { return 95; }
  std::string Describe() const override {
    return "OO7 T2-B paper scale (oo7 seed " + std::to_string(config_.seed) +
           "), 1 writer + 3 eager receivers, MemStore without injected latency, "
           "OnlineTrim every " + std::to_string(kCheckpointEvery) +
           " commits outside the timed loop";
  }

  void Setup() override {
    world_ = std::make_unique<World>(seed_);
    db_size_ = oo7::Database::RequiredSize(config_);
    {
      std::vector<uint8_t> image(db_size_, 0);
      LBC_CHECK_OK(oo7::Database::Build(image.data(), image.size(), config_));
      auto file = std::move(*world_->mem.Open(rvm::RegionFileName(kRegion), true));
      LBC_CHECK_OK(file->Write(0, base::ByteSpan(image.data(), image.size())));
      LBC_CHECK_OK(file->Sync());
    }
    world_->cluster.DefineLock(kLock, kRegion, /*manager=*/1);
    for (int node = 1; node <= kNodes; ++node) {
      LBC_CHECK_OK(world_->AddClient(node)->MapRegion(kRegion, db_size_).status());
    }
    since_checkpoint_ = 0;
    sink_.ranges.reserve(1 << 16);
  }

  void Teardown() override { world_.reset(); }

  Samples Run(double seconds) override {
    Samples s;
    const uint64_t start = NowNs();
    uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t paused = 0;
    process_cpu_.ListThreads();
    while (NowNs() < deadline && s.failed == 0) {
      // Checkpoint before, not after, an iteration: the log then always
      // holds the latest commits for the wire timings.
      if (since_checkpoint_ >= kCheckpointEvery) {
        const uint64_t p0 = NowNs();
        Checkpoint(&s);
        const uint64_t took = NowNs() - p0;
        paused += took;
        deadline += took;
      }
      RunOne(&s);
      ++since_checkpoint_;
    }
    s.elapsed_s = static_cast<double>(NowNs() - start - paused) / 1e9;
    return s;
  }

  void Check(std::vector<std::string>* problems) override {
    lbc::Client* writer = world_->client(0);
    const uint8_t* expected = writer->GetRegion(kRegion)->data();
    for (int i = 1; i < kNodes; ++i) {
      CheckEqual("oo7-fanout node " + std::to_string(i + 1) + " cache vs writer", expected,
                 world_->client(i)->GetRegion(kRegion)->data(), db_size_, problems);
    }
    if (!oo7::Database(writer->GetRegion(kRegion)->data()).CheckHeader().ok()) {
      problems->push_back("oo7-fanout: database header damaged");
    }
    Samples s;
    Checkpoint(&s);
    problems->insert(problems->end(), s.problems.begin(), s.problems.end());
    const std::vector<uint8_t> file = world_->ReadRegionFile(kRegion, db_size_);
    CheckEqual("oo7-fanout database file after checkpoint vs writer", expected, file.data(),
               db_size_, problems);
  }

  World* world() override { return world_.get(); }

 private:
  void RunOne(Samples* s) {
    s->ref_ms.push_back(ReferenceKernel::Get().RunCpuMs());
    lbc::Client* writer = world_->client(0);
    oo7::Database db(writer->GetRegion(kRegion)->data());
    uint64_t start = 0;
    uint64_t writer_cpu0 = 0;
    uint64_t writer_cpu1 = 0;
    uint64_t all_cpu0 = 0;
    uint64_t seq = 0;
    {
      ScopedSpan txn_span("txn", 1);
      lbc::Transaction txn = writer->Begin(rvm::RestoreMode::kNoRestore);
      {
        ScopedSpan span("lbc.acquire", 1);
        if (!s->Count(txn.Acquire(kLock))) {
          return;
        }
      }
      sink_.ranges.clear();
      oo7::TraversalResult result;
      {
        ScopedSpan span("oo7.traverse", 1);
        result = oo7::RunT2(db, sink_, oo7::Variant::kB);
      }
      if (!s->Count(result.status)) {
        return;
      }
      base::Status declared;
      start = NowNs();
      all_cpu0 = process_cpu_.NowNs();
      writer_cpu0 = ThreadCpuNs();
      {
        ScopedSpan span("lbc.set_range", 1, sink_.ranges.size());
        for (const auto& [offset, len] : sink_.ranges) {
          declared = txn.SetRange(kRegion, offset, len);
          if (!declared.ok()) {
            break;
          }
        }
      }
      if (!s->Count(declared)) {
        return;
      }
      base::Status committed;
      {
        ScopedSpan span("lbc.commit", 1);
        committed = txn.Commit(rvm::CommitMode::kFlush);
      }
      writer_cpu1 = ThreadCpuNs();
      if (!s->Count(committed)) {
        return;
      }
      seq = writer->AppliedSeq(kLock);
      txn_span.set_seq(seq);
    }
    bool visible = true;
    {
      ScopedSpan span("lbc.propagate", 1);
      span.set_seq(seq);
      for (int i = 1; i < kNodes; ++i) {
        visible = world_->client(i)->WaitForAppliedSeq(kLock, seq, kVisibleTimeoutMs) && visible;
      }
    }
    const uint64_t all_cpu2 = process_cpu_.NowNs();
    if (!s->Count(visible ? base::OkStatus()
                          : base::DeadlineExceeded("commit not visible at every peer"))) {
      return;
    }
    s->Record(start, writer_cpu1 - writer_cpu0, all_cpu2 - all_cpu0);
  }

  void Checkpoint(Samples* s) {
    std::vector<lbc::Client*> clients;
    for (auto& c : world_->clients) {
      clients.push_back(c.get());
    }
    ScopedSpan span("cluster.checkpoint", 1);
    s->Count(lbc::OnlineTrim(&world_->cluster, world_->client(0), clients));
    since_checkpoint_ = 0;
  }

  uint64_t seed_;
  oo7::Config config_;
  uint64_t db_size_ = 0;
  uint64_t since_checkpoint_ = 0;
  RecordingSink sink_;
  ProcessCpuClock process_cpu_;
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> MakeOo7Fanout(uint64_t seed) {
  return std::make_unique<Oo7Fanout>(seed);
}

}  // namespace perfbench
