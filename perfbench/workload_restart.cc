// restart: set-up checkpoints an initial image of 12 one-page regions into
// their database files, then commits a fixed backlog of 2 full-page commits
// per region (the shape and disk of bench_recovery_ttfc). Database-file ops
// (region data and checksum sidecars) carry a fixed simulated latency; log
// files stay fast. Each iteration runs KillServer -> RestartServer ->
// RejoinServer -> one commit -> DrainRecovery in the cluster's default
// recovery mode. The only workload that exercises recovery: log merge,
// LogIndex and replay with sidecar checks.
//
// op   = RestartServer start -> first post-restart Commit returns (TTFC).
// done = RestartServer start -> DrainRecovery returns (every page recovered).
#include <cstring>

#include "perfbench/common.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/lbc/online_trim.h"
#include "src/rvm/page_checksum.h"

namespace perfbench {
namespace {

constexpr int kRegions = 12;
constexpr uint64_t kRegionSize = rvm::kDbPageSize;  // one page per region
constexpr int kBacklogCommitsPerRegion = 2;
// Every database-file op, as in bench/bench_recovery_ttfc.cc.
constexpr uint64_t kDbLatencyNanos = 2'000'000;
constexpr uint64_t kCommitBytes = 64;

rvm::RegionId RegionAt(int i) { return static_cast<rvm::RegionId>(i + 1); }
rvm::LockId LockFor(rvm::RegionId region) { return static_cast<rvm::LockId>(region * 10 + 1); }

class Restart : public Workload {
 public:
  explicit Restart(uint64_t seed) : seed_(seed), rng_(seed) {}

  std::string OpName() const override {
    return "RestartServer start -> first post-restart Commit returns";
  }
  std::string DoneName() const override { return "RestartServer start -> DrainRecovery returns"; }
  double TailPercentile() const override { return 85; }
  std::string Describe() const override {
    return "12 one-page regions x 2 full-page backlog commits, 1 node, default recovery mode, "
           "database-file ops +" + std::to_string(kDbLatencyNanos / 1000) +
           " us, log files without injected latency (ResourceStore over MemStore)";
  }

  // The initial image goes to the database files through the simulated
  // disk, as a live system's checkpoint would write it; the backlog stays in
  // the log for every restart to recover.
  void Setup() override {
    world_ = std::make_unique<World>(seed_);
    // Data pages and sidecars both match "region_".
    world_->resource.InjectLatency("region_", kDbLatencyNanos, 0);
    rng_ = base::Rng(seed_ * 0x100000001B3ull + 7);
    for (int i = 0; i < kRegions; ++i) {
      world_->cluster.DefineLock(LockFor(RegionAt(i)), RegionAt(i), /*manager=*/1);
    }
    lbc::Client* client = world_->AddClient(1);
    for (int i = 0; i < kRegions; ++i) {
      LBC_CHECK_OK(client->MapRegion(RegionAt(i), kRegionSize).status());
    }
    // One full-page commit to every region.
    auto commit_every_region = [&] {
      for (int i = 0; i < kRegions; ++i) {
        lbc::Transaction txn = client->Begin(rvm::RestoreMode::kNoRestore);
        LBC_CHECK_OK(txn.Acquire(LockFor(RegionAt(i))));
        LBC_CHECK_OK(txn.SetRange(RegionAt(i), 0, kRegionSize));
        std::memset(client->GetRegion(RegionAt(i))->data(),
                    static_cast<int>(rng_.Uniform(256)), kRegionSize);
        LBC_CHECK_OK(txn.Commit(rvm::CommitMode::kFlush));
      }
    };
    commit_every_region();
    LBC_CHECK_OK(lbc::OnlineTrim(&world_->cluster, client, {client}));
    for (int round = 0; round < kBacklogCommitsPerRegion; ++round) {
      commit_every_region();
    }
  }

  void Teardown() override { world_.reset(); }

  Samples Run(double seconds) override {
    Samples s;
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < deadline && s.failed == 0) {
      RunOne(&s);
    }
    s.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    return s;
  }

  void Check(std::vector<std::string>* problems) override {
    // Every cycle already compared the recovered database files against the
    // images committed before its kill (RunOne).
  }

  World* world() override { return world_.get(); }

 private:
  void RunOne(Samples* s) {
    lbc::Client* client = world_->client(0);
    // The committed images the recovery must reproduce.
    std::vector<std::vector<uint8_t>> before(kRegions);
    for (int i = 0; i < kRegions; ++i) {
      const uint8_t* data = client->GetRegion(RegionAt(i))->data();
      before[i].assign(data, data + kRegionSize);
    }
    const rvm::RegionId region = RegionAt(static_cast<int>(rng_.Uniform(kRegions)));
    const uint64_t offset = rng_.Uniform(kRegionSize / kCommitBytes) * kCommitBytes;
    const int fill = static_cast<int>(rng_.Uniform(256));

    world_->cluster.KillServer();
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span("cluster.restart", 1);
      if (!s->Count(world_->cluster.RestartServer())) {
        return;
      }
    }
    {
      ScopedSpan first("cluster.first_commit", 1);
      if (!s->Count(client->RejoinServer())) {
        return;
      }
      ScopedSpan txn_span("txn", 1);
      lbc::Transaction txn = client->Begin(rvm::RestoreMode::kNoRestore);
      {
        ScopedSpan span("lbc.acquire", 1);
        if (!s->Count(txn.Acquire(LockFor(region)))) {
          return;
        }
      }
      base::Status declared;
      {
        ScopedSpan span("lbc.set_range", 1);
        declared = txn.SetRange(region, offset, kCommitBytes);
      }
      if (!s->Count(declared)) {
        return;
      }
      std::memset(client->GetRegion(region)->data() + offset, fill, kCommitBytes);
      base::Status committed;
      {
        ScopedSpan span("lbc.commit", 1);
        committed = txn.Commit(rvm::CommitMode::kFlush);
      }
      if (!s->Count(committed)) {
        return;
      }
      txn_span.set_seq(client->AppliedSeq(LockFor(region)));
    }
    const uint64_t t1 = NowNs();
    {
      ScopedSpan span("cluster.drain", 1);
      if (!s->Count(world_->cluster.DrainRecovery())) {
        return;
      }
    }
    const uint64_t t2 = NowNs();
    s->Record(t0, t1 - t0, t2 - t0);

    for (int i = 0; i < kRegions; ++i) {
      const std::vector<uint8_t> file = world_->ReadRegionFile(RegionAt(i), kRegionSize);
      CheckEqual("restart: region " + std::to_string(RegionAt(i)) +
                     " database file after drain vs committed image before kill",
                 before[i].data(), file.data(), kRegionSize, &s->problems);
    }
  }

  uint64_t seed_;
  base::Rng rng_;
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> MakeRestart(uint64_t seed) { return std::make_unique<Restart>(seed); }

}  // namespace perfbench
