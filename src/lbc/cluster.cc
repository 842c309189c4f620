#include "src/lbc/cluster.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_index.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/recovery.h"
#include "src/rvm/replay_on_demand.h"
#include "src/rvm/scrub.h"

namespace lbc {

Cluster::Cluster(store::DurableStore* store)
    : store_(store),
      attached_(obs::MetricsRegistry::Global(), "",
                {{"server.records_cached", &m_.records_cached},
                 {"server.records_fetched", &m_.records_fetched},
                 {"server.dead_clients_recovered", &m_.dead_clients_recovered},
                 {"server.rebuilds", &m_.rebuilds},
                 {"gray.suspect_slow", &m_.suspect_slow},
                 {"gray.evictions_averted", &m_.evictions_averted},
                 {"gray.false_evictions", &m_.false_evictions},
                 {"admission.admitted", &m_.admitted},
                 // admission.shed is the sum of the two queues' counters.
                 {"admission.shed", &m_.fetch_shed},
                 {"admission.shed", &m_.commit_shed},
                 {"admission.fetch_shed", &m_.fetch_shed},
                 {"admission.commit_shed", &m_.commit_shed}}) {}

Cluster::~Cluster() { StopRecoveryDrain(); }

void Cluster::DefineLock(rvm::LockId lock, rvm::RegionId region, rvm::NodeId manager) {
  base::MutexLock guard(mu_);
  auto [it, inserted] = locks_.try_emplace(lock, LockSpec{region, manager});
  LBC_CHECK(inserted || it->second.region == region);  // clients cache the region
  it->second.manager = manager;
}

base::Result<LockSpec> Cluster::GetLock(rvm::LockId lock) const {
  base::MutexLock guard(mu_);
  auto it = locks_.find(lock);
  if (it == locks_.end()) {
    return base::NotFound("undefined lock: " + std::to_string(lock));
  }
  return it->second;
}

std::vector<rvm::LockId> Cluster::LocksForRegion(rvm::RegionId region) const {
  base::MutexLock guard(mu_);
  std::vector<rvm::LockId> out;
  for (const auto& [lock, spec] : locks_) {
    if (spec.region == region) {
      out.push_back(lock);
    }
  }
  return out;
}

std::vector<rvm::LockId> Cluster::AllLocks() const {
  base::MutexLock guard(mu_);
  std::vector<rvm::LockId> out;
  out.reserve(locks_.size());
  for (const auto& [lock, spec] : locks_) {
    out.push_back(lock);
  }
  return out;
}

void Cluster::RegisterMapping(rvm::RegionId region, rvm::NodeId node) {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return;  // lost; the client re-registers at RejoinServer
  }
  auto& nodes = mappings_[region];
  if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
    nodes.push_back(node);
  }
}

void Cluster::UnregisterMapping(rvm::RegionId region, rvm::NodeId node) {
  base::MutexLock guard(mu_);
  auto it = mappings_.find(region);
  if (it == mappings_.end()) {
    return;
  }
  auto& nodes = it->second;
  nodes.erase(std::remove(nodes.begin(), nodes.end(), node), nodes.end());
}

std::vector<rvm::NodeId> Cluster::PeersOf(rvm::RegionId region, rvm::NodeId exclude) const {
  base::MutexLock guard(mu_);
  std::vector<rvm::NodeId> out;
  if (!server_up_) {
    return out;
  }
  auto it = mappings_.find(region);
  if (it == mappings_.end()) {
    return out;
  }
  for (rvm::NodeId node : it->second) {
    if (node != exclude) {
      out.push_back(node);
    }
  }
  return out;
}

base::Status Cluster::ReplayAndRecordBaselines(const std::vector<std::string>& log_names) {
  if (!ServerUp()) {
    return base::Unavailable("server down");
  }
  if (log_names.empty()) {
    return base::OkStatus();
  }
  ASSIGN_OR_RETURN(auto merged, rvm::MergeLogs(store_, log_names));
  bool start_drainer = false;
  {
    base::MutexLock guard(mu_);
    if (!server_up_) {
      return base::Unavailable("server down");
    }
    for (const auto& txn : merged) {
      for (const auto& lock : txn.locks) {
        uint64_t& cut = trim_cut_[lock.lock_id];
        cut = std::max(cut, lock.sequence);
      }
    }
    // This thread drains too, so a one-file recovery needs no pool: the
    // workers could only race it for that file's claim.
    start_drainer =
        FoldIntoRecoveryLocked(std::move(merged)) && recovery_->PendingFiles() > 1;
  }
  if (start_drainer) {
    StartRecoveryDrain();
  }
  // The trim's records now sit behind every record the recovery already
  // indexed, so draining replays each page in merged order — on this thread
  // and the drain workers, with DrainLoop's bounded scrub repair.
  RETURN_IF_ERROR(DrainRecovery());
  trim_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return base::OkStatus();
}

bool Cluster::FoldIntoRecoveryLocked(std::vector<rvm::TransactionRecord> merged) {
  if (merged.empty()) {
    return false;
  }
  for (const auto& txn : merged) {
    uint64_t& bound = merged_commit_seq_[txn.node];
    bound = std::max(bound, txn.commit_seq);
    for (const auto& lock : txn.locks) {
      uint64_t& baseline = baseline_seq_[lock.lock_id];
      baseline = std::max(baseline, lock.sequence);
    }
  }
  if (recovery_ != nullptr) {
    // Under mu_ on purpose: retirement also runs under mu_, so the
    // extension cannot land on a recovery that already retired. Records the
    // index already holds are deduplicated inside Extend by per-node
    // commit_seq.
    recovery_->Extend(std::move(merged));
    return false;
  }
  recovery_ = std::make_shared<rvm::IncrementalRecovery>(
      store_, rvm::LogIndex::FromMerged(std::move(merged)), &db_mu_);
  return true;
}

uint64_t Cluster::BaselineSeq(rvm::LockId lock) const {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return 0;
  }
  auto it = baseline_seq_.find(lock);
  return it == baseline_seq_.end() ? 0 : it->second;
}

void Cluster::RecordBaseline(rvm::LockId lock, uint64_t seq) {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return;
  }
  uint64_t& baseline = baseline_seq_[lock];
  baseline = std::max(baseline, seq);
  uint64_t& cut = trim_cut_[lock];
  cut = std::max(cut, seq);
  trim_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

uint64_t Cluster::HighestCommitSeq(rvm::NodeId node) const {
  base::MutexLock guard(mu_);
  uint64_t highest = 0;
  if (auto it = merged_commit_seq_.find(node); it != merged_commit_seq_.end()) {
    highest = it->second;
  }
  for (const auto& [lock, records] : record_cache_) {
    for (const auto& [seq, rec] : records) {
      if (rec.node == node) {
        highest = std::max(highest, rec.commit_seq);
      }
    }
  }
  return highest;
}

std::map<rvm::LockId, uint64_t> Cluster::TrimCut() const {
  base::MutexLock guard(mu_);
  return trim_cut_;
}

void Cluster::NoteApplied(rvm::LockId lock, rvm::NodeId node, uint64_t seq) {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return;  // lost; the client re-reports at RejoinServer
  }
  uint64_t& reported = applied_reports_[lock][node];
  reported = std::max(reported, seq);
}

uint64_t Cluster::MinApplied(rvm::LockId lock, rvm::NodeId exclude) const {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return 0;  // conservative: nobody may discard anything while we're down
  }
  auto lock_it = locks_.find(lock);
  if (lock_it == locks_.end()) {
    return 0;
  }
  auto map_it = mappings_.find(lock_it->second.region);
  if (map_it == mappings_.end()) {
    return UINT64_MAX;  // no mappers: nothing retained is needed
  }
  uint64_t baseline = 0;
  if (auto b = baseline_seq_.find(lock); b != baseline_seq_.end()) {
    baseline = b->second;
  }
  const auto* reports = [&]() -> const std::map<rvm::NodeId, uint64_t>* {
    auto it = applied_reports_.find(lock);
    return it == applied_reports_.end() ? nullptr : &it->second;
  }();
  uint64_t min_applied = UINT64_MAX;
  bool any = false;
  for (rvm::NodeId node : map_it->second) {
    if (node == exclude) {
      continue;
    }
    any = true;
    uint64_t applied = baseline;
    if (reports != nullptr) {
      if (auto r = reports->find(node); r != reports->end()) {
        applied = std::max(applied, r->second);
      }
    }
    min_applied = std::min(min_applied, applied);
  }
  return any ? min_applied : UINT64_MAX;
}

void Cluster::CacheRecords(rvm::LockId lock, const rvm::TransactionRecord& rec) {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return;
  }
  m_.records_cached.Increment();
  record_cache_[lock].emplace(rec.SequenceOf(lock), rec);
}

std::vector<rvm::TransactionRecord> Cluster::FetchRecordsSince(rvm::LockId lock,
                                                               uint64_t after_seq) const {
  base::MutexLock guard(mu_);
  std::vector<rvm::TransactionRecord> out;
  if (!server_up_) {
    return out;
  }
  auto it = record_cache_.find(lock);
  if (it == record_cache_.end()) {
    return out;
  }
  for (auto rec_it = it->second.upper_bound(after_seq); rec_it != it->second.end();
       ++rec_it) {
    out.push_back(rec_it->second);
  }
  m_.records_fetched.Add(out.size());
  return out;
}

void Cluster::TrimRecordCache(rvm::LockId lock) {
  // Reuse MinApplied's bookkeeping; exclude nothing (node 0 is never real).
  uint64_t min_applied = MinApplied(lock, /*exclude=*/0);
  base::MutexLock guard(mu_);
  auto it = record_cache_.find(lock);
  if (it == record_cache_.end()) {
    return;
  }
  auto& cache = it->second;
  cache.erase(cache.begin(), cache.upper_bound(min_applied));
}

size_t Cluster::CachedRecordCount(rvm::LockId lock) const {
  base::MutexLock guard(mu_);
  auto it = record_cache_.find(lock);
  return it == record_cache_.end() ? 0 : it->second.size();
}

void Cluster::NoteAlive(rvm::NodeId node) {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return;
  }
  if (dead_.count(node) != 0) {
    // A heartbeat from a declared-dead node: the eviction was premature —
    // the peer was gray, not gone. Death stays permanent (its tokens may
    // already be reissued), but the mistake is counted so chaos runs can
    // assert the detector never fired one.
    m_.false_evictions.Increment();
    return;  // declared dead stays dead; see header
  }
  auto now = std::chrono::steady_clock::now();
  auto it = last_heartbeat_.find(node);
  if (it != last_heartbeat_.end()) {
    uint64_t gap = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - it->second)
            .count());
    uint64_t& ewma = ewma_gap_nanos_[node];
    ewma = ewma == 0 ? gap : ewma - ewma / 4 + gap / 4;
  }
  last_heartbeat_[node] = now;
  if (suspect_.erase(node) != 0) {
    m_.evictions_averted.Increment();
  }
}

void Cluster::DeclareDead(rvm::NodeId node) {
  base::MutexLock guard(mu_);
  if (!server_up_) {
    return;
  }
  dead_.insert(node);
  last_heartbeat_.erase(node);
  ewma_gap_nanos_.erase(node);
  suspect_.erase(node);
}

bool Cluster::IsDead(rvm::NodeId node) const {
  base::MutexLock guard(mu_);
  return dead_.count(node) != 0;
}

std::vector<rvm::NodeId> Cluster::DeadNodes() const {
  base::MutexLock guard(mu_);
  return {dead_.begin(), dead_.end()};
}

std::vector<rvm::NodeId> Cluster::LeaseExpired(std::chrono::milliseconds lease) const {
  base::MutexLock guard(mu_);
  std::vector<rvm::NodeId> out;
  auto now = std::chrono::steady_clock::now();
  const uint64_t lease_nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(lease).count());
  for (const auto& [node, beat] : last_heartbeat_) {
    uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - beat).count());
    if (elapsed <= lease_nanos) {
      continue;
    }
    // Past the lease. A node whose beats have been arriving late (EWMA gap
    // comparable to the lease) gets a stretched deadline: it is slow, not
    // silent. For a node beating at the nominal rate the stretch collapses
    // to the lease itself, so healthy-then-silent peers expire as before.
    auto ewma_it = ewma_gap_nanos_.find(node);
    uint64_t ewma = ewma_it == ewma_gap_nanos_.end() ? 0 : ewma_it->second;
    uint64_t stretched = std::max(lease_nanos, gray_slack_factor_ * ewma);
    if (elapsed <= stretched) {
      if (suspect_.insert(node).second) {
        m_.suspect_slow.Increment();
      }
      continue;
    }
    out.push_back(node);
  }
  return out;
}

std::vector<rvm::NodeId> Cluster::SuspectSlow() const {
  base::MutexLock guard(mu_);
  return {suspect_.begin(), suspect_.end()};
}

void Cluster::SetGraySlackFactor(uint64_t factor) {
  base::MutexLock guard(mu_);
  gray_slack_factor_ = factor == 0 ? 1 : factor;
}

Cluster::AdmissionQueue& Cluster::QueueFor(ServerQueue queue) {
  return queue == ServerQueue::kFetch ? fetch_queue_ : commit_queue_;
}

const Cluster::AdmissionQueue& Cluster::QueueFor(ServerQueue queue) const {
  return queue == ServerQueue::kFetch ? fetch_queue_ : commit_queue_;
}

void Cluster::SetAdmissionLimit(ServerQueue queue, uint64_t max_inflight) {
  base::MutexLock guard(mu_);
  QueueFor(queue).limit = max_inflight;
}

base::Status Cluster::Admit(ServerQueue queue, uint64_t* retry_after_ms) {
  base::MutexLock guard(mu_);
  AdmissionQueue& q = QueueFor(queue);
  if (q.limit > 0 && q.inflight >= q.limit) {
    // Server-paced hint: doubles per consecutive shed (1ms .. 64ms), so a
    // saturated queue pushes its clients apart without any client-side
    // coordination. Reset by the next successful admit.
    uint64_t shift = q.consecutive_sheds < 6 ? q.consecutive_sheds : 6;
    ++q.consecutive_sheds;
    uint64_t hint = 1ull << shift;
    if (retry_after_ms != nullptr) {
      *retry_after_ms = hint;
    }
    (queue == ServerQueue::kFetch ? m_.fetch_shed : m_.commit_shed).Increment();
    const char* name = queue == ServerQueue::kFetch ? "fetch" : "commit";
    return base::Overloaded(std::string("server ") + name + " queue full (" +
                            std::to_string(q.inflight) + "/" +
                            std::to_string(q.limit) +
                            " inflight); retry after ~" + std::to_string(hint) +
                            "ms");
  }
  ++q.inflight;
  q.consecutive_sheds = 0;
  m_.admitted.Increment();
  if (queue == ServerQueue::kCommit && first_commit_pending_) {
    // Time-to-first-commit after a restart (the availability number the
    // incremental path exists to shrink).
    first_commit_pending_ = false;
    uint64_t ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - recovery_start_)
            .count());
    rvm::GlobalIncrementalRecoveryMetrics()->first_commit_ms->Add(ms);
  }
  return base::OkStatus();
}

void Cluster::Finish(ServerQueue queue) {
  base::MutexLock guard(mu_);
  AdmissionQueue& q = QueueFor(queue);
  if (q.inflight > 0) {
    --q.inflight;
  }
}

uint64_t Cluster::Inflight(ServerQueue queue) const {
  base::MutexLock guard(mu_);
  return QueueFor(queue).inflight;
}

uint64_t Cluster::ShedCount(ServerQueue queue) const {
  return (queue == ServerQueue::kFetch ? m_.fetch_shed : m_.commit_shed).value();
}

base::Status Cluster::RecoverDeadClient(rvm::NodeId node) {
  if (!ServerUp()) {
    return base::Unavailable("server down");
  }
  DeclareDead(node);
  std::set<rvm::NodeId> dead;
  std::map<rvm::NodeId, uint64_t> dedup_bounds;
  {
    base::MutexLock guard(mu_);
    if (recovered_.count(node) != 0) {
      return base::OkStatus();
    }
    dead = dead_;
    dedup_bounds = merged_commit_seq_;
  }
  std::string log_name = rvm::LogFileName(node);
  ASSIGN_OR_RETURN(bool exists, store_->Exists(log_name));
  std::vector<rvm::TransactionRecord> merged;
  if (exists) {
    ASSIGN_OR_RETURN(merged, rvm::MergeLogs(store_, {log_name}));
    // Keep the records of dead writers only: a live writer's record this
    // node carried is in (or on its way to) its writer's own log, which the
    // next full merge orders behind that writer's earlier records. Drop
    // what a recovery already merged, each record against its own writer's
    // bound: those records were indexed in full merged order, and
    // re-applying them here — after newer overlapping records — would roll
    // pages back.
    std::erase_if(merged, [&](const rvm::TransactionRecord& txn) {
      auto bound = dedup_bounds.find(txn.node);
      return dead.count(txn.node) == 0 ||
             (bound != dedup_bounds.end() && txn.commit_seq <= bound->second);
    });
    // The survivors go into the record cache, which can hold them long
    // after the drain. Read in place they would pin the log blocks they
    // share with the records dropped above (log_io.h), so each one keeps a
    // copy of its own payload instead.
    for (rvm::TransactionRecord& txn : merged) {
      rvm::TransactionRecord own;
      RETURN_IF_ERROR(rvm::DecodeTransaction(base::Buffer::Copy(txn.payload), &own));
      txn = std::move(own);
    }
  }
  // Read and index only — no database replay while the caller (typically a
  // survivor's heartbeat thread, which must keep beating) waits. The pages
  // the dead client's records touch are (re-)pended below and replayed on
  // first touch or by the drainer.
  bool start_drainer = false;
  {
    base::MutexLock guard(mu_);
    if (!recovered_.insert(node).second) {
      return base::OkStatus();  // lost a race with a concurrent detector
    }
    m_.dead_clients_recovered.Increment();
    obs::TraceRing::Global()->Emit(node, obs::TraceType::kClientRecovered, /*lock=*/0,
                                   /*seq=*/0, /*bytes=*/merged.size());
    // Survivors whose cached image is missing an update re-fetch it from
    // the record cache (the dead writer will never retransmit).
    for (const auto& txn : merged) {
      for (const auto& lock : txn.locks) {
        record_cache_[lock.lock_id].emplace(lock.sequence, txn);
      }
    }
    start_drainer = FoldIntoRecoveryLocked(std::move(merged));
    for (auto& [region, nodes] : mappings_) {
      nodes.erase(std::remove(nodes.begin(), nodes.end(), node), nodes.end());
    }
    for (auto& [lock, reports] : applied_reports_) {
      reports.erase(node);
    }
  }
  if (start_drainer) {
    StartRecoveryDrain();
  }
  return base::OkStatus();
}

base::Status Cluster::RecoverAndTrim(const std::vector<rvm::NodeId>& nodes) {
  if (!ServerUp()) {
    return base::Unavailable("server down");
  }
  std::vector<std::string> log_names;
  for (rvm::NodeId node : nodes) {
    std::string name = rvm::LogFileName(node);
    ASSIGN_OR_RETURN(bool exists, store_->Exists(name));
    if (exists) {
      log_names.push_back(std::move(name));
    }
  }
  RETURN_IF_ERROR(ReplayAndRecordBaselines(log_names));
  for (const auto& name : log_names) {
    ASSIGN_OR_RETURN(auto file, store_->Open(name, /*create=*/false));
    RETURN_IF_ERROR(file->Truncate(0));
    RETURN_IF_ERROR(file->Sync());
  }
  return base::OkStatus();
}

void Cluster::SetScrubber(rvm::Scrubber* scrubber) {
  base::MutexLock guard(mu_);
  scrubber_ = scrubber;
}

bool Cluster::TryRepairRegion(rvm::RegionId region) {
  rvm::Scrubber* scrubber = nullptr;
  {
    base::MutexLock guard(mu_);
    scrubber = scrubber_;
  }
  if (scrubber == nullptr) {
    return false;
  }
  // Materialize the region's pending pages first. A page still awaiting its
  // indexed redo (or carrying a durable intent entry from an interrupted
  // materialization) legitimately mismatches its sidecar entry; scrubbing
  // it now would misread recovery-in-progress as rot. A page whose
  // PRE-IMAGE is genuinely rotten fails materialization with DATA_LOSS —
  // ignored here, because healing exactly that pre-image (from a replica)
  // is what the scrub below is for; the caller then retries the fetch,
  // which re-runs the materialization over the healed bytes.
  base::IgnoreError(EnsureRegionRecovered(region));
  // Serialize the repair's database-file writes with the cluster's other
  // writers (file replays, standby checkpoint): an unserialized repair_copy
  // could interleave with a replay of the same page and leave a
  // half-repaired, half-replayed hybrid on disk. The scrub itself
  // never rewrites logs (ScrubRegion is detect-only for them), so live
  // appenders need no quiescing here.
  base::WriterMutexLock db_guard(db_mu_);
  auto report = scrubber->ScrubRegion(region);
  return report.ok();
}

void Cluster::KillServer() {
  {
    base::MutexLock guard(mu_);
    server_up_ = false;
    // Everything server-resident and soft dies with the machine. The lock
    // table survives: it is static configuration, not run-time state.
    mappings_.clear();
    baseline_seq_.clear();
    applied_reports_.clear();
    record_cache_.clear();
    last_heartbeat_.clear();
    dead_.clear();
    recovered_.clear();
    merged_commit_seq_.clear();
    trim_cut_.clear();
    // An in-flight recovery dies too: the next RestartServer re-indexes the
    // logs from scratch (replay idempotence makes the rerun harmless).
    recovery_.reset();
    first_commit_pending_ = false;
  }
  // Join the drainer outside mu_ — it takes mu_ to re-read recovery_ (now
  // null) and exits.
  StopRecoveryDrain();
}

base::Status Cluster::RestartServer() {
  const auto boot_start = std::chrono::steady_clock::now();
  {
    base::MutexLock guard(mu_);
    if (server_up_) {
      return base::OkStatus();
    }
  }
  // Recovery at boot (§3.5): merge every client log still on the store into
  // a per-page index over the merged history, then rebuild the per-lock
  // baselines and the record cache from it. Records that an earlier trim
  // already removed from the logs are in the database files and at or below
  // any baseline those trims established, so nothing is lost. The index
  // build is a read-only scan: service resumes as soon as the directory is
  // rebuilt, and pages replay on first touch or in the background drain.
  ASSIGN_OR_RETURN(auto names, store_->List());
  std::vector<std::string> log_names;
  for (const auto& name : names) {
    if (name.rfind("log_", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 4, 4, ".rvm") == 0) {
      log_names.push_back(name);
    }
  }
  rvm::LogIndex index;
  if (!log_names.empty()) {
    ASSIGN_OR_RETURN(index, rvm::LogIndex::Build(store_, log_names));
  }
  bool start_drainer = false;
  {
    base::MutexLock guard(mu_);
    for (const auto& txn : index.transactions()) {
      uint64_t& bound = merged_commit_seq_[txn.node];
      bound = std::max(bound, txn.commit_seq);
      for (const auto& lock : txn.locks) {
        uint64_t& baseline = baseline_seq_[lock.lock_id];
        baseline = std::max(baseline, lock.sequence);
        // Survivors that missed a dead or partitioned writer's update can
        // still fetch it: the rebuilt cache holds the full merged history.
        record_cache_[lock.lock_id].emplace(lock.sequence, txn);
      }
    }
    if (!index.empty()) {
      recovery_ = std::make_shared<rvm::IncrementalRecovery>(store_, std::move(index),
                                                             &db_mu_);
      start_drainer = true;
    }
    first_commit_pending_ = true;
    recovery_start_ = boot_start;
    server_up_ = true;
    ++server_epoch_;
    m_.rebuilds.Increment();
  }
  if (start_drainer) {
    StartRecoveryDrain();
  }
  return base::OkStatus();
}

bool Cluster::RecoveryActive() const {
  base::MutexLock guard(mu_);
  return recovery_ != nullptr;
}

uint64_t Cluster::RecoveryPendingPages() const {
  std::shared_ptr<rvm::IncrementalRecovery> rec;
  {
    base::MutexLock guard(mu_);
    rec = recovery_;
  }
  return rec == nullptr ? 0 : rec->PendingPages();
}

base::Status Cluster::EnsureRegionRecovered(rvm::RegionId region,
                                            uint64_t deadline_ms) {
  std::shared_ptr<rvm::IncrementalRecovery> rec;
  {
    base::MutexLock guard(mu_);
    rec = recovery_;
  }
  if (rec == nullptr) {
    return base::OkStatus();
  }
  RETURN_IF_ERROR(rec->MaterializeRegion(region, deadline_ms));
  // Opportunistic retirement: whoever replays the last page puts the
  // cluster back on the steady-state path.
  RetireIfDrained(rec);
  return base::OkStatus();
}

bool Cluster::RetireIfDrained(const std::shared_ptr<rvm::IncrementalRecovery>& rec) {
  base::MutexLock guard(mu_);
  if (recovery_ != rec) {
    return true;  // already retired, or reset by KillServer
  }
  if (!rec->Drained()) {
    return false;
  }
  recovery_.reset();
  return true;
}

base::Status Cluster::DrainRecovery() { return DrainLoop(/*stop=*/nullptr); }

void Cluster::StartRecoveryDrain() {
  base::MutexLock guard(drain_mu_);
  if (drain_thread_.joinable()) {
    // Reap the previous generation's drainer. It exits once its recovery
    // object is retired or reset, so this join does not wait on live work.
    drain_thread_.join();
  }
  drain_stop_.store(false, std::memory_order_relaxed);
  drain_thread_ = std::thread([this] {
    std::vector<std::thread> workers;
    for (int i = 1; i < kDrainWorkers; ++i) {
      workers.emplace_back([this] { base::IgnoreError(DrainLoop(&drain_stop_)); });
    }
    base::IgnoreError(DrainLoop(&drain_stop_));
    for (std::thread& worker : workers) {
      worker.join();
    }
  });
}

void Cluster::StopRecoveryDrain() {
  drain_stop_.store(true, std::memory_order_relaxed);
  base::MutexLock guard(drain_mu_);
  if (drain_thread_.joinable()) {
    drain_thread_.join();
  }
}

base::Status Cluster::DrainLoop(const std::atomic<bool>* stop) {
  // Bounded heal-and-retry: a DATA_LOSS page is re-scrubbed a few times (a
  // replica may serve rot once and a clean copy on the next read), then the
  // loop gives up and returns the error with the page still pending — a
  // client touching it surfaces the same error through the first-touch path
  // and runs its own bounded repair loop. The bound matters: a scrub that
  // runs but cannot heal the pre-image still reports success.
  constexpr int kMaxRepairAttempts = 8;
  int repair_attempts = 0;
  while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
    std::shared_ptr<rvm::IncrementalRecovery> rec;
    {
      base::MutexLock guard(mu_);
      rec = recovery_;
    }
    if (rec == nullptr) {
      return base::OkStatus();
    }
    rvm::RegionId failed = 0;
    base::Result<bool> step = rec->DrainStep(&failed);
    if (!step.ok()) {
      if (step.status().code() == base::StatusCode::kDataLoss &&
          repair_attempts < kMaxRepairAttempts && TryRepairRegion(failed)) {
        ++repair_attempts;
        continue;  // pre-image possibly healed from a replica; retry the page
      }
      return step.status();
    }
    repair_attempts = 0;
    if (!step.value() && RetireIfDrained(rec)) {
      return base::OkStatus();
    }
  }
  return base::OkStatus();
}

bool Cluster::ServerUp() const {
  base::MutexLock guard(mu_);
  return server_up_;
}

uint64_t Cluster::ServerEpoch() const {
  base::MutexLock guard(mu_);
  return server_epoch_;
}

}  // namespace lbc
