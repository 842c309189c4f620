#include "src/lbc/client.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>
#include <thread>

#include "src/base/logging.h"
#include "src/obs/trace.h"
#include "src/rvm/page_checksum.h"

namespace lbc {
// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Transaction::Transaction(Transaction&& other) noexcept
    : client_(other.client_), txn_(other.txn_), open_(other.open_),
      held_(std::move(other.held_)) {
  other.open_ = false;
  other.client_ = nullptr;
}

Transaction& Transaction::operator=(Transaction&& other) noexcept {
  if (this != &other) {
    Close();
    client_ = other.client_;
    txn_ = other.txn_;
    open_ = other.open_;
    held_ = std::move(other.held_);
    other.open_ = false;
    other.client_ = nullptr;
  }
  return *this;
}

Transaction::~Transaction() { Close(); }

void Transaction::Close() {
  if (!open_) {
    return;
  }
  if (client_->rvm()->ForgetOrdered(txn_)) {
    // Its commit failed after ordering: there is nothing to abort, and the
    // node's next batch writes the record.
    open_ = false;
    return;
  }
  base::IgnoreError(Abort());  // best effort; discarding an open transaction aborts it
}

base::Status Transaction::Acquire(rvm::LockId lock) {
  if (!open_) {
    return base::FailedPrecondition("transaction closed");
  }
  for (const auto& rec : held_) {
    if (rec.lock_id == lock) {
      return base::OkStatus();  // 2PL: already held for this transaction
    }
  }
  if (client_->options_.policy != PropagationPolicy::kEager && !held_.empty()) {
    return base::FailedPrecondition(
        "lazy propagation supports a single segment lock per transaction");
  }
  ASSIGN_OR_RETURN(uint64_t seq, client_->AcquireLock(lock));
  held_.push_back(rvm::LockRecord{lock, seq});
  // Tag the transaction's eventual log record with the lock (Table 1:
  // rvm_setlockid_transaction embedded in the acquire primitive).
  return client_->rvm()->SetLockId(txn_, lock, seq);
}

base::Status Transaction::SetRange(rvm::RegionId region, uint64_t offset, uint64_t len) {
  if (!open_) {
    return base::FailedPrecondition("transaction closed");
  }
  return client_->rvm()->SetRange(txn_, region, offset, len);
}

base::Status Transaction::Commit(rvm::CommitMode mode) {
  if (!open_) {
    return base::FailedPrecondition("transaction closed");
  }
  // End-to-end commit latency: local commit + broadcast + release + log
  // write (the per-phase split lives in the rvm.* and lbc.* counters).
  obs::ScopedTimer commit_timer(nullptr, client_->commit_nanos_);
  // Admission control: take a commit slot before any log byte is written.
  // A shed that survives the backoff budget leaves the transaction OPEN and
  // untouched — the caller may Commit again later or Abort.
  base::Status admitted = client_->AdmitServer(Cluster::ServerQueue::kCommit);
  if (!admitted.ok()) {
    return admitted;
  }
  client_->DropFoldedRecords();
  open_ = false;
  // A retry after a log-write failure: the record was ordered and its locks
  // released by the first attempt.
  const std::optional<rvm::TransactionRecord> retried = client_->rvm()->OrderedRecord(txn_);
  // The commit hook (OnCommit) propagates and releases the locks as soon as
  // the commit is ordered; EndTransaction returns once it is durable.
  base::Status st = client_->rvm()->EndTransaction(txn_, mode);
  client_->cluster_->Finish(Cluster::ServerQueue::kCommit);
  if (st.ok()) {
    if (retried.has_value()) {
      // Propagate again: the first attempt's may have reached nobody (a
      // server outage empties the peer directory); receivers drop copies.
      client_->Propagate(*retried);
    }
    return st;
  }
  if (client_->rvm()->OrderedRecord(txn_).has_value()) {
    // The log write failed after ordering: peers may already hold the
    // record and the locks have moved on, so it cannot abort. The handle
    // stays open for a retry, which re-enqueues the same record.
    open_ = true;
    return st;
  }
  // Failed before ordering: abandon the transaction and hand the locks back
  // without consuming their sequence numbers.
  base::IgnoreError(client_->rvm()->AbortTransaction(txn_));
  client_->ReleaseLocks(held_, /*committed_updates=*/false);
  return st;
}

base::Status Transaction::Abort() {
  if (!open_) {
    return base::FailedPrecondition("transaction closed");
  }
  if (client_->rvm()->OrderedRecord(txn_).has_value()) {
    return base::FailedPrecondition("transaction is ordered: retry Commit instead");
  }
  open_ = false;
  base::Status st = client_->rvm()->AbortTransaction(txn_);
  client_->ReleaseLocks(held_, /*committed_updates=*/false);
  return st;
}

// ---------------------------------------------------------------------------
// Client lifecycle
// ---------------------------------------------------------------------------

Client::Client(Cluster* cluster, rvm::NodeId node, const ClientOptions& options)
    : cluster_(cluster),
      node_(node),
      options_(options),
      backoff_rng_(options.backoff_seed),
      attached_(obs::MetricsRegistry::Global(), obs::NodeMetricName("lbc", node, ""),
                {{"updates_sent", &m_.updates_sent},
                 {"update_bytes_sent", &m_.update_bytes_sent},
                 {"updates_received", &m_.updates_received},
                 {"updates_applied", &m_.updates_applied},
                 {"updates_held", &m_.updates_held},
                 {"updates_duplicate", &m_.updates_duplicate},
                 {"lock_messages_sent", &m_.lock_messages_sent},
                 {"acquire_waits", &m_.acquire_waits},
                 {"network_nanos", &m_.network_nanos},
                 {"records_fetched", &m_.records_fetched},
                 {"locks_reclaimed", &m_.locks_reclaimed},
                 {"revokes_received", &m_.revokes_received},
                 {"gray.retries", &m_.overload_retries},
                 {"gray.deadline_misses", &m_.deadline_misses},
                 {"gray.backoff_nanos", &backoff_nanos_},
                 {"interlock_wait_nanos", &interlock_wait_nanos_}}),
      acquire_nanos_(obs::MetricsRegistry::Global()->GetHistogram(
          obs::NodeMetricName("lbc", node, "acquire_nanos"))),
      commit_nanos_(obs::MetricsRegistry::Global()->GetHistogram(
          obs::NodeMetricName("lbc", node, "commit_nanos"))) {}

base::Result<std::unique_ptr<Client>> Client::Create(Cluster* cluster, rvm::NodeId node,
                                                     const ClientOptions& options) {
  std::unique_ptr<Client> client(new Client(cluster, node, options));
  RETURN_IF_ERROR(client->Init());
  return client;
}

base::Status Client::Init() {
  ASSIGN_OR_RETURN(rvm_, rvm::Rvm::Open(cluster_->store(), node_, options_.rvm));
  rvm_->AdvanceCommitSeq(cluster_->HighestCommitSeq(node_));
  rvm_->SetCommitHook([this](const rvm::TransactionRecord& rec) { OnCommit(rec); });
  endpoint_ = cluster_->fabric()->AddNode(node_);
  channel_ = std::make_unique<netsim::ReliableChannel>(endpoint_);
  channel_->StartReceiver([this](netsim::Message&& msg) { OnMessage(std::move(msg)); });
  cluster_->NoteAlive(node_);
  {
    // server_epoch_seen_ is guarded; Init is an ordinary method (the
    // heartbeat thread starts below), so take the lock for the write.
    base::MutexLock lk(mu_);
    server_epoch_seen_ = cluster_->ServerEpoch();
  }
  if (options_.heartbeat_interval_ms > 0) {
    heartbeat_ = std::thread([this] { HeartbeatThreadMain(); });
  }
  return base::OkStatus();
}

Client::~Client() {
  Disconnect();
  // Withdraw from the region directory so peers stop broadcasting to us.
  for (const auto& [region, state] : mapped_regions_) {
    cluster_->UnregisterMapping(region, node_);
  }
}

void Client::Disconnect() {
  {
    base::MutexLock lk(mu_);
    if (disconnected_) {
      return;
    }
    disconnected_ = true;
  }
  cv_.NotifyAll();
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }
  if (channel_ != nullptr) {  // null only when Init failed before creating it
    channel_->Shutdown();
  }
}

base::Status Client::AdmitServer(Cluster::ServerQueue queue) {
  uint64_t hint_ms = 0;
  base::Status st = cluster_->Admit(queue, &hint_ms);
  for (uint32_t attempt = 0;
       !st.ok() && st.code() == base::StatusCode::kOverloaded &&
       attempt < options_.overload_retries;
       ++attempt) {
    // Exponential base doubling per attempt, capped, then floored at the
    // server's own pacing hint — the server knows how hot its queue is.
    uint64_t backoff_ms = options_.backoff_base_ms
                          << std::min<uint32_t>(attempt, 20);
    backoff_ms = std::min(backoff_ms, options_.backoff_max_ms);
    backoff_ms = std::max(backoff_ms, hint_ms);
    uint64_t sleep_us;
    {
      // Jitter uniformly in [1/2, 1]× so shed clients do not re-arrive in
      // lockstep and re-collide (seeded stream; runs replay).
      base::MutexLock lk(mu_);
      uint64_t lo = backoff_ms * 500;
      sleep_us = lo + backoff_rng_.Uniform(backoff_ms * 500 + 1);
    }
    m_.overload_retries.Increment();
    backoff_nanos_.Add(sleep_us * 1000);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    st = cluster_->Admit(queue, &hint_ms);
  }
  return st;
}

void Client::HeartbeatThreadMain() {
  const auto interval = std::chrono::milliseconds(options_.heartbeat_interval_ms);
  // Deaths this thread has already recovered from. Deaths declared by OTHER
  // nodes must be swept too: the first detector's DeclareDead removes the
  // victim from the lease registry, so without this sweep a manager that
  // lost the detection race would never reclaim the victim's tokens.
  std::set<rvm::NodeId> handled;
  base::MutexLock lk(mu_);
  while (!disconnected_) {
    lk.Unlock();
    cluster_->NoteAlive(node_);
    // Outage detection: a bumped server epoch means a restarted server wiped
    // our directory entries — replay them. While the server is down we just
    // keep beating (NoteAlive is dropped) and back off.
    if (cluster_->ServerUp()) {
      uint64_t epoch = cluster_->ServerEpoch();
      bool stale;
      {
        base::MutexLock lk2(mu_);
        stale = epoch != server_epoch_seen_;
      }
      if (stale) {
        base::Status st = RejoinServer();
        if (!st.ok()) {
          LBC_LOG(Warning) << "node " << node_
                           << " rejoin after server restart failed: " << st.ToString();
        }
      }
    }
    if (options_.lease_timeout_ms > 0) {
      auto lease = std::chrono::milliseconds(options_.lease_timeout_ms);
      std::vector<rvm::NodeId> suspects = cluster_->LeaseExpired(lease);
      for (rvm::NodeId dead : cluster_->DeadNodes()) {
        suspects.push_back(dead);
      }
      for (rvm::NodeId suspect : suspects) {
        if (suspect == node_ || !handled.insert(suspect).second) {
          continue;
        }
        base::Status st = OnPeerDeath(suspect);
        if (!st.ok()) {
          LBC_LOG(Warning) << "peer-death recovery for node " << suspect
                           << " failed: " << st.ToString();
        }
      }
    }
    lk.Lock();
    // Sleep for one interval, leaving early if Disconnect() is called. The
    // predicate is written as an explicit loop so the guarded read of
    // disconnected_ stays visible to the thread-safety analysis.
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!disconnected_) {
      if (!cv_.WaitUntil(lk, deadline)) {
        break;  // interval elapsed
      }
    }
  }
}

base::Status Client::RejoinServer() {
  if (!cluster_->ServerUp()) {
    return base::Unavailable("server down");
  }
  uint64_t epoch = cluster_->ServerEpoch();
  std::vector<rvm::RegionId> regions;
  std::vector<std::pair<rvm::LockId, uint64_t>> applied;
  {
    base::MutexLock lk(mu_);
    server_epoch_seen_ = epoch;
    regions.reserve(mapped_regions_.size());
    for (const auto& [region, mapped] : mapped_regions_) {
      regions.push_back(region);
    }
    if (options_.policy != PropagationPolicy::kEager) {
      for (const auto& [lock, seq] : applied_seq_) {
        applied.emplace_back(lock, seq);
      }
    }
  }
  cluster_->NoteAlive(node_);
  for (rvm::RegionId region : regions) {
    cluster_->RegisterMapping(region, node_);
  }
  for (const auto& [lock, seq] : applied) {
    cluster_->NoteApplied(lock, node_, seq);
  }
  return base::OkStatus();
}

base::Result<rvm::Region*> Client::MapRegion(rvm::RegionId region, uint64_t length) {
  // The image fetch verifies every page against the checksum sidecar and
  // fails with DATA_LOSS on rot — corrupt bytes are never handed to the
  // application. Before giving up, ask the cluster's scrubber (if attached)
  // to repair the region from a replica or the merged logs, then re-fetch,
  // bounded so an unrepairable region still fails cleanly.
  // The image load is elastic server work: take a fetch slot first (with
  // the backoff budget), so an overloaded server sheds map-time fetches
  // instead of queueing them behind commits.
  RETURN_IF_ERROR(AdmitServer(Cluster::ServerQueue::kFetch));
  // First-touch interlock of incremental recovery: the indexed redo for this
  // region must be materialized before its image may be served, else the
  // fetch would read (and adopt baselines above) unreplayed bytes. The wait
  // on a file another thread is replaying is charged to the op deadline so
  // a stalled drain cannot park a mapping client forever.
  constexpr int kMaxFetchAttempts = 3;
  base::Result<rvm::Region*> mapped =
      base::Unavailable("region fetch not attempted");
  for (int attempt = 0; attempt < kMaxFetchAttempts; ++attempt) {
    if (attempt > 0) {
      // DATA_LOSS path: rot found either by the fetch's sidecar check or
      // lazily by the page materialization. Ask the cluster's scrubber to
      // heal the region (TryRepairRegion materializes first, so
      // recovery-in-progress is never misread as rot), then retry both the
      // materialization and the fetch.
      if (!cluster_->TryRepairRegion(region)) {
        break;
      }
      rvm::GlobalIntegrityMetrics()->image_fetch_retries->Increment();
    }
    base::Status recovered =
        cluster_->EnsureRegionRecovered(region, options_.op_deadline_ms);
    if (recovered.code() == base::StatusCode::kDeadlineExceeded) {
      cluster_->Finish(Cluster::ServerQueue::kFetch);
      m_.deadline_misses.Increment();
      return recovered;
    }
    if (!recovered.ok()) {
      mapped = recovered;
      continue;
    }
    mapped = rvm_->MapRegion(region, length);
    if (mapped.ok() || mapped.status().code() != base::StatusCode::kDataLoss) {
      break;
    }
  }
  cluster_->Finish(Cluster::ServerQueue::kFetch);
  if (!mapped.ok()) {
    return mapped.status();
  }
  rvm::Region* r = *mapped;
  {
    base::MutexLock lk(mu_);
    mapped_regions_[region] = true;
    // The image just loaded from the database file reflects everything up
    // to each lock's trim baseline: adopt those sequence numbers so the
    // interlock does not wait for updates that predate this mapping.
    std::vector<rvm::TransactionRecord> woken;
    for (rvm::LockId lock : cluster_->LocksForRegion(region)) {
      AdvanceAppliedLocked(lock, cluster_->BaselineSeq(lock), &woken);
    }
    DrainWokenLocked(&woken);
  }
  cluster_->RegisterMapping(region, node_);
  return r;
}

base::Status Client::UnmapRegion(rvm::RegionId region) {
  // The image goes first: a region an open transaction declared into is
  // refused here, before the mapping is withdrawn. Updates that arrive
  // before the withdrawal find no image and are skipped (DeliverLocked).
  RETURN_IF_ERROR(rvm_->UnmapRegion(region));
  {
    base::MutexLock lk(mu_);
    mapped_regions_.erase(region);
  }
  cluster_->UnregisterMapping(region, node_);
  // The region's locks gate nothing here any more: redeliver every held
  // record, to be re-keyed or applied.
  base::MutexLock lk(mu_);
  std::vector<rvm::TransactionRecord> woken;
  for (auto& [key, records] : std::exchange(held_, {})) {
    std::move(records.begin(), records.end(), std::back_inserter(woken));
  }
  DrainWokenLocked(&woken);
  cv_.NotifyAll();
  return base::OkStatus();
}

std::vector<rvm::RegionId> Client::MappedRegions() const {
  base::MutexLock lk(mu_);
  std::vector<rvm::RegionId> out;
  out.reserve(mapped_regions_.size());
  for (const auto& [region, mapped] : mapped_regions_) {
    out.push_back(region);
  }
  return out;
}

Transaction Client::Begin(rvm::RestoreMode mode) {
  return Transaction(this, rvm_->BeginTransaction(mode));
}

ClientStats Client::stats() const {
  ClientStats s;
  s.updates_sent = m_.updates_sent.value();
  s.update_bytes_sent = m_.update_bytes_sent.value();
  s.updates_received = m_.updates_received.value();
  s.updates_applied = m_.updates_applied.value();
  s.updates_held = m_.updates_held.value();
  s.updates_duplicate = m_.updates_duplicate.value();
  s.lock_messages_sent = m_.lock_messages_sent.value();
  s.acquire_waits = m_.acquire_waits.value();
  s.network_nanos = m_.network_nanos.value();
  s.records_fetched = m_.records_fetched.value();
  s.locks_reclaimed = m_.locks_reclaimed.value();
  s.revokes_received = m_.revokes_received.value();
  s.overload_retries = m_.overload_retries.value();
  s.deadline_misses = m_.deadline_misses.value();
  return s;
}

uint64_t Client::AppliedSeq(rvm::LockId lock) const {
  base::MutexLock lk(mu_);
  auto it = applied_seq_.find(lock);
  return it == applied_seq_.end() ? 0 : it->second;
}

size_t Client::RetainedCount(rvm::LockId lock) const {
  base::MutexLock lk(mu_);
  auto it = locks_.find(lock);
  return it == locks_.end() ? 0 : it->second.retained.size();
}

void Client::TrimRetainedLocked(rvm::LockId lock, LockState& st) {
  if (st.retained.empty()) {
    return;
  }
  uint64_t min_needed = cluster_->MinApplied(lock, node_);
  while (!st.retained.empty() && st.retained.front().SequenceOf(lock) <= min_needed) {
    st.retained.pop_front();
  }
}

bool Client::WaitForAppliedSeq(rvm::LockId lock, uint64_t seq, int timeout_ms) {
  base::MutexLock lk(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    auto it = applied_seq_.find(lock);
    if (it != applied_seq_.end() && it->second >= seq) {
      return true;
    }
    if (!cv_.WaitUntil(lk, deadline)) {
      auto late = applied_seq_.find(lock);
      return late != applied_seq_.end() && late->second >= seq;
    }
  }
}

// ---------------------------------------------------------------------------
// Commit path
// ---------------------------------------------------------------------------

void Client::OnCommit(const rvm::TransactionRecord& rec) {
  // Ordered, not yet durable: propagate, then pass the locks on. Successors
  // that read this record carry it into their own log batches until they
  // learn it is durable.
  if (!rec.ranges.empty()) {
    Propagate(rec);
  }
  // A read-only commit hands its sequence numbers back.
  ReleaseLocks(rec.locks, /*committed_updates=*/!rec.ranges.empty());
}

void Client::Propagate(const rvm::TransactionRecord& rec) {
  switch (options_.policy) {
    case PropagationPolicy::kEager:
      BroadcastEager(rec);
      break;
    case PropagationPolicy::kLazy:
      RetainForLazy(rec);
      break;
    case PropagationPolicy::kLazyServer:
      PublishToServer(rec);
      break;
  }
}

void Client::PublishToServer(const rvm::TransactionRecord& rec) {
  for (const auto& lock : rec.locks) {
    cluster_->CacheRecords(lock.lock_id, rec);  // a refcount bump
    cluster_->TrimRecordCache(lock.lock_id);
  }
}

void Client::BroadcastEager(const rvm::TransactionRecord& rec) {
  // Recipients: every peer that maps a modified region, plus peers of the
  // regions protected by the held locks (so their sequence interlock always
  // advances, even for updates entirely in another region). A commit names
  // few regions: sorted small vectors, and each lock's region comes from
  // its LockState, not the cluster's lock table.
  std::vector<rvm::RegionId> regions;
  regions.reserve(rec.ranges.size() + rec.locks.size());
  for (const auto& r : rec.ranges) {
    if (regions.empty() || regions.back() != r.region) {
      regions.push_back(r.region);
    }
  }
  {
    base::MutexLock lk(mu_);
    for (const auto& lock : rec.locks) {
      if (const LockState* st = StateIfDefined(lock.lock_id); st != nullptr) {
        regions.push_back(st->region);
      }
    }
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  std::vector<rvm::NodeId> peers;
  for (rvm::RegionId region : regions) {
    std::vector<rvm::NodeId> of = cluster_->PeersOf(region, node_);
    peers.insert(peers.end(), of.begin(), of.end());
  }
  if (peers.empty()) {
    return;
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());

  obs::ScopedTimer timer(&m_.network_nanos);
  // One refcounted committed-tail buffer, shared by every channel: each
  // per-peer send (and any retransmit) bumps a refcount instead of copying
  // the encoded record.
  base::Buffer payload =
      EncodeUpdateRecord(rec, options_.compress_headers, rvm_->DurableSeq());
  size_t sends = 0;
  if (options_.use_multicast) {
    // One multicast reaches every peer (§4.3.1's scaling remedy).
    base::Status st = endpoint_->Multicast(peers, payload);
    if (!st.ok()) {
      LBC_LOG(Warning) << "coherency multicast failed: " << st.ToString();
    }
    sends = 1;
  } else {
    for (rvm::NodeId peer : peers) {
      // One writev per peer, as in the prototype (§4.3.1): cost grows
      // linearly with the number of peers sharing the segment.
      base::Status st = channel_->Send(peer, payload);
      if (!st.ok()) {
        LBC_LOG(Warning) << "coherency send to node " << peer
                         << " failed: " << st.ToString();
      }
    }
    sends = peers.size();
  }
  timer.StopNanos();
  m_.updates_sent.Add(sends);
  m_.update_bytes_sent.Add(payload.size() * sends);
  obs::TraceRing::Global()->Emit(
      node_, obs::TraceType::kCommitBroadcast,
      rec.locks.empty() ? 0 : rec.locks.front().lock_id, rec.commit_seq,
      payload.size() * sends);
}

void Client::RetainForLazy(const rvm::TransactionRecord& rec) {
  base::MutexLock lk(mu_);
  for (const auto& lock : rec.locks) {
    LockState& st = StateFor(lock.lock_id);
    if (std::none_of(st.retained.begin(), st.retained.end(), [&](const auto& kept) {
          return kept.commit_seq == rec.commit_seq;  // a retried commit's
        })) {
      st.retained.push_back(rec);  // a refcount bump
    }
    TrimRetainedLocked(lock.lock_id, st);
  }
}

// ---------------------------------------------------------------------------
// Lock operations
// ---------------------------------------------------------------------------

Client::LockState& Client::StateFor(rvm::LockId lock) {
  LockState* st = StateIfDefined(lock);
  LBC_CHECK(st != nullptr);
  return *st;
}

Client::LockState* Client::StateIfDefined(rvm::LockId lock) {
  auto it = locks_.find(lock);
  if (it == locks_.end()) {
    auto spec = cluster_->GetLock(lock);
    if (!spec.ok()) {
      return nullptr;
    }
    LockState st;
    st.region = spec->region;
    st.queue_tail = spec->manager;
    st.have_token = (spec->manager == node_);
    it = locks_.emplace(lock, std::move(st)).first;
  }
  return &it->second;
}

base::Result<uint64_t> Client::AcquireLock(rvm::LockId lock) {
  ASSIGN_OR_RETURN(LockSpec spec, cluster_->GetLock(lock));
  if (rvm_->GetRegion(spec.region) == nullptr) {
    return base::FailedPrecondition("lock's region not mapped on this node");
  }

  obs::ScopedTimer acquire_timer(nullptr, acquire_nanos_);
  // Deadline budget: a gray manager or token holder must not park this
  // thread forever. 0 preserves the unbounded wait.
  const bool budgeted = options_.op_deadline_ms > 0;
  const auto op_deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(options_.op_deadline_ms);
  base::MutexLock lk(mu_);
  if (options_.versioned_reads) {
    AcceptLocked();  // acquiring implies moving forward to the newest version
  }
  ++acquires_waiting_;
  LockState& st = StateFor(lock);
  bool counted_wait = false;
  while (true) {
    bool interlock_stalled = false;
    if (disconnected_) {
      --acquires_waiting_;
      return base::Unavailable("client disconnected");
    }
    if (!st.held && st.have_token && !st.reclaiming) {
      uint64_t applied = applied_seq_[lock];
      if (applied >= st.token_seq) {
        break;  // token here and every preceding update applied (§3.4)
      }
      // Pull the missing records from the server's in-memory cache and
      // retry. Under kLazyServer this is the normal catch-up path (§2.2's
      // second lazy variant); under every policy it also covers updates a
      // dead writer committed but never propagated, which recovery
      // republished to the cache.
      FetchFromServerLocked(lock);
      if (applied_seq_[lock] >= st.token_seq) {
        break;
      }
      interlock_stalled = true;
      if (!counted_wait) {
        counted_wait = true;
        m_.acquire_waits.Increment();
        obs::TraceRing::Global()->Emit(node_, obs::TraceType::kInterlockStall, lock,
                                       applied_seq_[lock]);
      }
    } else if (!st.have_token && !st.requested) {
      st.requested = true;
      LockRequestMsg req{lock, node_, applied_seq_[lock], st.epoch};
      m_.lock_messages_sent.Increment();
      base::Status send_st = channel_->Send(spec.manager, EncodeLockRequest(req));
      if (!send_st.ok()) {
        st.requested = false;
        --acquires_waiting_;
        return send_st;
      }
    }
    bool expired = false;
    if (interlock_stalled) {
      // Token is here but updates lag behind it: charge the wait to the
      // paper's interlock cost.
      obs::ScopedTimer wait_timer(&interlock_wait_nanos_);
      if (budgeted) {
        expired = !cv_.WaitUntil(lk, op_deadline);
      } else {
        cv_.Wait(lk);
      }
    } else if (budgeted) {
      expired = !cv_.WaitUntil(lk, op_deadline);
    } else {
      cv_.Wait(lk);
    }
    if (expired) {
      // Give up, but keep the request state: a token that arrives after
      // this deadline is retained for the next acquire, not bounced.
      --acquires_waiting_;
      m_.deadline_misses.Increment();
      return base::DeadlineExceeded(
          "acquire of lock " + std::to_string(lock) + ": " +
          std::to_string(options_.op_deadline_ms) + "ms budget exhausted");
    }
  }
  --acquires_waiting_;
  uint64_t my_seq = ++st.token_seq;
  st.held = true;
  return my_seq;
}

void Client::ReleaseLocks(const std::vector<rvm::LockRecord>& held, bool committed_updates) {
  base::MutexLock lk(mu_);
  std::vector<rvm::TransactionRecord> woken;
  for (const auto& rec : held) {
    LockState& st = StateFor(rec.lock_id);
    st.held = false;
    if (committed_updates) {
      // Our own updates are trivially visible locally.
      AdvanceAppliedLocked(rec.lock_id, rec.sequence, &woken);
    } else {
      // Aborted or read-only: hand the sequence number back so peers never
      // wait for updates that will not come.
      if (st.have_token && st.token_seq == rec.sequence) {
        st.token_seq = rec.sequence - 1;
      }
    }
    if (st.have_token && st.next_holder.has_value() && !st.reclaiming) {
      PassTokenLocked(rec.lock_id, st);
    }
  }
  DrainWokenLocked(&woken);
  cv_.NotifyAll();
}

void Client::PassTokenLocked(rvm::LockId lock, LockState& st) {
  LockForwardMsg fwd = *st.next_holder;
  st.next_holder.reset();
  LockTokenMsg token;
  token.lock = lock;
  token.token_seq = st.token_seq;
  token.epoch = st.epoch;
  token.holder = node_;
  token.durable_seq = rvm_->DurableSeq();
  if (options_.policy == PropagationPolicy::kLazy) {
    // Drop records every current mapper has applied, then ship whatever the
    // requester is still missing (§2.2).
    TrimRetainedLocked(lock, st);
    for (const auto& rec : st.retained) {
      if (rec.SequenceOf(lock) > fwd.applied_seq) {
        token.piggyback.push_back(rec);
      }
    }
  }
  st.have_token = false;
  m_.lock_messages_sent.Increment();
  std::vector<uint8_t> payload = EncodeLockToken(token, options_.compress_headers);
  obs::TraceRing::Global()->Emit(node_, obs::TraceType::kTokenPass, lock, st.token_seq,
                                 payload.size());
  base::Status send_st = channel_->Send(fwd.requester, std::move(payload));
  if (!send_st.ok()) {
    LBC_LOG(Warning) << "token pass to node " << fwd.requester
                     << " failed: " << send_st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Client::OnMessage(netsim::Message&& msg) {
  base::ByteSpan payload(msg.payload.data(), msg.payload.size());
  auto type = PeekMsgType(payload);
  if (!type.ok()) {
    LBC_LOG(Error) << "undecodable message from node " << msg.from;
    return;
  }
  // Lock-protocol messages naming an undefined lock are adversarial (or
  // corrupt): drop them before they can touch lock state.
  auto known_lock = [this, &msg](rvm::LockId lock) {
    if (cluster_->GetLock(lock).ok()) {
      return true;
    }
    LBC_LOG(Error) << "lock message for undefined lock " << lock << " from node "
                   << msg.from;
    return false;
  };
  switch (*type) {
    case MsgType::kUpdate: {
      // The record views the message's bytes: it holds msg.payload (a
      // refcount bump) however long it waits in held_ or elsewhere.
      rvm::TransactionRecord rec;
      uint64_t durable_seq = 0;
      if (DecodeUpdate(msg.payload, &rec, &durable_seq).ok()) {
        HandleUpdate(std::move(rec), durable_seq);
      } else {
        LBC_LOG(Error) << "corrupt update from node " << msg.from;
      }
      break;
    }
    case MsgType::kLockRequest: {
      LockRequestMsg req;
      if (DecodeLockRequest(payload, &req).ok() && known_lock(req.lock)) {
        HandleLockRequest(req);
      }
      break;
    }
    case MsgType::kLockForward: {
      LockForwardMsg fwd;
      if (DecodeLockForward(payload, &fwd).ok() && known_lock(fwd.lock)) {
        HandleLockForward(fwd);
      }
      break;
    }
    case MsgType::kLockToken: {
      LockTokenMsg token;
      if (DecodeLockToken(msg.payload, &token).ok() && known_lock(token.lock)) {
        HandleLockToken(std::move(token));
      }
      break;
    }
    case MsgType::kLockRevoke: {
      LockRevokeMsg revoke;
      if (DecodeLockRevoke(payload, &revoke).ok() && known_lock(revoke.lock)) {
        HandleLockRevoke(revoke);
      }
      break;
    }
    case MsgType::kLockRevokeReply: {
      LockRevokeReplyMsg reply;
      if (DecodeLockRevokeReply(payload, &reply).ok() && known_lock(reply.lock)) {
        HandleLockRevokeReply(reply);
      }
      break;
    }
  }
}

void Client::HandleUpdate(rvm::TransactionRecord&& rec, uint64_t durable_seq) {
  base::MutexLock lk(mu_);
  m_.updates_received.Increment();
  rvm_->DropCarried(rec.node, durable_seq);  // the writer's durable watermark
  if (options_.versioned_reads && acquires_waiting_ == 0) {
    // Versioned-read model: stay on the current consistent version until
    // the application accepts (or acquires a lock).
    version_buffer_.push_back(std::move(rec));
    return;
  }
  std::vector<rvm::TransactionRecord> woken;
  if (!DeliverLocked(std::move(rec), &woken)) {
    m_.updates_held.Increment();
  }
  DrainWokenLocked(&woken);
  cv_.NotifyAll();
}

void Client::HandleLockRequest(const LockRequestMsg& msg) {
  base::MutexLock lk(mu_);
  LockState& st = StateFor(msg.lock);
  if (msg.epoch < st.epoch) {
    // A request routed before a reclaim (possibly from the dead node
    // itself). Drop it, but tell the requester the current epoch so a live
    // node that merely missed the revoke — e.g. one that mapped the region
    // after the reclaim — can resend instead of waiting forever.
    LockRevokeMsg sync{msg.lock, st.epoch, node_};
    m_.lock_messages_sent.Increment();
    lk.Unlock();
    base::IgnoreError(channel_->Send(msg.requester, EncodeLockRevoke(sync)));
    return;
  }
  rvm::NodeId prev_tail = st.queue_tail;
  st.queue_tail = msg.requester;
  LockForwardMsg fwd{msg.lock, msg.requester, msg.applied_seq, st.epoch};
  if (prev_tail == node_) {
    HandleForwardLocked(fwd);
    cv_.NotifyAll();
    return;
  }
  m_.lock_messages_sent.Increment();
  lk.Unlock();
  base::Status st_send = channel_->Send(prev_tail, EncodeLockForward(fwd));
  if (!st_send.ok()) {
    LBC_LOG(Warning) << "lock forward to node " << prev_tail
                     << " failed: " << st_send.ToString();
  }
}

void Client::HandleLockForward(const LockForwardMsg& msg) {
  base::MutexLock lk(mu_);
  if (msg.epoch < StateFor(msg.lock).epoch) {
    return;  // routed before a reclaim; the requester re-requests
  }
  HandleForwardLocked(msg);
  cv_.NotifyAll();
}

void Client::HandleForwardLocked(const LockForwardMsg& msg) {
  LockState& st = StateFor(msg.lock);
  if (msg.requester == node_) {
    // Our own request reached us as the queue tail: only a reclaim leaves
    // the manager at the tail without the token. The request heads the
    // rebuilt queue, and FinishReclaimLocked hands it the reissued token.
    // (Keeping it as next_holder would let the next forward overwrite it.)
    if (st.have_token) {
      st.requested = false;
    } else {
      st.self_queued = true;
    }
    return;
  }
  st.next_holder = msg;
  // Pass an idle token at once. Otherwise pass it at the next release: we
  // are still waiting for it, a local transaction holds the lock, or — as
  // manager — a reclaim round is deciding where the token is, and
  // FinishReclaimLocked passes it.
  if (st.have_token && !st.held && !st.reclaiming) {
    PassTokenLocked(msg.lock, st);
  }
}

void Client::HandleLockToken(LockTokenMsg&& msg) {
  base::MutexLock lk(mu_);
  LockState& st = StateFor(msg.lock);
  if (msg.epoch < st.epoch) {
    // A stale token overtaken by a reclaim (e.g. passed by a node that had
    // not yet seen the revoke). The manager has reissued it; accepting this
    // one could create two tokens.
    return;
  }
  st.epoch = msg.epoch;
  rvm_->DropCarried(msg.holder, msg.durable_seq);  // the holder's durable watermark
  // Lazy policy: the piggybacked records are exactly the updates this node
  // is missing; apply them before announcing the token.
  std::vector<rvm::TransactionRecord> woken;
  for (auto& rec : msg.piggyback) {
    DeliverLocked(std::move(rec), &woken);
  }
  DrainWokenLocked(&woken);
  st.have_token = true;
  st.requested = false;
  st.token_seq = msg.token_seq;
  cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// Client-failure recovery (token reclamation + update re-fetch)
// ---------------------------------------------------------------------------

base::Status Client::OnPeerDeath(rvm::NodeId dead) {
  if (dead == node_) {
    return base::InvalidArgument("node cannot declare itself dead");
  }
  // Server side first: merge the dead node's durable log into the database
  // files and publish its records to the record cache, so everything below
  // finds the post-merge baselines and fetchable records in place.
  RETURN_IF_ERROR(cluster_->RecoverDeadClient(dead));
  channel_->ForgetPeer(dead);  // stop retransmitting into the void
  SecureRecordsOfDead();  // before StartReclaim reads this node's sequences
  for (rvm::LockId lock : cluster_->AllLocks()) {
    auto spec = cluster_->GetLock(lock);
    if (!spec.ok() || spec->manager != node_) {
      continue;  // each lock is reclaimed by its own (live) manager
    }
    StartReclaim(lock, spec->region, dead);
  }
  // Updates the dead writer committed but never propagated are now in the
  // server record cache; pull whatever this cache is missing. (Mappers of
  // regions whose locks other nodes manage do the same when the revoke
  // reaches them.)
  base::MutexLock lk(mu_);
  for (const auto& [region, mapped] : mapped_regions_) {
    for (rvm::LockId lock : cluster_->LocksForRegion(region)) {
      FetchFromServerLocked(lock);
    }
  }
  cv_.NotifyAll();
  return base::OkStatus();
}

void Client::StartReclaim(rvm::LockId lock, rvm::RegionId region, rvm::NodeId dead) {
  // RecoverDeadClient already withdrew the dead node's mappings, so this is
  // the live mapper set.
  std::vector<rvm::NodeId> mappers = cluster_->PeersOf(region, node_);
  base::MutexLock lk(mu_);
  LockState& st = StateFor(lock);
  if (st.reclaiming) {
    return;  // a round is already in flight; it collects the same state
  }
  st.reclaiming = true;
  st.epoch += 1;
  // Wipe chain state built under the old epoch: the manager is the queue
  // tail again, and live waiters re-request when the revoke reaches them.
  st.requested = false;
  st.self_queued = false;
  st.next_holder.reset();
  st.queue_tail = node_;
  st.reclaim_owner = (st.have_token && st.held) ? node_ : 0;
  st.reclaim_max_seq = std::max({st.token_seq, applied_seq_[lock], HeldMaxSeqLocked(lock)});
  st.reclaim_pending.clear();
  for (rvm::NodeId n : mappers) {
    if (n != dead && n != node_) {
      st.reclaim_pending.insert(n);
    }
  }
  m_.locks_reclaimed.Increment();
  obs::TraceRing::Global()->Emit(node_, obs::TraceType::kReclaimRound, lock, st.epoch);
  if (st.reclaim_pending.empty()) {
    FinishReclaimLocked(lock, st);
    cv_.NotifyAll();
    return;
  }
  LockRevokeMsg revoke{lock, st.epoch, node_};
  std::vector<uint8_t> payload = EncodeLockRevoke(revoke);
  std::vector<rvm::NodeId> targets(st.reclaim_pending.begin(), st.reclaim_pending.end());
  m_.lock_messages_sent.Add(targets.size());
  lk.Unlock();
  for (rvm::NodeId n : targets) {
    base::Status send_st = channel_->Send(n, payload);
    if (!send_st.ok()) {
      LBC_LOG(Warning) << "lock revoke to node " << n
                       << " failed: " << send_st.ToString();
    }
  }
}

void Client::HandleLockRevoke(const LockRevokeMsg& msg) {
  // The reissued token may not skip or reuse a sequence some record of the
  // dead writer holds: make those this node carries or holds durable, and
  // fetchable, before answering.
  SecureRecordsOfDead();
  base::MutexLock lk(mu_);
  LockState& st = StateFor(msg.lock);
  m_.revokes_received.Increment();
  if (msg.epoch <= st.epoch) {
    return;  // stale or already-processed revoke
  }
  st.epoch = msg.epoch;
  LockRevokeReplyMsg reply;
  reply.lock = msg.lock;
  reply.epoch = msg.epoch;
  reply.node = node_;
  reply.token_seq = st.token_seq;
  if (st.held) {
    // A local transaction legitimately holds the lock: the token stays put
    // and the manager anchors the rebuilt queue at this node.
    reply.holding = true;
  } else if (st.have_token) {
    reply.had_token = true;
    st.have_token = false;
  }
  st.requested = false;    // blocked acquires re-request under the new epoch
  st.next_holder.reset();  // the chain is rebuilt from scratch at the manager
  // The dead writer's unpropagated committed updates are in the server
  // cache by now (recovery runs before the revoke is sent); catch up so the
  // reissued token's interlock can be satisfied.
  FetchFromServerLocked(msg.lock);
  // A record still held here names an ordered sequence too.
  reply.applied_seq = std::max(applied_seq_[msg.lock], HeldMaxSeqLocked(msg.lock));
  m_.lock_messages_sent.Increment();
  lk.Unlock();
  base::Status send_st = channel_->Send(msg.manager, EncodeLockRevokeReply(reply));
  if (!send_st.ok()) {
    LBC_LOG(Warning) << "revoke reply to node " << msg.manager
                     << " failed: " << send_st.ToString();
  }
  cv_.NotifyAll();
}

void Client::HandleLockRevokeReply(const LockRevokeReplyMsg& msg) {
  base::MutexLock lk(mu_);
  LockState& st = StateFor(msg.lock);
  if (!st.reclaiming || msg.epoch != st.epoch) {
    return;  // reply to an epoch-sync revoke, or from a superseded round
  }
  st.reclaim_pending.erase(msg.node);
  st.reclaim_max_seq = std::max({st.reclaim_max_seq, msg.token_seq, msg.applied_seq});
  if (msg.holding) {
    st.reclaim_owner = msg.node;
  }
  if (st.reclaim_pending.empty()) {
    FinishReclaimLocked(msg.lock, st);
  }
  cv_.NotifyAll();
}

void Client::FinishReclaimLocked(rvm::LockId lock, LockState& st) {
  st.reclaiming = false;
  st.reclaim_max_seq = std::max(st.reclaim_max_seq, cluster_->BaselineSeq(lock));
  if (st.reclaim_owner != 0 && st.reclaim_owner != node_) {
    // A live transaction holds the lock; the token stays with that node and
    // the waiter queue rebuilt here during the round follows it: its head
    // (our own request, or the first requester) is forwarded to the holder.
    st.have_token = false;
    std::optional<LockForwardMsg> head;
    if (st.self_queued) {
      st.self_queued = false;
      head = LockForwardMsg{lock, node_, applied_seq_[lock], st.epoch};
    } else if (st.next_holder.has_value()) {
      head = std::exchange(st.next_holder, std::nullopt);
    }
    if (!head.has_value()) {
      st.queue_tail = st.reclaim_owner;
      return;
    }
    m_.lock_messages_sent.Increment();
    if (base::Status sent = channel_->Send(st.reclaim_owner, EncodeLockForward(*head));
        !sent.ok()) {
      LBC_LOG(Warning) << "lock forward to node " << st.reclaim_owner
                       << " failed: " << sent.ToString();
    }
    return;
  }
  // The token was lost with the dead node (or is already here): reissue it
  // at the highest sequence any survivor — or the dead node's merged log —
  // observed. Acquires the dead node completed above that never committed
  // anything visible, so they are abandoned exactly like aborted ones.
  st.have_token = true;
  st.token_seq = std::max(st.token_seq, st.reclaim_max_seq);
  if (st.self_queued) {
    // Our own acquire heads the queue: it takes the token, and the release
    // passes it on to next_holder.
    st.self_queued = false;
    st.requested = false;
    if (acquires_waiting_ > 0) {
      return;
    }
  }
  if (st.next_holder.has_value() && !st.held) {
    PassTokenLocked(lock, st);
  }
}

void Client::SecureRecordsOfDead() {
  std::vector<rvm::TransactionRecord> records;
  {
    base::MutexLock lk(mu_);
    for (const auto& [key, held] : held_) {
      for (const rvm::TransactionRecord& rec : held) {
        if (cluster_->IsDead(rec.node)) {
          rvm_->Carry(rec);
          records.push_back(rec);
        }
      }
    }
  }
  for (rvm::NodeId dead : cluster_->DeadNodes()) {
    std::vector<rvm::TransactionRecord> carried = rvm_->CarriedFrom(dead);
    std::move(carried.begin(), carried.end(), std::back_inserter(records));
  }
  if (records.empty()) {
    return;
  }
  // Into this node's log, and into the server cache for survivors that
  // never received them (the dead writer's broadcast may have stopped
  // halfway).
  if (base::Status st = rvm_->ForceCarried(); !st.ok()) {
    LBC_LOG(Warning) << "forcing a dead writer's records failed: " << st.ToString();
  }
  for (const rvm::TransactionRecord& rec : records) {
    for (const rvm::LockRecord& lock : rec.locks) {
      cluster_->CacheRecords(lock.lock_id, rec);
    }
  }
}

uint64_t Client::HeldMaxSeqLocked(rvm::LockId lock) const {
  uint64_t max_seq = 0;
  for (const auto& [key, held] : held_) {
    for (const rvm::TransactionRecord& rec : held) {
      max_seq = std::max(max_seq, rec.SequenceOf(lock));
    }
  }
  return max_seq;
}

void Client::DropFoldedRecords() {
  const uint64_t epoch = cluster_->TrimEpoch();
  if (trim_epoch_seen_.exchange(epoch) == epoch) {
    return;
  }
  rvm_->DropFolded(cluster_->TrimCut());
}

void Client::FetchFromServerLocked(rvm::LockId lock) {
  uint64_t applied = applied_seq_[lock];
  std::vector<rvm::TransactionRecord> records = cluster_->FetchRecordsSince(lock, applied);
  if (!records.empty()) {
    obs::TraceRing::Global()->Emit(node_, obs::TraceType::kRecordFetch, lock, applied,
                                   records.size());
  }
  std::vector<rvm::TransactionRecord> woken;
  for (auto& rec : records) {
    m_.records_fetched.Increment();
    DeliverLocked(std::move(rec), &woken);
  }
  DrainWokenLocked(&woken);
}

// ---------------------------------------------------------------------------
// Update application (§3.4 ordering interlock)
// ---------------------------------------------------------------------------

void Client::DrainWokenLocked(std::vector<rvm::TransactionRecord>* woken) {
  // A worklist, not recursion: a long reordered chain wakes one successor
  // per apply.
  while (!woken->empty()) {
    rvm::TransactionRecord next = std::move(woken->back());
    woken->pop_back();
    DeliverLocked(std::move(next), woken);
  }
}

bool Client::DeliverLocked(rvm::TransactionRecord rec,
                           std::vector<rvm::TransactionRecord>* woken) {
  // Consider only lock dimensions whose protected region is mapped here; we
  // receive updates for those locks completely, so their sequences gate
  // application. Locks of unmapped regions are irrelevant to this cache,
  // and so are locks the cluster never defined.
  bool any_relevant = false;
  bool all_applied = true;
  for (const auto& lr : rec.locks) {
    const LockState* st = StateIfDefined(lr.lock_id);
    if (st == nullptr || rvm_->GetRegion(st->region) == nullptr) {
      continue;
    }
    any_relevant = true;
    uint64_t applied = 0;
    if (auto it = applied_seq_.find(lr.lock_id); it != applied_seq_.end()) {
      applied = it->second;
    }
    if (applied >= lr.sequence) {
      continue;  // this dimension already satisfied
    }
    all_applied = false;
    if (applied + 1 != lr.sequence) {
      // A predecessor update is still missing: hold until it applies (§3.4).
      held_[{lr.lock_id, lr.sequence - 1}].push_back(std::move(rec));
      return false;
    }
  }
  if (any_relevant && all_applied) {
    m_.updates_duplicate.Increment();  // e.g. lazy piggyback overlapping a resend
    return true;
  }

  // One rvm lock acquisition for the whole record (order: mu_ -> rvm).
  // kNotFound: a region not cached here — those bytes are not ours to keep.
  if (base::Status st = rvm_->ApplyExternalRanges(rec);
      !st.ok() && st.code() != base::StatusCode::kNotFound) {
    LBC_LOG(Error) << "apply failed: " << st.ToString();
  }
  for (const auto& lr : rec.locks) {
    AdvanceAppliedLocked(lr.lock_id, lr.sequence, woken);
  }
  m_.updates_applied.Increment();
  // Carried while mu_ is still held, so before any local transaction can
  // read these bytes and order: its batch writes the record unless the
  // writer has said it is durable.
  rvm_->Carry(std::move(rec));
  return true;
}

void Client::AdvanceAppliedLocked(rvm::LockId lock, uint64_t seq,
                                  std::vector<rvm::TransactionRecord>* woken) {
  uint64_t& applied = applied_seq_[lock];
  applied = std::max(applied, seq);
  if (options_.policy != PropagationPolicy::kEager) {
    cluster_->NoteApplied(lock, node_, applied);
  }
  auto first = held_.lower_bound({lock, 0});
  auto last = held_.upper_bound({lock, applied});
  for (auto it = first; it != last; ++it) {
    std::move(it->second.begin(), it->second.end(), std::back_inserter(*woken));
  }
  held_.erase(first, last);
}

base::Status Client::Accept() {
  base::MutexLock lk(mu_);
  AcceptLocked();
  cv_.NotifyAll();
  return base::OkStatus();
}

void Client::AcceptLocked() {
  std::vector<rvm::TransactionRecord> woken;
  for (rvm::TransactionRecord& rec : version_buffer_) {
    DeliverLocked(std::move(rec), &woken);
  }
  version_buffer_.clear();
  DrainWokenLocked(&woken);
}

}  // namespace lbc
