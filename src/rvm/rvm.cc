#include "src/rvm/rvm.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "src/base/clock.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_format.h"
#include "src/rvm/page_checksum.h"

namespace rvm {

Rvm::Rvm(store::DurableStore* store, NodeId node, const RvmOptions& options)
    : store_(store),
      node_(node),
      options_(options),
      attached_(obs::MetricsRegistry::Global(), obs::NodeMetricName("rvm", node, ""),
                {{"set_range_calls", &m_.set_range_calls},
                 {"set_range_duplicates", &m_.set_range_duplicates},
                 {"commits", &m_.transactions_committed},
                 {"transactions_aborted", &m_.transactions_aborted},
                 {"ranges_logged", &m_.ranges_logged},
                 {"bytes_logged", &m_.bytes_logged},
                 {"pages_logged", &m_.pages_logged},
                 {"adaptive_pages_coalesced", &m_.adaptive_pages_coalesced},
                 {"commit.batch.bytes", &m_.log_bytes_written},
                 {"commit.batch.batches", &m_.commit_batches},
                 {"commit.batch.txns", &m_.commit_batch_txns},
                 {"commit.batch.fsyncs_saved", &m_.fsyncs_saved},
                 {"commit.batch.carried", &m_.carried_written},
                 {"collect_nanos", &m_.collect_nanos},
                 {"disk_nanos", &m_.disk_nanos},
                 {"apply_nanos", &m_.apply_nanos},
                 {"external_updates_applied", &m_.external_updates_applied},
                 {"external_bytes_applied", &m_.external_bytes_applied},
                 {"backpressure.stalls", &m_.backpressure_stalls},
                 {"backpressure.stall_nanos", &m_.backpressure_stall_nanos},
                 {"backpressure.trim_requests", &m_.trim_requests},
                 {"backpressure.exhausted", &m_.commits_exhausted}}),
      commit_nanos_(obs::MetricsRegistry::Global()->GetHistogram(
          obs::NodeMetricName("rvm", node, "commit_nanos"))),
      batch_size_(obs::MetricsRegistry::Global()->GetHistogram("commit.batch.size")),
      cohort_wait_nanos_(
          obs::MetricsRegistry::Global()->GetHistogram("commit.batch.cohort_wait_nanos")) {}

base::Result<std::unique_ptr<Rvm>> Rvm::Open(store::DurableStore* store, NodeId node,
                                             const RvmOptions& options) {
  std::unique_ptr<Rvm> rvm(new Rvm(store, node, options));
  RETURN_IF_ERROR(rvm->Init());
  return rvm;
}

base::Status Rvm::Init() {
  // Init runs before the instance escapes Open(), but commit_seq_ and log_
  // are guarded members and this is an ordinary method, so hold the lock.
  base::MutexLock lock(mu_);
  ASSIGN_OR_RETURN(auto file, store_->Open(LogFileName(node_), /*create=*/true));
  // Append after any existing valid records; a torn tail is overwritten.
  uint64_t valid_end = 0;
  {
    LogReader reader(file.get());
    base::ByteSpan payload;
    bool at_end = false;
    while (true) {
      RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
      if (at_end) {
        break;
      }
      TransactionRecord txn;
      if (PeekKind(payload).ok() && DecodeTransaction(payload, reader.block(), &txn).ok() &&
          txn.node == node_) {
        commit_seq_ = std::max(commit_seq_, txn.commit_seq);
      }
      valid_end = reader.offset();
    }
  }
  PublishDurableSeqLocked();
  {
    base::MutexLock log_lock(log_mu_);
    log_ = std::make_unique<LogWriter>(std::move(file), valid_end);
  }
  return base::OkStatus();
}

base::Result<Region*> Rvm::MapRegion(RegionId id, uint64_t length) {
  base::MutexLock lock(mu_);
  if (regions_.count(id)) {
    return base::AlreadyExists("region already mapped: " + std::to_string(id));
  }
  ASSIGN_OR_RETURN(auto file, store_->Open(RegionFileName(id), /*create=*/true));
  std::vector<uint8_t> image(length, 0);
  ASSIGN_OR_RETURN(uint64_t file_size, file->Size());
  uint64_t to_read = std::min<uint64_t>(file_size, length);
  if (to_read > 0) {
    RETURN_IF_ERROR(file->ReadExact(0, image.data(), to_read));
  }
  // Integrity gate on the image fetch: a page that fails its sidecar
  // checksum must not become a client's cached truth. Refuse the mapping
  // (DATA_LOSS) and leave repair to the scrubber — the client retries.
  ASSIGN_OR_RETURN(auto bad_pages,
                   VerifyImagePages(store_, id, image.data(), to_read, file_size));
  if (!bad_pages.empty()) {
    return base::DataLoss("region " + std::to_string(id) + " failed checksum on " +
                          std::to_string(bad_pages.size()) + " page(s); first bad page " +
                          std::to_string(bad_pages.front()));
  }
  auto region = std::make_unique<Region>(id, std::move(image));
  Region* raw = region.get();
  regions_[id] = std::move(region);
  return raw;
}

Region* Rvm::GetRegion(RegionId id) {
  base::MutexLock lock(mu_);
  auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : it->second.get();
}

base::Status Rvm::UnmapRegion(RegionId id) {
  base::MutexLock lock(mu_);
  auto it = regions_.find(id);
  if (it == regions_.end()) {
    return base::NotFound("region not mapped: " + std::to_string(id));
  }
  if (it->second->pins_ > 0) {
    return base::FailedPrecondition("region " + std::to_string(id) + " has ranges declared by " +
                                    std::to_string(it->second->pins_) + " open transaction(s)");
  }
  regions_.erase(it);
  return base::OkStatus();
}

Rvm::TxnHandle Rvm::BeginTransaction(RestoreMode mode) {
  base::MutexLock lock(mu_);
  TxnId id = next_txn_++;
  Txn& txn = txns_[id];
  txn.mode = mode;
  return TxnHandle(id, &txn);
}

namespace {

// [offset, offset+len) lies inside a region of `size` bytes. Written so it
// cannot wrap: `offset + len` overflows for huge offsets.
bool Covers(uint64_t size, uint64_t offset, uint64_t len) {
  return len <= size && offset <= size - len;
}

}  // namespace

base::Status Rvm::SetRange(TxnId txn_id, RegionId region_id, uint64_t offset, uint64_t len) {
  TxnHandle handle;
  {
    base::MutexLock lock(mu_);
    if (auto it = txns_.find(txn_id); it != txns_.end()) {
      handle = TxnHandle(txn_id, &it->second);
    }
  }
  return SetRange(handle, region_id, offset, len);
}

base::Status Rvm::DeclareIn(Txn& txn, RegionId region_id, uint64_t offset, uint64_t len) {
  auto it = txn.declared.find(region_id);
  if (it == txn.declared.end()) {
    base::MutexLock lock(mu_);
    auto region_it = regions_.find(region_id);
    if (region_it == regions_.end()) {
      return base::NotFound("region not mapped: " + std::to_string(region_id));
    }
    Region* region = region_it->second.get();
    // Checked before the pin: a refused first call leaves no entry.
    if (!Covers(region->size(), offset, len)) {
      return base::OutOfRange("set_range beyond region end");
    }
    ++region->pins_;
    it = txn.declared
             .emplace(region_id,
                      Txn::Declared{region, RangeSet(options_.coalesce, last_txn_ranges_)})
             .first;
  }
  txn.last = &it->second;
  return base::OkStatus();
}

base::Status Rvm::SetRange(TxnHandle handle, RegionId region_id, uint64_t offset, uint64_t len) {
  if (handle.txn_ == nullptr) {
    return base::FailedPrecondition("no such active transaction");
  }
  // Lock-free by the ownership rule (see TxnHandle): only this thread
  // touches the write set, and the pinned region stays mapped.
  Txn& txn = *handle.txn_;
  if (txn.last == nullptr || txn.last->region->id() != region_id) {
    RETURN_IF_ERROR(DeclareIn(txn, region_id, offset, len));
  }
  Txn::Declared& declared = *txn.last;
  if (!Covers(declared.region->size(), offset, len)) {
    return base::OutOfRange("set_range beyond region end");
  }
  const AddOutcome outcome = declared.ranges.Add(offset, len);

  // Undo copies: snapshot the declared range before the application mutates
  // it. Exact re-registrations skip the snapshot — the first registration
  // already holds the pre-transaction bytes. A grown re-registration
  // snapshots its whole new extent: undo entries are restored in reverse
  // order, so the earlier snapshot still wins for the bytes it covers.
  if (txn.mode == RestoreMode::kRestore && outcome != AddOutcome::kExactDuplicate) {
    Region* region = declared.region;
    Txn::UndoEntry undo;
    undo.region = region;
    undo.offset = offset;
    undo.old_data.assign(region->data() + offset, region->data() + offset + len);
    txn.undo.push_back(std::move(undo));
  }

  ++txn.set_range_calls;
  if (outcome == AddOutcome::kExactDuplicate || outcome == AddOutcome::kGrown) {
    ++txn.set_range_duplicates;
  }
  return base::OkStatus();
}

base::Status Rvm::SetLockId(TxnId txn_id, LockId lock, uint64_t sequence) {
  base::MutexLock lock_guard(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return base::FailedPrecondition("no such active transaction");
  }
  // Strict two-phase locking means each lock is acquired at most once per
  // transaction (§3.3); a repeated call updates the sequence number.
  for (auto& rec : it->second.locks) {
    if (rec.lock_id == lock) {
      rec.sequence = sequence;
      return base::OkStatus();
    }
  }
  it->second.locks.push_back(LockRecord{lock, sequence});
  return base::OkStatus();
}

base::Status Rvm::StallForLogSpaceLocked(base::MutexLock& lock) {
  // Hard-watermark backpressure: stall (never abort) until a trim frees log
  // space or the stall budget runs out. The wait releases mu_, so a janitor
  // thread can run TrimLogWithBaselines/ResetLog meanwhile; the first
  // staller also fires the trim hook itself, exactly once per episode.
  const uint64_t hard = options_.log_hard_limit_bytes;
  if (!options_.disk_logging || hard == 0 || CurrentLogBytes() < hard) {
    return base::OkStatus();
  }
  m_.backpressure_stalls.Increment();
  const uint64_t start = base::SteadyClock::Instance()->NowNanos();
  const uint64_t deadline = start + options_.backpressure_stall_ms * 1'000'000ull;
  base::Status stall_status = base::OkStatus();
  while (CurrentLogBytes() >= hard) {
    // Deadline first, re-read every iteration: both the trim hook and the
    // condvar wait release mu_ for unbounded stretches, so any step below
    // may land back here long past the budget.
    uint64_t now = base::SteadyClock::Instance()->NowNanos();
    if (now >= deadline) {
      m_.commits_exhausted.Increment();
      stall_status = base::ResourceExhausted(
          "log quota: " + std::to_string(CurrentLogBytes()) +
          " bytes at hard watermark " + std::to_string(hard) +
          " and trim freed no space");
      break;
    }
    // One hook firing per stall episode across ALL stalled commits: the
    // guard is shared state cleared by the trims themselves, not a
    // per-caller local, so late arrivals wait for the in-flight trim
    // instead of stacking redundant requests behind it.
    if (trim_hook_ && !trim_hook_fired_) {
      trim_hook_fired_ = true;
      m_.trim_requests.Increment();
      uint64_t used = CurrentLogBytes();
      lock.Unlock();
      trim_hook_(used, hard);
      lock.Lock();
      log_space_cv_.NotifyAll();
      continue;
    }
    // Clamp the nap to the remaining budget: a wait granted just under the
    // deadline must not overshoot it by a full tick.
    log_space_cv_.WaitFor(
        lock, std::chrono::nanoseconds(std::min<uint64_t>(deadline - now, 5'000'000ull)));
  }
  m_.backpressure_stall_nanos.Add(base::SteadyClock::Instance()->NowNanos() - start);
  return stall_status;
}

namespace {

constexpr uint64_t kPageSize = 8192;

// Calls `emit(offset, len)` for each range a region's sorted write set logs:
// every range, except that with the adaptive hybrid on, the ranges that
// start in an update-dense page (more than `per_page` of them) become one
// span covering them. Returns the number of pages collapsed so.
template <typename Emit>
uint64_t ForEachLoggedRange(const std::vector<Range>& ranges, uint32_t per_page, Emit&& emit) {
  uint64_t collapsed = 0;
  for (size_t i = 0, j = 0; i < ranges.size(); i = j) {
    // Ranges i..j-1 start in one page.
    const uint64_t page = ranges[i].offset / kPageSize;
    uint64_t span_end = 0;
    for (j = i; j < ranges.size() && ranges[j].offset / kPageSize == page; ++j) {
      span_end = std::max(span_end, ranges[j].offset + ranges[j].len);
    }
    if (per_page > 0 && j - i > per_page) {
      emit(ranges[i].offset, span_end - ranges[i].offset);
      ++collapsed;
      continue;
    }
    for (size_t k = i; k < j; ++k) {
      emit(ranges[k].offset, ranges[k].len);
    }
  }
  return collapsed;
}

}  // namespace

std::shared_ptr<const TransactionRecord> Rvm::OrderLocked(Txn& txn) {
  auto shared = std::make_shared<TransactionRecord>();
  TransactionRecord& rec = *shared;
  rec.node = node_;
  rec.commit_seq = ++commit_seq_;
  rec.locks = txn.locks;
  const uint32_t per_page = options_.adaptive_ranges_per_page;

  // First pass, over the sorted write set: what the record will hold and,
  // for the log, the payload's exact size.
  size_t n_ranges = 0;
  uint64_t data_bytes = 0;
  size_t ranges_size = 0;
  uint64_t pages = 0;
  uint64_t pages_coalesced = 0;
  uint64_t prev_start = UINT64_MAX;
  for (auto& [region_id, entry] : txn.declared) {
    uint64_t next_uncounted_page = 0;
    pages_coalesced += ForEachLoggedRange(
        entry.ranges.ranges(), per_page, [&, region_id = region_id](uint64_t offset, uint64_t len) {
          ++n_ranges;
          data_bytes += len;
          ranges_size += RangeHeaderSize(prev_start, region_id, offset, len) + len;
          prev_start = offset;
          if (len == 0) {
            return;
          }
          // Distinct-page counting: span starts are in address order, but a
          // coalesced span can extend many pages past its start, so the next
          // span may begin pages BEHIND the furthest page already counted.
          // Track the first not-yet-counted page, not just the previous
          // span's last page, or those pages get counted twice.
          const uint64_t first = std::max(offset / kPageSize, next_uncounted_page);
          const uint64_t last = (offset + len - 1) / kPageSize;
          if (first <= last) {
            pages += last - first + 1;
            next_uncounted_page = last + 1;
          }
        });
  }
  m_.pages_logged.Add(pages);
  m_.adaptive_pages_coalesced.Add(pages_coalesced);
  m_.ranges_logged.Add(n_ranges);
  m_.bytes_logged.Add(data_bytes);

  // Read-only transactions (no registered ranges) leave no log record: the
  // coherency layer rolls their lock sequence numbers back, so a record
  // would only confuse the merge order.
  const bool logged = options_.disk_logging && n_ranges > 0;
  // Second pass: write the payload NOW, while the images still hold exactly
  // this transaction's bytes (later transactions overwrite the live images
  // before the batch leader gets this record to disk). The payload doubles
  // as the zero-copy broadcast buffer: rec.bytes is refcounted, so the
  // commit hook (and every peer channel it fans out to) reads bytes that
  // can no longer change. It is written with disk logging off too, so every
  // record is its payload.
  base::Writer w(TransactionPrefixSize(rec, n_ranges) + ranges_size);
  WriteTransactionPrefix(&w, rec, n_ranges);
  prev_start = UINT64_MAX;
  for (auto& [region_id, entry] : txn.declared) {
    // The transaction pins the region: it is still mapped.
    const uint8_t* image = entry.region->data();
    ForEachLoggedRange(entry.ranges.ranges(), per_page,
                       [&, region_id = region_id](uint64_t offset, uint64_t len) {
                         WriteRange(&w, prev_start, region_id, offset,
                                    base::ByteSpan(image + offset, len));
                         prev_start = offset;
                       });
  }
  AdoptWrittenPayload(&rec, base::Buffer(w.TakeBytes()), n_ranges);
  if (logged) {
    txn.ordered = shared;
    owed_.try_emplace({node_, rec.commit_seq}, Owed{shared, false, ++order_clock_});
  }
  PublishDurableSeqLocked();
  return shared;
}

base::Status Rvm::EndTransaction(TxnId txn_id, CommitMode mode) {
  // Whole-commit latency (gather + commit hook + log write) for the
  // histogram; the phase counters below split the same work.
  obs::ScopedTimer commit_timer(nullptr, commit_nanos_);
  // The one ordered record: the transaction and owed_ keep it, the hook reads
  // it by reference. A retry leaves it null: its hook ran already.
  std::shared_ptr<const TransactionRecord> rec;
  bool crossed_soft = false;
  {
    obs::ScopedTimer collect_timer(&m_.collect_nanos);
    base::MutexLock lock(mu_);
    auto it = txns_.find(txn_id);
    if (it == txns_.end()) {
      return base::FailedPrecondition("no such active transaction");
    }
    if (it->second.ordered == nullptr) {
      // Backpressure runs before ordering, so a stall that runs out leaves
      // the transaction active and unordered. The stall drops mu_: look the
      // transaction up again.
      RETURN_IF_ERROR(StallForLogSpaceLocked(lock));
      it = txns_.find(txn_id);
      if (it == txns_.end()) {
        return base::FailedPrecondition("no such active transaction");
      }
      rec = OrderLocked(it->second);
    }
    collect_timer.StopNanos();

    if (it->second.ordered != nullptr) {
      PendingCommit pc;
      pc.mode = mode;
      pc.enqueued_nanos = base::SteadyClock::Instance()->NowNanos();
      commit_queue_.push_back(&pc);
      if (rec != nullptr && commit_hook_) {
        // Ordered: the record is stamped and queued, so the coherency layer
        // may broadcast it and pass the lock token now, while the log force
        // is still ahead (the leader may even finish it meanwhile).
        lock.Unlock();
        commit_hook_(*rec);
        lock.Lock();
      }

      obs::ScopedTimer disk_timer(&m_.disk_nanos);
      // Group commit: the first waiter that finds the leadership baton free
      // drains the WHOLE queue as one batch — one vectored append, at most
      // one sync — with mu_ released for the I/O, so the next cohort forms
      // behind it while the disk is busy. Everyone else naps until a leader
      // marks their entry done (possibly after several batches).
      while (!pc.done) {
        if (!commit_leader_active_ && !commit_pipeline_held_) {
          // pc.status carries the batch's status.
          base::IgnoreError(LeadBatchLocked(lock, /*whole_carry_set=*/false,
                                            /*force_sync=*/false, &crossed_soft));
        } else {
          commit_cv_.Wait(lock);
        }
      }
      disk_timer.StopNanos();
      cohort_wait_nanos_->Record(base::SteadyClock::Instance()->NowNanos() - pc.enqueued_nanos);
      // The transaction stays ordered on a batch write failure, its record
      // owed: the caller may trim out of band and retry EndTransaction (it
      // cannot abort), or drop it (ForgetOrdered).
      RETURN_IF_ERROR(pc.status);
      m_.transactions_committed.Increment();
      // txns_ is a node-based map, so `it` survived the pipeline's
      // Unlock/Lock windows (other committers only ever erase their own
      // entries).
      EraseTxnLocked(it);
    } else {
      m_.transactions_committed.Increment();
      EraseTxnLocked(it);
      lock.Unlock();
      if (commit_hook_) {
        commit_hook_(*rec);
      }
    }
  }
  // Edge-triggered soft watermark: only the batch that crossed it asks for
  // a trim, so a growing log fires one request per crossing rather than one
  // per commit.
  if (crossed_soft) {
    FireSoftTrim();
  }
  return base::OkStatus();
}

base::Status Rvm::LeadBatchLocked(base::MutexLock& lock, bool whole_carry_set, bool force_sync,
                                  bool* crossed_soft) {
  commit_leader_active_ = true;
  Batch batch;
  batch.commits.assign(commit_queue_.begin(), commit_queue_.end());
  commit_queue_.clear();
  std::vector<std::shared_ptr<const TransactionRecord>> own;
  uint64_t newest = whole_carry_set ? UINT64_MAX : 0;
  for (auto it = owed_.lower_bound({node_, 0}); it != owed_.end() && it->first.first == node_;
       ++it) {
    if (!it->second.written) {
      own.push_back(it->second.record);
      newest = std::max(newest, it->second.stamp);
    }
  }
  for (const auto& [key, owed] : owed_) {
    if (key.first != node_ && !owed.written && owed.stamp < newest) {
      batch.records.push_back(owed.record);
    }
  }
  batch.carried = batch.records.size();
  batch.records.insert(batch.records.end(), own.begin(), own.end());
  batch.force_sync = force_sync;
  lock.Unlock();
  const BatchResult result = WriteBatch(batch);
  lock.Lock();
  FinishBatchLocked(batch, result, crossed_soft);
  return result.status;
}

Rvm::BatchResult Rvm::WriteBatch(const Batch& batch) {
  // Every record is logged as its payload: an own record's from ordering, a
  // carried one's as it arrived (or as the uncompressed decoder re-encoded
  // it).
  std::vector<base::ByteSpan> payloads;
  payloads.reserve(batch.records.size());
  for (const auto& rec : batch.records) {
    payloads.push_back(rec->payload);
  }
  bool sync_now = batch.force_sync;
  for (const PendingCommit* pc : batch.commits) {
    sync_now |= pc->mode == CommitMode::kFlush;
  }
  BatchResult result;
  base::MutexLock log_lock(log_mu_);
  result.bytes_before = log_->bytes_written();
  result.status = payloads.empty() ? (sync_now ? log_->Sync() : base::OkStatus())
                                   : log_->AppendBatch(payloads, sync_now);
  result.bytes_after = log_->bytes_written();
  // A sync covers every frame written so far, earlier kNoFlush batches too.
  result.synced = sync_now && result.status.ok();
  return result;
}

void Rvm::FinishBatchLocked(const Batch& batch, const BatchResult& result,
                            bool* crossed_soft) {
  commit_leader_active_ = false;
  commit_cv_.NotifyAll();
  size_t flushes = 0;
  for (PendingCommit* pc : batch.commits) {
    pc->status = result.status;
    pc->done = true;
    if (pc->mode == CommitMode::kFlush) {
      ++flushes;
    }
  }
  if (!result.status.ok()) {
    return;  // nothing is known written: every entry stays owed as it was
  }
  for (const auto& rec : batch.records) {
    // DropCarried may have dropped a carried one meanwhile.
    if (auto it = owed_.find({rec->node, rec->commit_seq}); it != owed_.end()) {
      it->second.written = true;
      if (rec->node == node_) {
        it->second.record.reset();  // it waits only for a sync now
      }
    }
  }
  if (result.synced) {
    NoteSyncedLocked();
  }
  m_.carried_written.Add(batch.carried);
  if (!batch.commits.empty()) {
    m_.commit_batches.Increment();
    m_.commit_batch_txns.Add(batch.commits.size());
    batch_size_->Record(batch.commits.size());
  }
  m_.log_bytes_written.Add(result.bytes_after - result.bytes_before);
  if (result.synced && flushes > 0) {
    // Without the pipeline each kFlush commit would have synced alone.
    m_.fsyncs_saved.Add(flushes - 1);
  }
  const uint64_t soft = options_.log_soft_limit_bytes;
  if (soft > 0 && result.bytes_before < soft && result.bytes_after >= soft) {
    *crossed_soft = true;
  }
}

void Rvm::NoteSyncedLocked() {
  for (auto it = owed_.lower_bound({node_, 0}); it != owed_.end() && it->first.first == node_;) {
    it = it->second.written ? owed_.erase(it) : std::next(it);
  }
  PublishDurableSeqLocked();
}

void Rvm::PublishDurableSeqLocked() {
  const auto it = owed_.lower_bound({node_, 0});
  const uint64_t durable =
      it != owed_.end() && it->first.first == node_ ? it->first.second - 1 : commit_seq_;
  durable_seq_.store(durable, std::memory_order_release);
}

void Rvm::AwaitLeaderLocked(base::MutexLock& lock) {
  while (commit_leader_active_) {
    commit_cv_.Wait(lock);
  }
}

bool Rvm::FoldedLocked(const TransactionRecord& rec) const {
  for (const LockRecord& lr : rec.locks) {
    auto it = folded_.find(lr.lock_id);
    if (it == folded_.end() || lr.sequence > it->second) {
      return false;
    }
  }
  return true;
}

void Rvm::Carry(TransactionRecord rec) {
  if (!options_.disk_logging || rec.node == node_ || rec.locks.empty()) {
    return;
  }
  base::MutexLock lock(mu_);
  if (auto it = writer_durable_.find(rec.node);
      (it != writer_durable_.end() && rec.commit_seq <= it->second) || FoldedLocked(rec)) {
    return;
  }
  const std::pair<NodeId, uint64_t> key{rec.node, rec.commit_seq};
  owed_.try_emplace(key, Owed{std::make_shared<const TransactionRecord>(std::move(rec)), false,
                              ++order_clock_});
}

void Rvm::DropCarried(NodeId writer, uint64_t through) {
  if (writer == node_) {
    return;  // own records leave owed_ at a sync or a fold
  }
  base::MutexLock lock(mu_);
  uint64_t& durable = writer_durable_[writer];
  if (through > durable) {
    durable = through;
    owed_.erase(owed_.lower_bound({writer, 0}), owed_.upper_bound({writer, through}));
  }
}

void Rvm::DropFolded(const std::map<LockId, uint64_t>& baselines) {
  base::MutexLock lock(mu_);
  AwaitLeaderLocked(lock);
  DropFoldedLocked(baselines);
}

void Rvm::DropFoldedLocked(const std::map<LockId, uint64_t>& baselines) {
  for (const auto& [lock_id, seq] : baselines) {
    uint64_t& cut = folded_[lock_id];
    cut = std::max(cut, seq);
  }
  // Only an own record already written has no `record`: it stays for its
  // sync. A covered one not yet written is in the database files now, and
  // writing it later would replay it over newer bytes at the next boot.
  std::erase_if(owed_, [&](const auto& entry) {
    const TransactionRecord* rec = entry.second.record.get();
    return rec != nullptr && !rec->locks.empty() && FoldedLocked(*rec);
  });
  PublishDurableSeqLocked();
}

size_t Rvm::CarriedCount() const {
  base::MutexLock lock(mu_);
  return std::count_if(owed_.begin(), owed_.end(),
                       [&](const auto& entry) { return entry.first.first != node_; });
}

std::vector<TransactionRecord> Rvm::CarriedFrom(NodeId writer) const {
  std::vector<TransactionRecord> out;
  if (writer == node_) {
    return out;
  }
  base::MutexLock lock(mu_);
  for (auto it = owed_.lower_bound({writer, 0}); it != owed_.end() && it->first.first == writer;
       ++it) {
    out.push_back(*it->second.record);
  }
  return out;
}

uint64_t Rvm::CurrentLogBytes() const {
  base::MutexLock log_lock(log_mu_);
  return log_->bytes_written();
}

void Rvm::FireSoftTrim() {
  if (!trim_hook_) {
    return;
  }
  m_.trim_requests.Increment();
  trim_hook_(CurrentLogBytes(), options_.log_soft_limit_bytes);
}

void Rvm::HoldCommitPipeline() {
  base::MutexLock lock(mu_);
  commit_pipeline_held_ = true;
}

base::Status Rvm::ReleaseCommitPipeline() {
  bool crossed_soft = false;
  base::Status status;
  {
    base::MutexLock lock(mu_);
    AwaitLeaderLocked(lock);
    commit_pipeline_held_ = false;
    if (commit_queue_.empty()) {
      commit_cv_.NotifyAll();
      return base::OkStatus();
    }
    status = LeadBatchLocked(lock, /*whole_carry_set=*/false, /*force_sync=*/false, &crossed_soft);
  }
  if (crossed_soft) {
    FireSoftTrim();
  }
  return status;
}

size_t Rvm::PendingCommitCount() const {
  base::MutexLock lock(mu_);
  return commit_queue_.size();
}

base::Status Rvm::AbortTransaction(TxnId txn_id) {
  base::MutexLock lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return base::FailedPrecondition("no such active transaction");
  }
  Txn& txn = it->second;
  if (txn.ordered != nullptr) {
    return base::FailedPrecondition(
        "transaction is ordered (its record may be applied at peers): it cannot abort");
  }
  if (txn.mode != RestoreMode::kRestore && !txn.declared.empty()) {
    EraseTxnLocked(it);
    return base::FailedPrecondition("abort of a no-restore transaction with updates");
  }
  // Restore in reverse registration order so the earliest snapshot of any
  // overlapping byte is applied last. The transaction pins every region it
  // snapshotted, so each is still mapped.
  for (auto undo_it = txn.undo.rbegin(); undo_it != txn.undo.rend(); ++undo_it) {
    std::copy(undo_it->old_data.begin(), undo_it->old_data.end(),
              undo_it->region->data() + undo_it->offset);
  }
  EraseTxnLocked(it);
  m_.transactions_aborted.Increment();
  return base::OkStatus();
}

bool Rvm::ForgetOrdered(TxnId txn_id) {
  base::MutexLock lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.ordered == nullptr) {
    return false;
  }
  EraseTxnLocked(it);
  return true;
}

void Rvm::EraseTxnLocked(std::map<TxnId, Txn>::iterator it) {
  const Txn& txn = it->second;
  m_.set_range_calls.Add(txn.set_range_calls);
  m_.set_range_duplicates.Add(txn.set_range_duplicates);
  size_t declared = 0;
  for (const auto& [region_id, entry] : txn.declared) {
    --entry.region->pins_;
    declared += entry.ranges.range_count();
  }
  if (declared != 0) {
    last_txn_ranges_ = declared;
  }
  txns_.erase(it);
}

std::optional<TransactionRecord> Rvm::OrderedRecord(TxnId txn_id) const {
  base::MutexLock lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end() || it->second.ordered == nullptr) {
    return std::nullopt;
  }
  return *it->second.ordered;
}

base::Status Rvm::FlushLog() { return Flush(/*whole_carry_set=*/false); }

base::Status Rvm::ForceCarried() { return Flush(/*whole_carry_set=*/true); }

base::Status Rvm::Flush(bool whole_carry_set) {
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  // Become the leader for whatever is queued (and carried), after the batch
  // in flight (if any), and sync even when no member asked to.
  bool crossed_soft = false;
  base::Status status;
  {
    base::MutexLock lock(mu_);
    AwaitLeaderLocked(lock);
    status = LeadBatchLocked(lock, whole_carry_set, /*force_sync=*/true, &crossed_soft);
  }
  if (crossed_soft) {
    FireSoftTrim();
  }
  return status;
}

namespace {

// Copies one range's bytes; the 8- and 16-byte ranges of object updates
// (most of them) as fixed-size moves the compiler inlines.
inline void CopyRange(uint8_t* dst, const uint8_t* src, size_t len) {
  if (len >= 8 && len <= 16) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + len - 8, src + len - 8, 8);
  } else {
    std::memcpy(dst, src, len);
  }
}

}  // namespace

base::Status Rvm::ApplyExternalRanges(const TransactionRecord& rec) {
  obs::ScopedTimer timer(&m_.apply_nanos);
  base::MutexLock lock(mu_);
  base::Status first_error;
  uint64_t applied = 0;
  uint64_t applied_bytes = 0;
  // The destination lines are mostly cold (a peer's image): a ring of the
  // next kAhead decoded ranges lets the walk prefetch each one's line that
  // many ranges before its copy. Records group their ranges by region, so a
  // region is looked up only when the id changes.
  constexpr size_t kAhead = 32;
  RangeImage ring[kAhead];
  Region* ring_region[kAhead];
  const size_t n = rec.ranges.size();
  const uint8_t* at = rec.ranges.bytes().data();
  uint64_t prev_start = UINT64_MAX;
  Region* region = nullptr;
  RegionId looked_up = 0;
  auto decode = [&](size_t i) {
    RangeImage& r = ring[i % kAhead];
    at = RangeList::Read(at, prev_start, &r);
    prev_start = r.offset;
    if (i == 0 || r.region != looked_up) {
      looked_up = r.region;
      const auto it = regions_.find(r.region);
      region = it == regions_.end() ? nullptr : it->second.get();
    }
    ring_region[i % kAhead] = region;
    if (region != nullptr && r.offset < region->size()) {
      __builtin_prefetch(region->data() + r.offset, /*rw=*/1);
    }
  };
  for (size_t i = 0; i < std::min(n, kAhead); ++i) {
    decode(i);
  }
  for (size_t i = 0; i < n; ++i) {
    const RangeImage& r = ring[i % kAhead];
    Region* const dest = ring_region[i % kAhead];
    const uint64_t len = r.data.size();
    if (dest != nullptr && len <= dest->size() && r.offset <= dest->size() - len) {
      CopyRange(dest->data() + r.offset, r.data.data(), len);
      ++applied;
      applied_bytes += len;
    } else if (first_error.ok()) {
      first_error = dest == nullptr
                        ? base::NotFound("region not mapped: " + std::to_string(r.region))
                        : base::OutOfRange("external update beyond region end");
    }
    if (i + kAhead < n) {
      decode(i + kAhead);  // into the slot just applied
    }
  }
  m_.external_updates_applied.Add(applied);
  m_.external_bytes_applied.Add(applied_bytes);
  return first_error;
}

RvmStats Rvm::stats() const {
  RvmStats s;
  s.set_range_calls = m_.set_range_calls.value();
  s.set_range_duplicates = m_.set_range_duplicates.value();
  s.transactions_committed = m_.transactions_committed.value();
  s.transactions_aborted = m_.transactions_aborted.value();
  s.ranges_logged = m_.ranges_logged.value();
  s.bytes_logged = m_.bytes_logged.value();
  s.pages_logged = m_.pages_logged.value();
  s.adaptive_pages_coalesced = m_.adaptive_pages_coalesced.value();
  s.log_bytes_written = m_.log_bytes_written.value();
  s.commit_batches = m_.commit_batches.value();
  s.commit_batch_txns = m_.commit_batch_txns.value();
  s.fsyncs_saved = m_.fsyncs_saved.value();
  s.carried_written = m_.carried_written.value();
  s.collect_nanos = m_.collect_nanos.value();
  s.disk_nanos = m_.disk_nanos.value();
  s.apply_nanos = m_.apply_nanos.value();
  s.external_updates_applied = m_.external_updates_applied.value();
  s.external_bytes_applied = m_.external_bytes_applied.value();
  s.backpressure_stalls = m_.backpressure_stalls.value();
  s.backpressure_stall_nanos = m_.backpressure_stall_nanos.value();
  s.trim_requests = m_.trim_requests.value();
  s.commits_exhausted = m_.commits_exhausted.value();
  return s;
}

uint64_t Rvm::commit_seq() const {
  base::MutexLock lock(mu_);
  return commit_seq_;
}

void Rvm::AdvanceCommitSeq(uint64_t at_least) {
  base::MutexLock lock(mu_);
  commit_seq_ = std::max(commit_seq_, at_least);
  PublishDurableSeqLocked();
}

uint64_t Rvm::log_bytes() const { return CurrentLogBytes(); }

base::Status Rvm::ResetLog() {
  base::MutexLock lock(mu_);
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  AwaitLeaderLocked(lock);
  {
    base::MutexLock log_lock(log_mu_);
    RETURN_IF_ERROR(log_->Reset());
  }
  // The caller replayed what the log held into the database files.
  NoteSyncedLocked();
  // The trim that just ran ends the current backpressure episode: the next
  // stall may fire the hook again.
  trim_hook_fired_ = false;
  log_space_cv_.NotifyAll();
  return base::OkStatus();
}

base::Status Rvm::TrimLogWithBaselines(const std::map<LockId, uint64_t>& baselines) {
  // Holds mu_ for the whole trim (commits must not stamp sequence numbers
  // against a log that is being rewritten underneath them) and log_mu_ for
  // the log swap itself — which also waits out any in-flight batch leader,
  // since the leader writes under log_mu_ without holding mu_.
  base::MutexLock lock(mu_);
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  // A batch in flight may be writing carried records the cut covers: let
  // it land first, so the rewrite below drops them.
  AwaitLeaderLocked(lock);
  base::MutexLock log_lock(log_mu_);
  RETURN_IF_ERROR(log_->Sync());
  NoteSyncedLocked();

  // Read the current log and keep only the records the checkpoint does not
  // cover. A record is covered iff it has lock records and every one of
  // them is at or below its lock's baseline.
  ASSIGN_OR_RETURN(auto file, store_->Open(LogFileName(node_), /*create=*/false));
  LogReader reader(file.get());
  // Each kept payload, read in place and held by its block.
  std::vector<std::pair<base::Buffer, base::ByteSpan>> kept;
  base::ByteSpan payload;
  bool at_end = false;
  while (true) {
    RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
    if (at_end) {
      break;
    }
    ASSIGN_OR_RETURN(LogRecordKind kind, PeekKind(payload));
    bool covered = false;
    if (kind == LogRecordKind::kTransaction) {
      TransactionRecord txn;
      RETURN_IF_ERROR(DecodeTransaction(payload, reader.block(), &txn));
      covered = !txn.locks.empty();
      for (const auto& lr : txn.locks) {
        auto it = baselines.find(lr.lock_id);
        if (it == baselines.end() || lr.sequence > it->second) {
          covered = false;
          break;
        }
      }
    }
    if (!covered) {
      kept.emplace_back(reader.block(), payload);
    }
  }

  // Crash-safe swap: build the trimmed log beside the live one, sync it,
  // then atomically rename it into place and reopen our writer on it. A
  // crash before the rename leaves the old log; after, the new one — both
  // are complete when combined with the caller's checkpoint.
  const std::string temp_name = LogFileName(node_) + ".trim";
  {
    ASSIGN_OR_RETURN(auto temp, store_->Open(temp_name, /*create=*/true));
    RETURN_IF_ERROR(temp->Truncate(0));
    LogWriter writer(std::move(temp));
    for (const auto& [block, record] : kept) {
      RETURN_IF_ERROR(writer.Append(record, /*sync_now=*/false));
    }
    RETURN_IF_ERROR(writer.Sync());
  }
  RETURN_IF_ERROR(store_->Rename(temp_name, LogFileName(node_)));
  // Make the swap itself durable. Without this barrier, a crash after the
  // rename can resurrect the *old* log inode under the live name while the
  // commits we append below land only on the new (unlinked-at-crash) inode —
  // recovery would then silently drop them. The crash explorer pins this.
  RETURN_IF_ERROR(store_->SyncDir());
  ASSIGN_OR_RETURN(auto reopened, store_->Open(LogFileName(node_), /*create=*/false));
  ASSIGN_OR_RETURN(uint64_t new_size, reopened->Size());
  log_ = std::make_unique<LogWriter>(std::move(reopened), new_size);
  log_lock.Unlock();
  DropFoldedLocked(baselines);
  trim_hook_fired_ = false;
  log_space_cv_.NotifyAll();
  return base::OkStatus();
}

}  // namespace rvm
