#include "src/rvm/rvm.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/base/clock.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_format.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"

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
    std::vector<uint8_t> payload;
    bool at_end = false;
    while (true) {
      RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
      if (at_end) {
        break;
      }
      TransactionRecord txn;
      if (PeekKind(base::ByteSpan(payload.data(), payload.size())).ok() &&
          DecodeTransaction(base::ByteSpan(payload.data(), payload.size()), &txn).ok()) {
        commit_seq_ = std::max(commit_seq_, txn.commit_seq);
      }
      valid_end = reader.offset();
    }
  }
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
  if (regions_.erase(id) == 0) {
    return base::NotFound("region not mapped: " + std::to_string(id));
  }
  return base::OkStatus();
}

TxnId Rvm::BeginTransaction(RestoreMode mode) {
  base::MutexLock lock(mu_);
  TxnId id = next_txn_++;
  Txn& txn = txns_[id];
  txn.mode = mode;
  txn.active = true;
  return id;
}

base::Status Rvm::SetRange(TxnId txn_id, RegionId region_id, uint64_t offset, uint64_t len) {
  base::MutexLock lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end() || !it->second.active) {
    return base::FailedPrecondition("no such active transaction");
  }
  auto region_it = regions_.find(region_id);
  if (region_it == regions_.end()) {
    return base::NotFound("region not mapped: " + std::to_string(region_id));
  }
  Region* region = region_it->second.get();
  // Written so it cannot wrap: `offset + len` overflows for huge offsets.
  if (len > region->size() || offset > region->size() - len) {
    return base::OutOfRange("set_range beyond region end");
  }

  Txn& txn = it->second;
  const AddOutcome outcome =
      txn.ranges.try_emplace(region_id, options_.coalesce).first->second.Add(offset, len);

  // Undo copies: snapshot the declared range before the application mutates
  // it. Exact re-registrations skip the snapshot — the first registration
  // already holds the pre-transaction bytes. A grown re-registration
  // snapshots its whole new extent: undo entries are restored in reverse
  // order, so the earlier snapshot still wins for the bytes it covers.
  if (txn.mode == RestoreMode::kRestore && outcome != AddOutcome::kExactDuplicate) {
    Txn::UndoEntry undo;
    undo.region = region_id;
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
  if (it == txns_.end() || !it->second.active) {
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

base::Status Rvm::EndTransaction(TxnId txn_id, CommitMode mode) {
  // Whole-commit latency (gather + log write + commit hook) for the
  // histogram; the phase counters below split the same work.
  obs::ScopedTimer commit_timer(nullptr, commit_nanos_);
  CommitContext ctx;
  bool crossed_soft = false;
  {
    obs::ScopedTimer collect_timer(&m_.collect_nanos);
    base::MutexLock lock(mu_);

    // Hard-watermark backpressure: stall (never abort) until a trim frees
    // log space or the stall budget runs out. The wait releases mu_, so a
    // janitor thread can run TrimLogWithBaselines/ResetLog meanwhile; the
    // first staller also fires the trim hook itself, exactly once per
    // episode. Runs before the txn lookup because the lock is dropped.
    const uint64_t hard = options_.log_hard_limit_bytes;
    if (options_.disk_logging && hard > 0 && CurrentLogBytes() >= hard) {
      m_.backpressure_stalls.Increment();
      const uint64_t start = base::SteadyClock::Instance()->NowNanos();
      const uint64_t deadline =
          start + options_.backpressure_stall_ms * 1'000'000ull;
      base::Status stall_status = base::OkStatus();
      while (CurrentLogBytes() >= hard) {
        // Deadline first, re-read every iteration: both the trim hook and
        // the condvar wait release mu_ for unbounded stretches, so any step
        // below may land back here long past the budget.
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
        // Clamp the nap to the remaining budget: a wait granted just under
        // the deadline must not overshoot it by a full tick.
        log_space_cv_.WaitFor(
            lock, std::chrono::nanoseconds(
                      std::min<uint64_t>(deadline - now, 5'000'000ull)));
      }
      m_.backpressure_stall_nanos.Add(base::SteadyClock::Instance()->NowNanos() - start);
      // The transaction stays active on failure: the caller may trim out of
      // band and retry EndTransaction, or abort.
      RETURN_IF_ERROR(stall_status);
    }

    auto it = txns_.find(txn_id);
    if (it == txns_.end() || !it->second.active) {
      return base::FailedPrecondition("no such active transaction");
    }
    Txn& txn = it->second;

    ctx.node = node_;
    ctx.commit_seq = ++commit_seq_;
    ctx.locks = &txn.locks;
    constexpr uint64_t kPageSize = 8192;
    size_t declared = 0;
    for (const auto& entry : txn.ranges) {
      declared += entry.second.range_count();
    }
    ctx.ranges.reserve(declared);
    uint64_t pages = 0;
    uint64_t pages_coalesced = 0;
    for (auto& [region_id, range_set] : txn.ranges) {
      uint8_t* image = regions_.at(region_id)->data();
      // Gather (offset, len) in address order straight into ctx.ranges.
      const size_t region_begin = ctx.ranges.size();
      for (const auto& [offset, len] : range_set.ranges()) {
        ctx.ranges.push_back(RangeRef{region_id, offset, image + offset, len});
      }
      if (options_.adaptive_ranges_per_page > 0) {
        // Adaptive hybrid: collapse each update-dense page's ranges, in
        // place, into one covering span.
        size_t out = region_begin;
        size_t i = region_begin;
        while (i < ctx.ranges.size()) {
          const uint64_t start = ctx.ranges[i].offset;
          const uint64_t page = start / kPageSize;
          size_t j = i;
          uint64_t span_end = 0;
          // Group the ranges that *start* in this page.
          while (j < ctx.ranges.size() && ctx.ranges[j].offset / kPageSize == page) {
            span_end = std::max(span_end, ctx.ranges[j].offset + ctx.ranges[j].len);
            ++j;
          }
          if (j - i > options_.adaptive_ranges_per_page) {
            ctx.ranges[out++] = RangeRef{region_id, start, image + start, span_end - start};
            ++pages_coalesced;
            i = j;
          }
          while (i < j) {
            ctx.ranges[out++] = ctx.ranges[i++];
          }
        }
        ctx.ranges.resize(out);
      }

      uint64_t next_uncounted_page = 0;
      for (size_t k = region_begin; k < ctx.ranges.size(); ++k) {
        const uint64_t offset = ctx.ranges[k].offset;
        const uint64_t len = ctx.ranges[k].len;
        if (len == 0) {
          continue;
        }
        // Distinct-page counting: span starts are in address order, but a
        // coalesced span can extend many pages past its start, so the next
        // span may begin pages BEHIND the furthest page already counted.
        // Track the first not-yet-counted page, not just the previous
        // span's last page, or those pages get counted twice.
        uint64_t first = std::max(offset / kPageSize, next_uncounted_page);
        uint64_t last = (offset + len - 1) / kPageSize;
        if (first <= last) {
          pages += last - first + 1;
          next_uncounted_page = last + 1;
        }
      }
    }

    m_.pages_logged.Add(pages);
    m_.adaptive_pages_coalesced.Add(pages_coalesced);
    m_.ranges_logged.Add(ctx.ranges.size());
    m_.bytes_logged.Add(ctx.TotalBytes());

    // Read-only transactions (no registered ranges) leave no log record:
    // the coherency layer rolls their lock sequence numbers back, so a
    // record would only confuse the merge order.
    if (options_.disk_logging && !ctx.ranges.empty()) {
      // Encode the whole record NOW, while the images still hold exactly
      // this transaction's bytes: the pipeline wait below releases mu_, and
      // later transactions overwrite the live images before the batch
      // leader gets this record to disk. The contiguous payload doubles as
      // the zero-copy broadcast buffer — ctx.record is refcounted, and the
      // RangeRefs are repointed into it so the commit hook (and every peer
      // channel it fans out to) reads bytes that can no longer change.
      std::vector<size_t> data_offsets;
      ctx.record = base::Buffer(EncodeTransaction(ctx, &data_offsets));
      for (size_t i = 0; i < ctx.ranges.size(); ++i) {
        ctx.ranges[i].data = ctx.record.data() + data_offsets[i];
      }
      collect_timer.StopNanos();

      obs::ScopedTimer disk_timer(&m_.disk_nanos);
      PendingCommit pc;
      pc.payload = ctx.record;
      pc.mode = mode;
      pc.enqueued_nanos = base::SteadyClock::Instance()->NowNanos();
      commit_queue_.push_back(&pc);

      // Group commit: the first waiter that finds the leadership baton free
      // drains the WHOLE queue as one batch — one vectored append, at most
      // one sync — with mu_ released for the I/O, so the next cohort forms
      // behind it while the disk is busy. Everyone else naps until a leader
      // marks their entry done (possibly after several batches).
      while (!pc.done) {
        if (!commit_leader_active_ && !commit_pipeline_held_) {
          commit_leader_active_ = true;
          std::vector<PendingCommit*> batch(commit_queue_.begin(),
                                            commit_queue_.end());
          commit_queue_.clear();
          lock.Unlock();
          BatchResult result = WriteBatch(batch);
          lock.Lock();
          FinishBatchLocked(batch, result, &crossed_soft);
          commit_leader_active_ = false;
          commit_cv_.NotifyAll();
        } else {
          commit_cv_.Wait(lock);
        }
      }
      disk_timer.StopNanos();
      cohort_wait_nanos_->Record(base::SteadyClock::Instance()->NowNanos() - pc.enqueued_nanos);
      // The transaction stays active on a batch write failure: the caller
      // may trim out of band and retry EndTransaction, or abort.
      RETURN_IF_ERROR(pc.status);
    } else {
      collect_timer.StopNanos();
    }

    m_.transactions_committed.Increment();
    CountSetRanges(txn);
    // Keep the lock records alive for the hook invocation below. txns_ is a
    // node-based map, so `it` survived the pipeline's Unlock/Lock windows
    // (other committers only ever erase their own entries).
    Txn finished = std::move(txn);
    txns_.erase(it);
    lock.Unlock();

    ctx.locks = &finished.locks;
    if (commit_hook_) {
      commit_hook_(ctx);
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

Rvm::BatchResult Rvm::WriteBatch(const std::vector<PendingCommit*>& batch) {
  std::vector<base::ByteSpan> payloads;
  payloads.reserve(batch.size());
  bool sync_now = false;
  for (const PendingCommit* pc : batch) {
    payloads.push_back(pc->payload.span());
    sync_now |= pc->mode == CommitMode::kFlush;
  }
  BatchResult result;
  base::MutexLock log_lock(log_mu_);
  result.bytes_before = log_->bytes_written();
  result.status = log_->AppendBatch(payloads, sync_now);
  result.bytes_after = log_->bytes_written();
  result.synced = sync_now && result.status.ok();
  if (result.status.ok()) {
    // A sync covers every frame written so far, including earlier kNoFlush
    // batches; a sync-less batch leaves (or makes) the tail dirty.
    log_dirty_ = !sync_now;
  }
  return result;
}

void Rvm::FinishBatchLocked(const std::vector<PendingCommit*>& batch,
                            const BatchResult& result, bool* crossed_soft) {
  size_t flushes = 0;
  for (PendingCommit* pc : batch) {
    pc->status = result.status;
    pc->done = true;
    if (pc->mode == CommitMode::kFlush) {
      ++flushes;
    }
  }
  if (!result.status.ok()) {
    return;
  }
  m_.commit_batches.Increment();
  m_.commit_batch_txns.Add(batch.size());
  m_.log_bytes_written.Add(result.bytes_after - result.bytes_before);
  batch_size_->Record(batch.size());
  if (result.synced && flushes > 0) {
    // Without the pipeline each kFlush commit would have synced alone.
    m_.fsyncs_saved.Add(flushes - 1);
  }
  const uint64_t soft = options_.log_soft_limit_bytes;
  if (soft > 0 && result.bytes_before < soft && result.bytes_after >= soft) {
    *crossed_soft = true;
  }
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
    while (commit_leader_active_) {
      commit_cv_.Wait(lock);
    }
    commit_pipeline_held_ = false;
    if (commit_queue_.empty()) {
      commit_cv_.NotifyAll();
      return base::OkStatus();
    }
    commit_leader_active_ = true;
    std::vector<PendingCommit*> batch(commit_queue_.begin(), commit_queue_.end());
    commit_queue_.clear();
    lock.Unlock();
    BatchResult result = WriteBatch(batch);
    lock.Lock();
    FinishBatchLocked(batch, result, &crossed_soft);
    commit_leader_active_ = false;
    commit_cv_.NotifyAll();
    status = result.status;
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
  if (it == txns_.end() || !it->second.active) {
    return base::FailedPrecondition("no such active transaction");
  }
  Txn& txn = it->second;
  CountSetRanges(txn);
  if (txn.mode != RestoreMode::kRestore && !txn.ranges.empty()) {
    txns_.erase(it);
    return base::FailedPrecondition("abort of a no-restore transaction with updates");
  }
  // Restore in reverse registration order so the earliest snapshot of any
  // overlapping byte is applied last.
  for (auto undo_it = txn.undo.rbegin(); undo_it != txn.undo.rend(); ++undo_it) {
    Region* region = regions_.at(undo_it->region).get();
    std::copy(undo_it->old_data.begin(), undo_it->old_data.end(),
              region->data() + undo_it->offset);
  }
  txns_.erase(it);
  m_.transactions_aborted.Increment();
  return base::OkStatus();
}

base::Status Rvm::FlushLog() {
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  // Only the log state is touched, so only log_mu_ is needed: a flush can
  // run concurrently with committers gathering under mu_ (it serializes
  // with the batch leader's write, like any other log operation).
  base::MutexLock log_lock(log_mu_);
  RETURN_IF_ERROR(log_->Sync());
  log_dirty_ = false;
  return base::OkStatus();
}

base::Status Rvm::ApplyExternalRanges(const std::vector<RangeImage>& ranges) {
  obs::ScopedTimer timer(&m_.apply_nanos);
  base::MutexLock lock(mu_);
  base::Status first_error;
  uint64_t applied = 0;
  uint64_t applied_bytes = 0;
  // Records group their ranges by region: look the region up only when the
  // id changes.
  auto region_it = regions_.end();
  for (size_t i = 0; i < ranges.size(); ++i) {
    const RangeImage& r = ranges[i];
    if (i == 0 || r.region != ranges[i - 1].region) {
      region_it = regions_.find(r.region);
    }
    Region* region = region_it == regions_.end() ? nullptr : region_it->second.get();
    const uint64_t len = r.data.size();
    if (region != nullptr && len <= region->size() && r.offset <= region->size() - len) {
      std::copy(r.data.begin(), r.data.end(), region->data() + r.offset);
      ++applied;
      applied_bytes += len;
    } else if (first_error.ok()) {
      first_error = region == nullptr
                        ? base::NotFound("region not mapped: " + std::to_string(r.region))
                        : base::OutOfRange("external update beyond region end");
    }
  }
  m_.external_updates_applied.Add(applied);
  m_.external_bytes_applied.Add(applied_bytes);
  return first_error;
}

void Rvm::CountSetRanges(const Txn& txn) {
  m_.set_range_calls.Add(txn.set_range_calls);
  m_.set_range_duplicates.Add(txn.set_range_duplicates);
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

uint64_t Rvm::log_bytes() const { return CurrentLogBytes(); }

base::Status Rvm::ResetLog() {
  base::MutexLock lock(mu_);
  if (!options_.disk_logging) {
    return base::OkStatus();
  }
  {
    base::MutexLock log_lock(log_mu_);
    RETURN_IF_ERROR(log_->Reset());
    log_dirty_ = false;
  }
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
  base::MutexLock log_lock(log_mu_);
  RETURN_IF_ERROR(log_->Sync());

  // Read the current log and keep only the records the checkpoint does not
  // cover. A record is covered iff it has lock records and every one of
  // them is at or below its lock's baseline.
  ASSIGN_OR_RETURN(auto file, store_->Open(LogFileName(node_), /*create=*/false));
  LogReader reader(file.get());
  std::vector<std::vector<uint8_t>> kept;
  std::vector<uint8_t> payload;
  bool at_end = false;
  while (true) {
    RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
    if (at_end) {
      break;
    }
    base::ByteSpan span(payload.data(), payload.size());
    ASSIGN_OR_RETURN(LogRecordKind kind, PeekKind(span));
    bool covered = false;
    if (kind == LogRecordKind::kTransaction) {
      TransactionRecord txn;
      RETURN_IF_ERROR(DecodeTransaction(span, &txn));
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
      kept.push_back(payload);
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
    for (const auto& record : kept) {
      RETURN_IF_ERROR(
          writer.Append(base::ByteSpan(record.data(), record.size()), /*sync_now=*/false));
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
  log_dirty_ = false;
  log_lock.Unlock();
  trim_hook_fired_ = false;
  log_space_cv_.NotifyAll();
  return base::OkStatus();
}

base::Status Rvm::TruncateLog() {
  base::MutexLock lock(mu_);
  if (!options_.disk_logging) {
    return base::FailedPrecondition("disk logging disabled");
  }
  {
    base::MutexLock log_lock(log_mu_);
    RETURN_IF_ERROR(log_->Sync());
    RETURN_IF_ERROR(ReplayLogsIntoDatabase(store_, {LogFileName(node_)}));
    RETURN_IF_ERROR(log_->Reset());
    log_dirty_ = false;
  }
  trim_hook_fired_ = false;
  log_space_cv_.NotifyAll();
  return base::OkStatus();
}

}  // namespace rvm
