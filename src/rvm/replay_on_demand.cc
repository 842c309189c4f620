#include "src/rvm/replay_on_demand.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/rvm/recovery.h"

namespace rvm {

IncrementalRecoveryMetrics* GlobalIncrementalRecoveryMetrics() {
  static IncrementalRecoveryMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new IncrementalRecoveryMetrics();
    m->index_build_ms = reg->GetCounter("recovery.index_build_ms");
    m->pages_on_demand = reg->GetCounter("recovery.pages_on_demand");
    m->pages_background = reg->GetCounter("recovery.pages_background");
    m->first_commit_ms = reg->GetCounter("recovery.first_commit_ms");
    return m;
  }();
  return metrics;
}

IncrementalRecovery::IncrementalRecovery(store::DurableStore* store, LogIndex index,
                                         base::SharedMutex* io_mu)
    : store_(store), io_mu_(io_mu != nullptr ? io_mu : &own_io_mu_) {
  base::MutexLock lk(mu_);
  index_ = std::move(index);
  for (const auto& [region, page] : index_.Pages()) {
    files_[region].pending.insert(page);
  }
  pending_ = index_.page_count();
}

IncrementalRecovery::Batch IncrementalRecovery::ClaimLocked(
    std::map<RegionId, FileEntry>::iterator file) {
  file->second.in_flight = true;
  Batch batch;
  batch.region = file->first;
  batch.pages.assign(file->second.pending.begin(), file->second.pending.end());
  batch.ranges = index_.RangesFor(batch.region, batch.pages);
  return batch;
}

void IncrementalRecovery::FinishLocked(const Batch& batch, bool replayed, bool background) {
  auto file = files_.find(batch.region);
  FileEntry& entry = file->second;
  entry.in_flight = false;
  uint64_t done = 0;
  if (replayed) {
    for (uint64_t page : batch.pages) {
      if (entry.renewed.count(page) == 0) {
        entry.pending.erase(page);
        ++done;
      }
    }
  }
  entry.renewed.clear();
  if (entry.pending.empty()) {
    files_.erase(file);
  }
  pending_ -= done;
  cv_.NotifyAll();
  auto* m = GlobalIncrementalRecoveryMetrics();
  (background ? m->pages_background : m->pages_on_demand)->Add(done);
}

base::Status IncrementalRecovery::ReplayFile(const Batch& batch) {
  base::ReaderMutexLock io(*io_mu_);
  return ReplayRegionFile(store_, batch.region, batch.pages, batch.ranges);
}

base::Status IncrementalRecovery::MaterializeRegion(RegionId region, uint64_t deadline_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  base::MutexLock lk(mu_);
  for (;;) {
    auto file = files_.find(region);
    if (file == files_.end()) {
      return base::OkStatus();
    }
    if (file->second.in_flight) {
      if (deadline_ms > 0) {
        if (!cv_.WaitUntil(lk, deadline)) {
          return base::DeadlineExceeded("timed out waiting for region file replay: region " +
                                        std::to_string(region));
        }
      } else {
        cv_.Wait(lk);
      }
      continue;
    }
    Batch batch = ClaimLocked(file);
    lk.Unlock();
    base::Status replayed = ReplayFile(batch);
    lk.Lock();
    FinishLocked(batch, replayed.ok(), /*background=*/false);
    // On success loop: pages Extend renewed mid-flight replay again.
    RETURN_IF_ERROR(replayed);
  }
}

base::Result<bool> IncrementalRecovery::DrainStep(RegionId* failed_region) {
  base::MutexLock lk(mu_);
  auto file = files_.begin();
  for (;;) {
    if (pending_ == 0) {
      return false;
    }
    // files_ holds only files with pending pages, so the scan passes over
    // at most the files other threads have in flight.
    file = files_.begin();
    while (file != files_.end() && file->second.in_flight) {
      ++file;
    }
    if (file != files_.end()) {
      break;
    }
    // Every remaining file is in flight on another thread; wait for one to
    // finish (or fail back to pending) rather than spinning.
    cv_.Wait(lk);
  }
  Batch batch = ClaimLocked(file);
  lk.Unlock();
  base::Status replayed = ReplayFile(batch);
  lk.Lock();
  FinishLocked(batch, replayed.ok(), /*background=*/true);
  if (!replayed.ok()) {
    if (failed_region != nullptr) {
      *failed_region = batch.region;
    }
    return replayed;
  }
  return true;
}

bool IncrementalRecovery::Drained() const {
  base::MutexLock lk(mu_);
  return pending_ == 0;
}

uint64_t IncrementalRecovery::PendingPages() const {
  base::MutexLock lk(mu_);
  return pending_;
}

uint64_t IncrementalRecovery::PendingFiles() const {
  base::MutexLock lk(mu_);
  return files_.size();
}

void IncrementalRecovery::Extend(std::vector<TransactionRecord> merged) {
  base::MutexLock lk(mu_);
  std::vector<LogIndex::PageKey> touched = index_.Extend(std::move(merged));
  for (const auto& [region, page] : touched) {
    FileEntry& file = files_[region];
    if (file.pending.insert(page).second) {
      ++pending_;
    }
    if (file.in_flight) {
      file.renewed.insert(page);  // the running replay predates this redo
    }
  }
  cv_.NotifyAll();
}

}  // namespace rvm
