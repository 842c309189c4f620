// Replay-on-first-touch over a LogIndex: the serving half of incremental
// recovery, and the replay path of every trim.
//
// Rather than replaying the whole merged history before anyone is served,
// IncrementalRecovery tracks, per indexed page, whether its redo has been
// materialized into the database file yet, and replays a region file the
// first time anything needs it — a client mapping the region, a background
// drain worker, or a synchronous DrainRecovery barrier. Once every page is
// done the object is retired by its owner and the database files are
// byte-identical to a full merged-log replay (ReplayLogsIntoDatabase). The
// cluster folds a trim's merged logs into the same object (Extend, or a
// fresh index) and drains it, so trims replay on the same workers.
//
// The claim unit is the region file (mu_, rank LockRank::kRecovery):
//
//   pending pages ──claim all──> in flight ──replayed──> done
//        ^                          │  │
//        └──────── error ───────────┘  └── Extend() renewed a claimed page
//                                          mid-flight: that page stays
//                                          pending and the file is claimed
//                                          again with the new records.
//
// A claim takes every pending page of one file at once and copies their
// redo ranges, in merged order, while holding mu_ (Extend may reallocate
// the backing transaction vector). It then releases mu_ and replays the
// file through rvm::ReplayRegionFile — the one replay engine (recovery.h):
// coverage planned from the ranges before any I/O; one sidecar read over
// the pages the redo does not cover whole; per run of consecutive pages one
// pre-image read (none for a run of whole-page redo), one intent-entry
// write, one data write and one read-back; one sync of each file (seven
// ops for a contiguous file with a partially covered page, five for one of
// whole-page redo). At
// most one replay of a file runs at a time; replays of different files
// overlap, each holding `io_mu` SHARED (the cluster passes its DbMutex,
// whose other writers take it exclusive). Threads that need a file in
// flight wait on the condvar; a non-zero deadline turns that wait into
// kDeadlineExceeded so a mapping client's transaction stays usable under a
// stalled drain.
//
// Invariant the crash sweep leans on: a page leaves pending only through a
// CRC-gated replay (pre-image checked against the sidecar unless redo
// overwrites every byte of the page, intent entry written before data,
// read-back verified after), so a recovering server
// never serves an unreplayed or uncertified byte — rot discovered lazily at
// first touch fails the whole file's materialization with DATA_LOSS
// instead of being replayed over, and the caller routes it through the
// Scrubber.
#ifndef SRC_RVM_REPLAY_ON_DEMAND_H_
#define SRC_RVM_REPLAY_ON_DEMAND_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_index.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Process-wide incremental-recovery instruments (recovery.*).
// index_build_ms is advanced by LogIndex::Build and first_commit_ms by the
// cluster's admission path; they are registered here so the whole family
// exports together (zeros on a run that never recovers).
struct IncrementalRecoveryMetrics {
  obs::Counter* index_build_ms;     // total ms spent building log indexes
  obs::Counter* pages_on_demand;    // pages materialized on first touch
  obs::Counter* pages_background;   // pages materialized by the drainer
  obs::Counter* first_commit_ms;    // recovery-start -> first admitted commit
};
IncrementalRecoveryMetrics* GlobalIncrementalRecoveryMetrics();

class IncrementalRecovery {
 public:
  // Page replays hold `io_mu` shared, so they exclude the owner's other
  // database-file writers, which hold it exclusive (lbc::Cluster passes its
  // DbMutex); nullptr uses a private lock of the same rank (standalone use
  // in tests and crash sweeps).
  IncrementalRecovery(store::DurableStore* store, LogIndex index,
                      base::SharedMutex* io_mu = nullptr);

  IncrementalRecovery(const IncrementalRecovery&) = delete;
  IncrementalRecovery& operator=(const IncrementalRecovery&) = delete;

  // Materializes every currently pending page of `region` (first-touch
  // path). deadline_ms > 0 bounds the time spent waiting on a replay of
  // this file another thread is running; 0 waits indefinitely.
  base::Status MaterializeRegion(RegionId region, uint64_t deadline_ms = 0);

  // Background drain: replays the pending pages of one file —
  // deterministically the first pending file in region order that no other
  // thread is replaying. Returns false when every page is done; blocks
  // while every remaining file is in flight on other threads. On error,
  // *failed_region (if non-null) names the file's region for repair.
  base::Result<bool> DrainStep(RegionId* failed_region = nullptr);

  bool Drained() const;
  uint64_t PendingPages() const;  // pages not yet done
  uint64_t PendingFiles() const;  // region files with pages not yet done

  // Folds newly merged records (a dead client's log) into the index and
  // re-pends the pages they touch — including pages already materialized or
  // currently in flight (those stay pending after the in-flight replay, so
  // the file is replayed again with the new records).
  void Extend(std::vector<TransactionRecord> merged);

 private:
  // The pages of one region file that are not yet done. Files leave files_
  // when their last page is done.
  struct FileEntry {
    std::set<uint64_t> pending;  // claimed pages included
    bool in_flight = false;      // one thread is replaying a claimed batch
    std::set<uint64_t> renewed;  // pages Extend re-indexed while in flight
  };
  // One claimed file: its pending pages and their redo, in merged order.
  struct Batch {
    RegionId region = 0;
    std::vector<uint64_t> pages;
    std::vector<RangeImage> ranges;
  };

  // Marks the file in flight and copies its pending pages' redo ranges out
  // of the index (before dropping mu_ — Extend may reallocate the index's
  // transaction storage while the replay runs).
  Batch ClaimLocked(std::map<RegionId, FileEntry>::iterator file) LBC_REQUIRES(mu_);
  // Takes the file out of flight; on success its claimed pages are done
  // unless Extend renewed them mid-flight.
  void FinishLocked(const Batch& batch, bool replayed, bool background)
      LBC_REQUIRES(mu_);
  // The batch replay itself (no locks of this object held; holds the io
  // lock shared around rvm::ReplayRegionFile).
  base::Status ReplayFile(const Batch& batch) LBC_EXCLUDES(mu_);

  store::DurableStore* store_;
  base::SharedMutex own_io_mu_{"rvm.recovery.io", base::LockRank::kClusterDb};
  base::SharedMutex* io_mu_;
  mutable base::Mutex mu_{"rvm.recovery", base::LockRank::kRecovery};
  base::CondVar cv_;
  LogIndex index_ LBC_GUARDED_BY(mu_);
  std::map<RegionId, FileEntry> files_ LBC_GUARDED_BY(mu_);
  uint64_t pending_ LBC_GUARDED_BY(mu_) = 0;  // pages not done
};

}  // namespace rvm

#endif  // SRC_RVM_REPLAY_ON_DEMAND_H_
