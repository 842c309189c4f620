// Replay-on-first-touch over a LogIndex: the serving half of incremental
// recovery.
//
// Rather than replaying the whole merged history before anyone is served,
// IncrementalRecovery tracks, per indexed page, whether its redo has been
// materialized into the database file yet, and replays a page the first
// time anything needs it — a client mapping the page's region, the
// background drainer, or a synchronous DrainRecovery barrier. Once every
// page is done the object is retired by its owner and the database files
// are byte-identical to a full merged-log replay (ReplayLogsIntoDatabase).
//
// Per-page state machine (mu_, rank LockRank::kRecovery):
//
//   kPending ──claim──> kInProgress ──replayed──> kDone
//      ^                    │  │
//      └──── error ─────────┘  └── Extend() bumped the page's generation
//                                  mid-flight: back to kPending and replay
//                                  again with the newly indexed records.
//
// The claiming thread copies the page's redo ranges while holding mu_
// (Extend may reallocate the backing transaction vector), releases mu_, and
// replays through a ReplayWriteSet with verify_preimages=true — page writes
// are serialized with the owner's other database writers via `io_mu` (the
// cluster passes its DbMutex). Threads finding the page kInProgress wait on
// the condvar; a non-zero deadline turns that wait into kDeadlineExceeded
// so a mapping client's transaction stays usable under a stalled drain.
//
// Invariant the crash sweep leans on: a page leaves kPending only through a
// CRC-gated replay (pre-image checked against the sidecar, intent entry
// written before data, read-back verified after), so a recovering server
// never serves an unreplayed or uncertified byte — rot discovered lazily at
// first touch fails the materialization with DATA_LOSS instead of being
// replayed over, and the caller routes it through the Scrubber.
#ifndef SRC_RVM_REPLAY_ON_DEMAND_H_
#define SRC_RVM_REPLAY_ON_DEMAND_H_

#include <cstdint>
#include <map>
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
  // `io_mu` serializes this object's database-file writes with the owner's
  // other writers (lbc::Cluster passes its DbMutex); nullptr uses a private
  // mutex of the same rank (standalone use in tests and crash sweeps).
  IncrementalRecovery(store::DurableStore* store, LogIndex index,
                      base::Mutex* io_mu = nullptr);

  IncrementalRecovery(const IncrementalRecovery&) = delete;
  IncrementalRecovery& operator=(const IncrementalRecovery&) = delete;

  // Materializes every currently pending page of `region` (first-touch
  // path). deadline_ms > 0 bounds only the time spent waiting on pages
  // another thread is already replaying; 0 waits indefinitely.
  base::Status MaterializeRegion(RegionId region, uint64_t deadline_ms = 0);

  // Materializes a single page (kDeadlineExceeded on a timed-out wait, as
  // above). `background` only selects which counter the replay lands in.
  base::Status MaterializePage(RegionId region, uint64_t page,
                               uint64_t deadline_ms = 0, bool background = false);

  // Background drain: replays one pending page (deterministically the first
  // in (region, page) order). Returns false when every page is done; blocks
  // while the only remaining pages are in flight on other threads. On
  // error, *failed_region (if non-null) names the region for repair.
  base::Result<bool> DrainStep(RegionId* failed_region = nullptr);

  bool Drained() const;
  uint64_t PendingPages() const;  // pages not yet kDone

  // Folds newly merged records (a dead client's log) into the index and
  // re-pends the pages they touch — including pages already materialized or
  // currently in flight (their generation is bumped so the in-flight replay
  // re-runs with the new records before the page is marked done).
  void Extend(std::vector<TransactionRecord> merged);

 private:
  enum class PageState { kPending, kInProgress, kDone };
  struct PageEntry {
    PageState state = PageState::kPending;
    uint64_t gen = 0;  // bumped by Extend while kInProgress
  };

  // Copies the redo ranges intersecting `key` out of the index (claiming
  // threads call this before dropping mu_ — Extend may reallocate the
  // index's transaction storage while the replay runs).
  std::vector<RangeImage> CollectRangesLocked(LogIndex::PageKey key)
      LBC_REQUIRES(mu_);

  // The actual page replay (no locks of this object held; takes the io
  // mutex around the ReplayWriteSet).
  base::Status ReplayPage(LogIndex::PageKey key, std::vector<RangeImage> ranges)
      LBC_EXCLUDES(mu_);

  store::DurableStore* store_;
  base::Mutex own_io_mu_{"rvm.recovery.io", base::LockRank::kClusterDb};
  base::Mutex* io_mu_;
  mutable base::Mutex mu_{"rvm.recovery", base::LockRank::kRecovery};
  base::CondVar cv_;
  LogIndex index_ LBC_GUARDED_BY(mu_);
  std::map<LogIndex::PageKey, PageEntry> pages_ LBC_GUARDED_BY(mu_);
  uint64_t pending_ LBC_GUARDED_BY(mu_) = 0;  // pages not kDone
};

}  // namespace rvm

#endif  // SRC_RVM_REPLAY_ON_DEMAND_H_
