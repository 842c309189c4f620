// Recovery: replays committed redo records into the permanent database
// files, restoring the last committed state after a crash (write-ahead
// logging invariant). Replay is idempotent — records carry absolute new
// values — so a crash during recovery is harmless.
//
// With multiple clients each writing its own log, the logs are first merged
// into a single serial order using the lock records (see log_merge.h),
// exactly as the paper's new RVM merge utility does (§3.4). The merged
// history is indexed by page (log_index.h) and replayed one region file at
// a time by one engine, ReplayRegionFile: crash recovery, the §3.5 trim,
// the incremental drain (replay_on_demand.h) and the standby checkpoint all
// write database files through the same intent-first, rot-gated batch.
#ifndef SRC_RVM_RECOVERY_H_
#define SRC_RVM_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Reads all valid transaction records from a log file, stopping cleanly at
// a torn tail (reported via *tail_was_torn when non-null). Each record is
// decoded in place: it views its payload where it lies in the LogReader
// block it was read from and holds that block (log_io.h), with no copy.
base::Result<std::vector<TransactionRecord>> ReadLogTransactions(
    store::DurableStore* store, const std::string& log_name, bool* tail_was_torn = nullptr);

// Copies the part of `range` that falls on `page` into `page_image`, which
// holds that page (kDbPageSize bytes); a range that misses the page copies
// nothing. The scrubber's page reconstruction builds pages through it and
// replay clips ranges to pages by the same rule.
void OverlayRange(const RangeImage& range, uint64_t page, uint8_t* page_image);

// The replay engine: replays `ranges` (merged order) over `pages`
// (ascending, distinct) of one region file as one batch. Every write of
// logged or checkpointed bytes into a database file goes through it:
// recovery's per-file replay (IncrementalRecovery's claims, which first
// touch, the drain and trims make, and ReplayLogsIntoDatabase's full
// replay) and the standby checkpoint's whole-image write
// (lbc::CheckpointFromStandby). Ranges of other regions and bytes on pages
// not listed are skipped. recovery.cc's ReplayWriteSet documents the
// batch: coverage planned before any I/O, pre-images read only where redo
// does not overwrite the whole page, the rot gate on those, intent entries
// before data, and a read-back after the data sync.
base::Status ReplayRegionFile(store::DurableStore* store, RegionId region,
                              const std::vector<uint64_t>& pages,
                              const std::vector<RangeImage>& ranges);

// Full recovery path: read the named logs, merge them into a single order,
// index it by page, and replay each region file in region order through
// ReplayRegionFile. A named log that does not exist is treated as empty — a
// node that crashed before its first flush has no durable log and nothing
// to recover. Logs are left intact; callers truncate them afterwards if
// desired. Takes no lock: callers order it against other writers of the
// same files.
base::Status ReplayLogsIntoDatabase(store::DurableStore* store,
                                    const std::vector<std::string>& log_names);

}  // namespace rvm

#endif  // SRC_RVM_RECOVERY_H_
