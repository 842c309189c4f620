// Recovery: replays committed redo records into the permanent database
// files, restoring the last committed state after a crash (write-ahead
// logging invariant). Replay is idempotent — records carry absolute new
// values — so a crash during recovery is harmless.
//
// With multiple clients each writing its own log, the logs are first merged
// into a single serial order using the lock records (see log_merge.h),
// exactly as the paper's new RVM merge utility does (§3.4). The merged
// history is indexed by page (log_index.h) and replayed one region file at
// a time by one engine, ReplayWriteSet: crash recovery, the §3.5 trim, the
// incremental drain (replay_on_demand.h) and the standby checkpoint all
// write database files through the same intent-first, rot-gated batch.
#ifndef SRC_RVM_RECOVERY_H_
#define SRC_RVM_RECOVERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// Reads all valid transaction records from a log file, stopping cleanly at
// a torn tail (reported via *tail_was_torn when non-null).
base::Result<std::vector<TransactionRecord>> ReadLogTransactions(
    store::DurableStore* store, const std::string& log_name, bool* tail_was_torn = nullptr);

// Copies the part of `range` that falls on `page` into `page_image`, which
// holds that page (kDbPageSize bytes). Returns the page-relative span it
// wrote as {offset, length}; length 0 when the range misses the page. The
// one place a redo range is clipped to a page: replay and the scrubber's
// page reconstruction both build pages through it.
std::pair<uint64_t, uint64_t> OverlayRange(const RangeImage& range, uint64_t page,
                                           uint8_t* page_image);

// The replay engine: one batch of redo against pages of ONE region file.
// Every write of logged or checkpointed bytes into a database file goes
// through it — recovery's per-file replay (ReplayRegionFile, which full
// replays, trims and the incremental drain all call) and the standby
// checkpoint's whole-image write (lbc::CheckpointFromStandby).
//
// LoadPages reads the pre-images of the pages the batch covers; Apply then
// overlays redo ranges on them in call order (ranges of other regions and
// bytes on pages not loaded are skipped); Commit performs every store
// mutation. Commit moves each run of consecutive pages as one unit, so a
// contiguous file costs seven ops: pre-image read, sidecar read, intent
// write and sync, data write and sync, read-back.
//
// Commit is intent-first and rot-gated:
//   * Rot gate. Before any mutation, each page's pre-image is checked
//     against its sidecar entry (one sidecar Read). A mismatch is accepted
//     when (a) the entry equals the page's FINAL image CRC — the signature
//     of a power cut during an earlier replay of this same page, whose
//     intent already certifies where this replay is going — or (b) the redo
//     covers the whole page, so the pre-image is irrelevant. Any other
//     mismatch is rot under partially-covering redo: Commit fails with
//     DATA_LOSS before writing a byte, so the caller routes the file through
//     the Scrubber instead of laundering the rot into a certified page.
//   * Intent. The final image's sidecar entry is written and synced BEFORE
//     the data, making a crash mid-write self-describing; a read-back of
//     every page after the data sync confirms the data matches it.
class ReplayWriteSet {
 public:
  ReplayWriteSet(store::DurableStore* store, RegionId region);

  // Reads the pre-images of `pages` (ascending, distinct), one Read per run
  // of consecutive pages; past EOF reads as zeros, matching file growth.
  base::Status LoadPages(const std::vector<uint64_t>& pages);
  // Overlays one redo range on the loaded pages (no I/O).
  void Apply(const RangeImage& range);
  // Gates, certifies, writes, syncs and read-back-verifies every loaded
  // page, one sidecar entry per page (see the class comment).
  base::Status Commit();

 private:
  struct PageBuild {
    std::vector<uint8_t> image;  // pre-image + redo, zero-padded
    uint32_t preimage_crc = 0;   // PageCrc of the page as loaded
    // Page-relative {offset, length} of every range Apply overlaid.
    std::vector<std::pair<uint64_t, uint64_t>> redo;
  };
  using PageMap = std::map<uint64_t, PageBuild>;
  // Consecutive loaded pages: [begin, end) in pages_.
  struct Run {
    PageMap::iterator begin;
    PageMap::iterator end;
    uint64_t pages;
  };

  std::vector<Run> Runs();

  store::DurableStore* store_;
  RegionId region_;
  std::unique_ptr<store::DurableFile> file_;
  PageMap pages_;
};

// Replays one region file: `ranges` (merged order) over `pages` of
// `region`, as one ReplayWriteSet batch. The per-file step every replay
// takes — IncrementalRecovery's claims and ReplayLogsIntoDatabase alike.
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
