// Recovery: replays committed redo records into the permanent database
// files, restoring the last committed state after a crash (write-ahead
// logging invariant). Replay is idempotent — records carry absolute new
// values — so a crash during recovery is harmless.
//
// With multiple clients each writing its own log, the logs are first merged
// into a single serial order using the lock records (see log_merge.h),
// exactly as the paper's new RVM merge utility does (§3.4).
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

// The single replay core shared by full-history replay (ApplyToDatabase:
// trim and ReplayLogsIntoDatabase), recovery's per-file batch replay
// (replay_on_demand.h), and the standby checkpoint's image write
// (lbc::CheckpointFromStandby).
//
// Apply() accumulates redo ranges page by page (pre-image read from the
// database file, zero-padded past EOF, then overwritten by the ranges in
// call order). Commit() performs all store mutations: page writes, file
// syncs, a read-back verification of every touched page against the
// accumulated image, and exactly one sidecar entry per page, computed from
// that image — so the CRC/sidecar logic exists exactly once. Commit moves
// each run of consecutive pages of a file as one unit: one data Write, one
// read-back Read and one sidecar-entry Write per run.
//
// Options:
//   verify_preimages The on-demand path's rot gate. Before any mutation,
//                    each accumulated page's pre-image is checked against
//                    its existing sidecar entry (one sidecar Read per
//                    file). A mismatch is accepted
//                    when (a) the entry equals the page's FINAL image CRC —
//                    the signature of a power cut during an earlier
//                    materialization of this same page, whose sidecar
//                    intent (written before the data, see Commit) already
//                    certifies where this replay is going — or (b) the
//                    pending redo covers the whole page, in which case the
//                    pre-image is irrelevant. Any other mismatch is genuine
//                    rot under partially-covering redo: Commit fails with
//                    DATA_LOSS before writing a byte, so the caller routes
//                    the file through the Scrubber instead of laundering
//                    the rot into a freshly certified page.
struct ReplayOptions {
  bool verify_preimages = false;
};

class ReplayWriteSet {
 public:
  explicit ReplayWriteSet(store::DurableStore* store, ReplayOptions options = {});

  // Confines the write set to `pages` of `region` (ascending, distinct) and
  // reads their pre-images now, one Read per run of consecutive pages;
  // Apply then skips every other page. Recovery's file batch calls it once
  // before its Applies. A write set that never calls it takes every page a
  // range touches and reads each pre-image on first touch.
  base::Status LoadPages(RegionId region, const std::vector<uint64_t>& pages);
  // Accumulates one redo range (reads pre-images as needed; no writes).
  base::Status Apply(const RangeImage& range);
  // Writes, syncs, read-back-verifies, and checksums every accumulated page,
  // one sidecar entry per page. In verify_preimages mode that entry is the
  // intent, written and synced BEFORE the data, making a crash mid-write
  // self-describing; otherwise it is written after the read-back.
  base::Status Commit();

  uint64_t pages_touched() const { return pages_.size(); }

 private:
  struct PageBuild {
    std::vector<uint8_t> image;      // pre-image + redo, zero-padded
    std::vector<uint8_t> preimage;   // as first read (verify_preimages only)
    std::vector<uint8_t> covered;    // per-byte redo coverage (verify mode)
  };
  using PageMap = std::map<std::pair<RegionId, uint64_t>, PageBuild>;
  // Consecutive accumulated pages of one file: [begin, end) in pages_.
  struct Run {
    PageMap::iterator begin;
    PageMap::iterator end;
    uint64_t pages;
  };

  base::Result<store::DurableFile*> FileFor(RegionId region);
  // Adds a page whose pre-image is `image` (kDbPageSize bytes).
  PageMap::iterator AddPage(RegionId region, uint64_t page, std::vector<uint8_t> image);
  std::vector<Run> Runs();

  store::DurableStore* store_;
  ReplayOptions options_;
  bool confined_ = false;  // LoadPages fixed the page set
  std::map<RegionId, std::unique_ptr<store::DurableFile>> files_;
  PageMap pages_;
};

// Applies transactions, in the given order, to the region database files.
base::Status ApplyToDatabase(store::DurableStore* store,
                             const std::vector<TransactionRecord>& txns);

// Full recovery path: read the named logs, merge them into a single order
// (single log: no merge needed), and replay into the database files. A
// named log that does not exist is treated as empty — a node that crashed
// before its first flush has no durable log and nothing to recover. Logs
// are left intact; callers truncate them afterwards if desired.
base::Status ReplayLogsIntoDatabase(store::DurableStore* store,
                                    const std::vector<std::string>& log_names);

}  // namespace rvm

#endif  // SRC_RVM_RECOVERY_H_
