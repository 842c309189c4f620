// Per-page index over the merged §3.4 history (the heart of incremental
// recovery, after Sauer & Härder's fast REDO-only recovery).
//
// Replaying every merged redo record into the database files before anybody
// is served makes boot time grow linearly with log volume. The index
// replaces that replay with a cheap scan: it records, for every
// (region, page) a redo record touches, the ordered list of records that
// must be applied to materialize the page. Building it reads the logs and
// merges them in memory — NO database writes — so a server can declare
// itself serving the moment the index exists, and each page is replayed
// the first time someone touches it (replay_on_demand.h) or when the
// background drainer reaches it.
//
// The index also carries the per-lock maximum sequence numbers (so the
// cluster can rebuild its trim baselines without replaying) and the
// (node, commit_seq) name of every indexed record (so a later merge of a
// dead client's log, or a copy of a record a successor carried into its own
// log, is deduplicated against records already indexed — re-indexing a
// record would re-apply it AFTER records that logically follow it, which
// absolute-value redo does not tolerate for overlapping ranges). The
// dedup is exact, not by a per-node maximum: a carried copy can be merged
// ahead of an earlier record of the same writer that reaches the index
// later.
#ifndef SRC_RVM_LOG_INDEX_H_
#define SRC_RVM_LOG_INDEX_H_

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

class LogIndex {
 public:
  // One redo range occurrence on a page: the range of txns()[txn] whose
  // header is `pos` bytes into its range list intersects the page. Range
  // addresses are delta-coded, so the slice keeps the range's start too. A
  // log frame's length is 32 bits, so `pos` fits. Per-page slice lists
  // preserve merged order.
  struct Slice {
    uint32_t txn = 0;
    uint32_t pos = 0;
    uint64_t offset = 0;

    // Merged order: (txn, pos) rises through the history.
    auto operator<=>(const Slice&) const = default;
  };

  using PageKey = std::pair<RegionId, uint64_t>;

  LogIndex() = default;

  // Reads the named logs (a missing one is treated as empty: a node that
  // crashed before its first flush has nothing to recover), merges them
  // into one serial history via the lock records, and indexes every touched
  // page. ReplayLogsIntoDatabase and boot recovery both start here.
  // Read-only with respect to the store — the build contributes zero
  // mutating operations, which is what lets a power cut during it degrade
  // to a cut at its start.
  static base::Result<LogIndex> Build(store::DurableStore* store,
                                      const std::vector<std::string>& log_names);

  // Builds the index from an already-merged history (caller ran MergeLogs).
  static LogIndex FromMerged(std::vector<TransactionRecord> merged);

  const std::vector<TransactionRecord>& transactions() const { return txns_; }
  bool empty() const { return pages_.empty(); }
  uint64_t page_count() const { return pages_.size(); }

  // Ordered keys of every indexed page (deterministic drain order).
  std::vector<PageKey> Pages() const;
  std::vector<uint64_t> PagesOf(RegionId region) const;
  // nullptr when the page has no indexed records. The returned pointer is
  // invalidated by Extend.
  const std::vector<Slice>* SlicesFor(RegionId region, uint64_t page) const;

  // The range `slice` names, read where it lies in its record's payload.
  RangeImage RangeOf(const Slice& slice) const {
    return txns_[slice.txn].ranges.At(slice.pos, slice.offset);
  }

  // The redo ranges that touch `pages` of `region` (ascending), each once,
  // in merged (transaction, range) order — one file batch's input.
  std::vector<RangeImage> RangesFor(RegionId region, const std::vector<uint64_t>& pages) const;

  // Highest sequence number per lock across the whole history (baseline
  // rebuild without replay).
  const std::map<LockId, uint64_t>& MaxLockSeq() const { return max_lock_seq_; }
  // Highest commit_seq indexed for `node` (0 when none).
  uint64_t MaxCommitSeq(NodeId node) const;

  // Appends the records of `merged` (in their given order) that are not
  // already indexed — a record is a duplicate when its (node, commit_seq)
  // is. Returns the keys of the pages the new records touch (the caller
  // re-pends them for replay).
  std::vector<PageKey> Extend(std::vector<TransactionRecord> merged);

 private:
  void IndexTransaction(uint32_t txn_idx, std::vector<PageKey>* touched);

  std::vector<TransactionRecord> txns_;
  std::map<PageKey, std::vector<Slice>> pages_;
  std::map<LockId, uint64_t> max_lock_seq_;
  std::map<NodeId, uint64_t> max_commit_seq_;
};

}  // namespace rvm

#endif  // SRC_RVM_LOG_INDEX_H_
