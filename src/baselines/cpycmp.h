// Multiple-writer "copy/compare" update collection (Munin / TreadMarks
// style), the paper's Cpy/Cmp comparison point.
//
// The first store to a clean page makes a copy (a *twin*); at commit every
// twinned page is compared word-by-word against its twin, and the differing
// byte ranges — the diff — are what travels to peers. Real systems take a
// write-protection fault on that first store; here the caller announces
// writes with NoteWrite (our benchmarks count the avoided faults and charge
// them via the cost model).
#ifndef SRC_BASELINES_CPYCMP_H_
#define SRC_BASELINES_CPYCMP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rvm/types.h"

namespace baselines {

// A diff hunk: the new bytes at [offset, offset+data.size()).
using Diff = rvm::RangeImage;

class CpyCmpEngine {
 public:
  // Watches `base[0, len)`; pages are `page_size` bytes.
  CpyCmpEngine(uint8_t* base, uint64_t len, uint64_t page_size = 8192)
      : base_(base), len_(len), page_size_(page_size) {}

  // Announces an upcoming store to [offset, offset+len): twins every
  // affected page on first touch (the write-fault moment).
  void NoteWrite(uint64_t offset, uint64_t len);

  // Commit: diffs every twinned page against its twin, returns the modified
  // ranges (region id filled with `region`), and forgets the twins.
  std::vector<Diff> CollectDiffs(rvm::RegionId region);

  // Pages currently twinned (dirty pages this interval).
  uint64_t dirty_pages() const { return twins_.size(); }

  // This engine's counts, readable from any thread while another commits.
  struct Metrics {
    obs::Counter write_faults;  // first-touch faults, one per page twinned
    obs::Counter pages_compared;
    obs::Counter diff_ranges;
    obs::Counter diff_bytes;    // modified bytes found by comparison
  };
  const Metrics& metrics() const { return m_; }

 private:
  uint8_t* base_;
  uint64_t len_;
  uint64_t page_size_;
  std::map<uint64_t, std::vector<uint8_t>> twins_;  // page index -> twin copy
  Metrics m_;
};

}  // namespace baselines

#endif  // SRC_BASELINES_CPYCMP_H_
