// The per-transaction write set of modified ranges (paper §3.1).
//
// set_range calls register [offset, offset+len) ranges; at commit the set is
// read back in address order and gathered into the log record. Classic RVM
// keeps the ranges in an address-ordered tree and coalesces any adjacent or
// overlapping ranges so that no byte is written to the log twice. The paper
// observes that compiler-emitted set_range calls rarely overlap partially,
// and replaces general coalescing with two cheaper fast paths.
//
// kExactMatch (the default) keeps a flat write set: a vector of ranges in
// insertion order plus an open-addressing offset -> position index. The
// paper's fast paths map onto it as follows:
//   1. redundant updates: re-registering the range last touched is one
//      compare against the entry under a cursor; an older range is found
//      with one index probe. Either way the set keeps one entry per offset
//      with the larger length;
//   2. the ordered-insertion hint: while calls arrive in ascending address
//      order the vector stays sorted, so an offset above the last entry is
//      a plain append — no search, no index, and no sort at commit.
// The first call that takes neither fast path builds the index; from then
// on a call is one probe, plus an append for a new offset, and ranges()
// sorts the vector once at commit: a radix sort on the offset (linear in the
// set; passes of at most 12-bit digits over the bits in which the offsets
// differ, two on T2-B), or a comparison sort for a set below kRadixSortFrom.
//   3. the successor check, one compare before the probe: a traversal that
//      revisits objects in the order it first visited them (OO7's T2 walks
//      each composite part's atomic parts the same way every time) asks
//      next for the successor of the range it last touched, so the entry
//      after the cursor is checked first and a match needs no probe. On
//      T2-B it serves about three calls in four. hint_hits() counts it.
// The cursor is only a hint, checked by that offset compare, so a sort or a
// Clear cannot make it return a wrong entry.
//
// The index starts at 16 slots and doubles whenever it is half full, and
// each rebuild re-probes the whole set. A set that the caller expects to
// grow large (Rvm passes the number of ranges of its last transaction that
// declared any) builds its large table once instead: when the set grows
// past an eighth of the expected size, the index jumps straight to twice
// that size. A small transaction after a large one never reaches an
// eighth, so it never pays for the large table.
//
// kFullCoalesce keeps the classic address-ordered tree with insert-time
// merging: it is Figure 8's "Standard RVM" baseline, and its merging cost
// is the point of that comparison. Both modes expose the same sorted view,
// so Figure 8 and the Unordered/Ordered/Redundant curves of Figures 5-6 can
// be reproduced.
#ifndef SRC_RVM_RANGE_SET_H_
#define SRC_RVM_RANGE_SET_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace rvm {

enum class CoalesceMode {
  // Classic RVM: merge adjacent/overlapping ranges on insert.
  kFullCoalesce,
  // Paper's optimization: merge only ranges with the same start; keep the
  // ordered-insertion fast path for address-ordered call sequences.
  kExactMatch,
};

// Outcome of a single Add. A caller that keeps undo copies must snapshot
// every range whose outcome is not kExactDuplicate.
enum class AddOutcome {
  kInserted,        // new range entered the set
  kExactDuplicate,  // already covered by a registration with the same start
  kGrown,           // same start, longer length: the registration grew
  kCoalesced,       // merged with neighbours (kFullCoalesce only)
};

struct Range {
  uint64_t offset = 0;
  uint64_t len = 0;

  bool operator==(const Range&) const = default;
};

class RangeSet {
 public:
  // `expected_ranges` sizes the kExactMatch index (see above); 0 grows it
  // by doubling alone.
  explicit RangeSet(CoalesceMode mode, size_t expected_ranges = 0)
      : mode_(mode), expected_ranges_(expected_ranges) {}

  AddOutcome Add(uint64_t offset, uint64_t len);

  void Clear();

  size_t range_count() const {
    return mode_ == CoalesceMode::kFullCoalesce ? merged_.size() : ranges_.size();
  }

  // Total bytes covered by the registered ranges. With kExactMatch this can
  // double-count genuinely overlapping (different-start) registrations, just
  // as the paper's optimized RVM writes redundant bytes in that rare case.
  uint64_t byte_count() const { return total_bytes_; }

  // Number of Add calls that took a fast path: a re-registration of the
  // range last touched or of its successor, or an in-order append.
  uint64_t hint_hits() const { return hint_hits_; }

  // The registered ranges in address order. With kExactMatch this sorts the
  // flat set in place if an Add left the fast paths since the last call;
  // Adds may continue afterwards.
  const std::vector<Range>& ranges();

  // Sets this small sort by comparison: below it the radix sort's fixed
  // cost (its counters and a pass per digit) outweighs n log n compares.
  static constexpr size_t kRadixSortFrom = 256;

  // A kExactMatch set holds at most this many ranges (a slot's 32 bits);
  // Add checks it.
  static constexpr size_t kMaxRanges = UINT32_MAX;

 private:
  // One open-addressing slot: a range's position in ranges_ plus one (0
  // marks an empty slot). A probe compares the offset in ranges_, so a slot
  // is 4 bytes and the T2-B index 128 KB.
  struct Slot {
    uint32_t pos_plus_one = 0;
  };

  AddOutcome AddFullCoalesce(uint64_t offset, uint64_t len);
  AddOutcome AddExactMatch(uint64_t offset, uint64_t len);
  AddOutcome Reregister(Range& range, uint64_t len);
  AddOutcome Append(uint64_t offset, uint64_t len);
  // The slot holding `offset`, or the empty slot where it belongs.
  Slot& Probe(uint64_t offset);
  // Sizes index_ for the current set and indexes every range.
  void BuildIndex();
  // Puts ranges_ in offset order.
  void SortByOffset();

  CoalesceMode mode_;
  // kExactMatch: the write set, in insertion order. kFullCoalesce: the
  // sorted view of merged_, refreshed by ranges().
  std::vector<Range> ranges_;
  // kExactMatch: ranges_ is in address order and index_ is not built;
  // cleared by the first Add off the fast paths, set again by ranges().
  bool sorted_ = true;
  // Offset -> position in ranges_, power-of-two sized, linear probing.
  std::vector<Slot> index_;
  int index_shift_ = 64;
  // kExactMatch: the position in ranges_ of the range last touched; a hint
  // only, below ranges_.size() whenever ranges_ is not empty.
  size_t cursor_ = 0;
  // The set size BuildIndex sizes for once the set passes an eighth of it.
  size_t expected_ranges_;
  // kFullCoalesce only: offset -> length, disjoint and non-adjacent.
  std::map<uint64_t, uint64_t> merged_;
  uint64_t total_bytes_ = 0;
  uint64_t hint_hits_ = 0;
};

}  // namespace rvm

#endif  // SRC_RVM_RANGE_SET_H_
