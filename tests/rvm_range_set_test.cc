// RangeSet: the §3.1 write set, both coalescing modes, and its commit-time
// sort.
#include "src/rvm/range_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/base/crc32.h"
#include "src/base/rng.h"
#include "src/oo7/database.h"
#include "src/oo7/traversals.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"

namespace {

using rvm::AddOutcome;
using rvm::CoalesceMode;
using rvm::Range;
using rvm::RangeSet;

TEST(RangeSetFull, MergesAdjacent) {
  RangeSet s(CoalesceMode::kFullCoalesce);
  EXPECT_EQ(AddOutcome::kInserted, s.Add(0, 10));
  EXPECT_EQ(AddOutcome::kCoalesced, s.Add(10, 10));
  EXPECT_EQ(1u, s.range_count());
  EXPECT_EQ(20u, s.byte_count());
}

TEST(RangeSetFull, MergesOverlapping) {
  RangeSet s(CoalesceMode::kFullCoalesce);
  s.Add(0, 10);
  s.Add(5, 10);
  EXPECT_EQ(1u, s.range_count());
  EXPECT_EQ(15u, s.byte_count());
}

TEST(RangeSetFull, MergesSpanningMultiple) {
  RangeSet s(CoalesceMode::kFullCoalesce);
  s.Add(0, 5);
  s.Add(10, 5);
  s.Add(20, 5);
  EXPECT_EQ(3u, s.range_count());
  // One range covering everything swallows all three.
  EXPECT_EQ(AddOutcome::kCoalesced, s.Add(0, 25));
  EXPECT_EQ(1u, s.range_count());
  EXPECT_EQ(25u, s.byte_count());
}

TEST(RangeSetFull, ExactDuplicateDetected) {
  RangeSet s(CoalesceMode::kFullCoalesce);
  s.Add(100, 8);
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(100, 8));
  EXPECT_EQ(1u, s.range_count());
  EXPECT_EQ(8u, s.byte_count());
}

TEST(RangeSetFull, DisjointStayDisjoint) {
  RangeSet s(CoalesceMode::kFullCoalesce);
  s.Add(0, 4);
  s.Add(100, 4);
  s.Add(50, 4);
  EXPECT_EQ(3u, s.range_count());
  EXPECT_EQ(12u, s.byte_count());
}

TEST(RangeSetExact, DuplicatesCoalesceOnly) {
  RangeSet s(CoalesceMode::kExactMatch);
  EXPECT_EQ(AddOutcome::kInserted, s.Add(100, 8));
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(100, 8));
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(100, 8));
  EXPECT_EQ(1u, s.range_count());
  EXPECT_EQ(8u, s.byte_count());
}

TEST(RangeSetExact, AdjacentNotMerged) {
  // Unlike classic RVM, the optimized mode keeps adjacent ranges separate.
  RangeSet s(CoalesceMode::kExactMatch);
  s.Add(0, 8);
  s.Add(8, 8);
  EXPECT_EQ(2u, s.range_count());
  EXPECT_EQ(16u, s.byte_count());
}

TEST(RangeSetExact, OrderedInsertUsesHint) {
  RangeSet s(CoalesceMode::kExactMatch);
  for (uint64_t i = 0; i < 100; ++i) {
    s.Add(i * 16, 8);
  }
  EXPECT_EQ(100u, s.range_count());
  // All but the first insertion should ride the ordered-address fast path.
  EXPECT_GE(s.hint_hits(), 98u);
}

TEST(RangeSetExact, RepeatedSameRangeUsesHint) {
  RangeSet s(CoalesceMode::kExactMatch);
  s.Add(64, 8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(64, 8));
  }
  EXPECT_GE(s.hint_hits(), 50u);
}

TEST(RangeSetExact, SameStartLongerLengthGrows) {
  RangeSet s(CoalesceMode::kExactMatch);
  s.Add(0, 8);
  EXPECT_EQ(AddOutcome::kGrown, s.Add(0, 16));
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(0, 8));
  EXPECT_EQ(1u, s.range_count());
  EXPECT_EQ(16u, s.byte_count());
}

TEST(RangeSetExact, OlderRangeFoundBeforeAndAfterSort) {
  RangeSet s(CoalesceMode::kExactMatch);
  s.Add(16, 8);
  s.Add(32, 8);
  // An older offset: the set builds its index and finds it there.
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(16, 8));
  EXPECT_EQ(AddOutcome::kInserted, s.Add(0, 8));
  EXPECT_EQ(AddOutcome::kGrown, s.Add(32, 16));
  EXPECT_EQ((std::vector<Range>{{0, 8}, {16, 8}, {32, 16}}), s.ranges());
  // The sort moved every entry; re-registrations still find them.
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(0, 8));
  EXPECT_EQ(AddOutcome::kGrown, s.Add(16, 24));
  EXPECT_EQ(AddOutcome::kInserted, s.Add(8, 8));
  EXPECT_EQ(AddOutcome::kExactDuplicate, s.Add(32, 8));
  EXPECT_EQ((std::vector<Range>{{0, 8}, {8, 8}, {16, 24}, {32, 16}}), s.ranges());
  EXPECT_EQ(56u, s.byte_count());
}

TEST(RangeSet, ClearResets) {
  RangeSet s(CoalesceMode::kExactMatch);
  s.Add(0, 8);
  s.Clear();
  EXPECT_EQ(0u, s.range_count());
  EXPECT_EQ(0u, s.byte_count());
  EXPECT_EQ(AddOutcome::kInserted, s.Add(0, 8));
}

// Clear keeps the vector's capacity, so a stale cursor would still point at
// old entries; the set must not re-register one of them.
TEST(RangeSet, ClearLeavesNoStaleEntryUnderTheCursor) {
  RangeSet s(CoalesceMode::kExactMatch);
  for (uint64_t i = 0; i < 100; ++i) {
    s.Add(i * 16, 8);
  }
  s.Add(0, 8);  // an older entry: the cursor moves to position 0
  s.Add(16, 8);
  s.Clear();
  EXPECT_EQ(AddOutcome::kInserted, s.Add(800, 8));
  EXPECT_EQ(AddOutcome::kInserted, s.Add(16, 8));
  EXPECT_EQ(AddOutcome::kInserted, s.Add(0, 8));
  EXPECT_EQ(AddOutcome::kInserted, s.Add(32, 8));
  EXPECT_EQ((std::vector<Range>{{0, 8}, {16, 8}, {32, 8}, {800, 8}}), s.ranges());
  EXPECT_EQ(32u, s.byte_count());
}

TEST(RangeSet, IterationIsAddressOrdered) {
  RangeSet s(CoalesceMode::kExactMatch);
  s.Add(300, 4);
  s.Add(100, 4);
  s.Add(200, 4);
  uint64_t prev = 0;
  for (const auto& [off, len] : s.ranges()) {
    EXPECT_GT(off, prev);
    prev = off;
  }
}

// Property: in full-coalesce mode the set is always a minimal disjoint
// cover of the bytes added; byte_count equals the union size.
class RangeSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeSetPropertyTest, FullCoalesceIsMinimalCover) {
  base::Rng rng(GetParam());
  RangeSet s(CoalesceMode::kFullCoalesce);
  std::map<uint64_t, bool> bytes;  // reference model
  for (int i = 0; i < 300; ++i) {
    uint64_t off = rng.Uniform(2048);
    uint64_t len = 1 + rng.Uniform(64);
    s.Add(off, len);
    for (uint64_t b = off; b < off + len; ++b) {
      bytes[b] = true;
    }
  }
  // Union size matches.
  EXPECT_EQ(bytes.size(), s.byte_count());
  // Ranges are disjoint, non-adjacent, and cover exactly the model bytes.
  uint64_t covered = 0;
  uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [off, len] : s.ranges()) {
    if (!first) {
      EXPECT_GT(off, prev_end) << "ranges adjacent or overlapping";
    }
    for (uint64_t b = off; b < off + len; ++b) {
      EXPECT_TRUE(bytes.count(b)) << "range covers byte never added";
    }
    covered += len;
    prev_end = off + len;
    first = false;
  }
  EXPECT_EQ(bytes.size(), covered);
}

TEST_P(RangeSetPropertyTest, ExactModeNeverLosesBytes) {
  base::Rng rng(GetParam());
  RangeSet s(CoalesceMode::kExactMatch);
  std::map<uint64_t, bool> bytes;
  for (int i = 0; i < 300; ++i) {
    uint64_t off = rng.Uniform(4096) & ~7ull;  // object-aligned, like compiler output
    uint64_t len = 8 << rng.Uniform(3);
    s.Add(off, len);
    for (uint64_t b = off; b < off + len; ++b) {
      bytes[b] = true;
    }
  }
  // Every added byte is inside some registered range (no loss; duplication
  // across genuinely overlapping ranges is allowed in this mode).
  std::map<uint64_t, bool> covered;
  for (const auto& [off, len] : s.ranges()) {
    for (uint64_t b = off; b < off + len; ++b) {
      covered[b] = true;
    }
  }
  for (const auto& [b, unused] : bytes) {
    EXPECT_TRUE(covered.count(b)) << "byte " << b << " lost";
  }
}

// Property: kExactMatch holds exactly the reference map offset -> largest
// registered length, reports each Add's outcome against it, and lists it in
// address order — including when ranges() is read mid-transaction and the
// adds continue over the sorted set.
TEST_P(RangeSetPropertyTest, ExactModeMatchesReferenceMap) {
  base::Rng rng(GetParam());
  RangeSet s(CoalesceMode::kExactMatch);
  std::map<uint64_t, uint64_t> ref;
  std::vector<uint64_t> keys;  // ref's keys in insertion order
  uint64_t highest = 0;
  auto expect_same = [&] {
    std::vector<Range> want;
    uint64_t bytes = 0;
    for (const auto& [off, len] : ref) {
      want.push_back(Range{off, len});
      bytes += len;
    }
    EXPECT_EQ(want, s.ranges());
    EXPECT_EQ(ref.size(), s.range_count());
    EXPECT_EQ(bytes, s.byte_count());
  };
  for (int i = 0; i < 2000; ++i) {
    uint64_t off;
    uint64_t len = 8 << rng.Uniform(2);
    switch (keys.empty() ? 0 : rng.Uniform(5)) {
      case 0:  // ascending
        off = highest + 8 * (1 + rng.Uniform(4));
        break;
      case 1:  // random
        off = rng.Uniform(1 << 14) & ~7ull;
        break;
      case 2:  // the last entry again
        off = keys.back();
        break;
      case 3:  // an older entry again
        off = keys[rng.Uniform(keys.size())];
        break;
      default:  // an older entry, longer
        off = keys[rng.Uniform(keys.size())];
        len = ref[off] + 8 * (1 + rng.Uniform(3));
        break;
    }
    auto it = ref.find(off);
    AddOutcome want = AddOutcome::kExactDuplicate;
    if (it == ref.end()) {
      want = AddOutcome::kInserted;
      ref.emplace(off, len);
      keys.push_back(off);
    } else if (len > it->second) {
      want = AddOutcome::kGrown;
      it->second = len;
    }
    ASSERT_EQ(want, s.Add(off, len)) << "add " << i << " at " << off << " len " << len;
    highest = std::max(highest, off);
    if (rng.Chance(1, 40)) {
      expect_same();
    }
  }
  expect_same();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetPropertyTest, ::testing::Range<uint64_t>(0, 10));

// ranges() sorts an out-of-order kExactMatch set by radix from
// RangeSet::kRadixSortFrom ranges up, by comparison below. Either way it must
// list exactly what std::sort of the registrations lists.
enum class OffsetPattern { kRandom, kDescending, kClustered, kHigh };

// `n` distinct offsets in the order they are declared.
std::vector<uint64_t> DeclarationOrder(OffsetPattern pattern, size_t n, base::Rng& rng) {
  std::vector<uint64_t> out;
  std::set<uint64_t> seen;
  auto push = [&](uint64_t offset) {
    if (seen.insert(offset).second) {
      out.push_back(offset);
    }
  };
  while (out.size() < n) {
    switch (pattern) {
      case OffsetPattern::kRandom:  // every byte of the offset varies
        push(rng.Next());
        break;
      case OffsetPattern::kDescending:
        push(8 * (n - out.size()));
        break;
      case OffsetPattern::kClustered: {  // a few objects' fields, revisited
        const uint64_t cluster = rng.Uniform(4) << 24;
        push(cluster + 8 * rng.Uniform(4 * n));
        break;
      }
      case OffsetPattern::kHigh:  // at or above 2^63, top bytes varying too
        push((uint64_t{1} << 63) | (rng.Uniform(3) << 56) | (rng.Uniform(1 << 20) << 3));
        break;
    }
  }
  return out;
}

std::vector<Range> SortedReference(std::vector<Range> declared) {
  std::sort(declared.begin(), declared.end(),
            [](const Range& a, const Range& b) { return a.offset < b.offset; });
  return declared;
}

TEST(RangeSetRadixSort, MatchesComparisonSortAroundTheCutoff) {
  const size_t cutoff = RangeSet::kRadixSortFrom;
  base::Rng rng(21);
  for (OffsetPattern pattern : {OffsetPattern::kRandom, OffsetPattern::kDescending,
                                OffsetPattern::kClustered, OffsetPattern::kHigh}) {
    for (size_t n : {size_t{2}, cutoff - 1, cutoff, cutoff + 1, 4 * cutoff + 3, size_t{20000}}) {
      RangeSet s(CoalesceMode::kExactMatch);
      std::vector<Range> declared;
      for (uint64_t offset : DeclarationOrder(pattern, n, rng)) {
        const uint64_t len = 8 << rng.Uniform(3);
        ASSERT_EQ(AddOutcome::kInserted, s.Add(offset, len));
        declared.push_back(Range{offset, len});
      }
      EXPECT_EQ(SortedReference(declared), s.ranges())
          << "pattern " << static_cast<int>(pattern) << ", " << n << " ranges";
    }
  }
}

TEST(RangeSetRadixSort, AddsAfterASortRebuildTheIndex) {
  base::Rng rng(22);
  const size_t n = 3 * RangeSet::kRadixSortFrom;
  std::vector<uint64_t> order = DeclarationOrder(OffsetPattern::kRandom, 2 * n, rng);
  RangeSet s(CoalesceMode::kExactMatch);
  std::vector<Range> declared;
  for (size_t i = 0; i < n; ++i) {
    s.Add(order[i], 8);
    declared.push_back(Range{order[i], 8});
  }
  ASSERT_EQ(SortedReference(declared), s.ranges());
  // After the sort: new offsets out of order, and re-registrations that
  // must find the moved entries through the rebuilt index.
  for (size_t i = n; i < 2 * n; ++i) {
    ASSERT_EQ(AddOutcome::kInserted, s.Add(order[i], 8));
    declared.push_back(Range{order[i], 8});
    const size_t old = rng.Uniform(i);
    ASSERT_EQ(AddOutcome::kGrown, s.Add(declared[old].offset, declared[old].len + 8));
    declared[old].len += 8;
  }
  EXPECT_EQ(SortedReference(declared), s.ranges());
  EXPECT_EQ(2 * n, s.range_count());
}

// The log payload a commit writes for the OO7 T2-B declaration sequence
// (43 740 calls over ~7 800 offsets, out of address order) is pinned: its
// size and CRC were checked against the range-by-range encoding of the
// declared ranges in std::map order, so the radix sort (or any later change
// to the one-pass write) must leave every byte of the log format as it was.
TEST(RangeSetRadixSort, Oo7T2BLogPayloadIsUnchanged) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  const oo7::Config config;
  const uint64_t size = oo7::Database::RequiredSize(config);
  rvm::Region* region = *r->MapRegion(1, size);
  ASSERT_TRUE(oo7::Database::Build(region->data(), size, config).ok());
  bench::RecordingSink recorder;
  ASSERT_TRUE(oo7::RunT2(oo7::Database(region->data()), recorder, oo7::Variant::kB).status.ok());
  ASSERT_EQ(43740u, recorder.ranges().size());
  rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (const auto& [offset, len] : recorder.ranges()) {
    ASSERT_TRUE(r->SetRange(txn, 1, offset, len).ok());
  }
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());

  auto file = std::move(*store.Open(rvm::LogFileName(1), /*create=*/false));
  rvm::LogReader reader(file.get());
  base::ByteSpan view;
  bool at_end = false;
  ASSERT_TRUE(reader.ReadNext(&view, &at_end).ok());
  ASSERT_FALSE(at_end);
  const std::vector<uint8_t> payload(view.begin(), view.end());
  EXPECT_EQ(128706u, payload.size());
  EXPECT_EQ(0x5e9102dbu, base::Crc32c(payload.data(), payload.size()));
  // The reference: each declared offset once, with its largest length, in
  // address order, encoded range by range from the region image.
  std::map<uint64_t, uint64_t> declared;
  for (const auto& [offset, len] : recorder.ranges()) {
    declared[offset] = std::max(declared[offset], len);
  }
  std::vector<rvm::RangeImage> reference;
  for (const auto& [offset, len] : declared) {
    reference.emplace_back(1, offset, base::ByteSpan(region->data() + offset, len));
  }
  EXPECT_EQ(rvm::EncodeTransaction(rvm::MakeTransaction(1, 1, {}, reference)), payload);
  ASSERT_TRUE(reader.ReadNext(&view, &at_end).ok());
  EXPECT_TRUE(at_end);
}

// Differential test of the kExactMatch write set against a std::map model,
// on the sequences its fast paths are built for and on ones that break
// them: traversals that revisit groups of objects (an OO7 composite part's
// atomic parts) in the order of the first visit, revisits out of that
// order, grown re-registrations, ranges() read mid-transaction (the sort
// moves every entry under the cursor), and index sizes guessed from a
// larger or a smaller transaction.

// The reference model: offset -> largest registered length.
class ReferenceWriteSet {
 public:
  AddOutcome Add(uint64_t offset, uint64_t len) {
    auto [it, inserted] = ranges_.emplace(offset, len);
    if (inserted) {
      bytes_ += len;
      return AddOutcome::kInserted;
    }
    if (len <= it->second) {
      return AddOutcome::kExactDuplicate;
    }
    bytes_ += len - it->second;
    it->second = len;
    return AddOutcome::kGrown;
  }

  std::vector<Range> Sorted() const {
    std::vector<Range> out;
    for (const auto& [offset, len] : ranges_) {
      out.push_back(Range{offset, len});
    }
    return out;
  }

  size_t size() const { return ranges_.size(); }
  uint64_t bytes() const { return bytes_; }

 private:
  std::map<uint64_t, uint64_t> ranges_;
  uint64_t bytes_ = 0;
};

struct RevisitShape {
  size_t groups;               // objects of `per_group` ranges each
  size_t per_group;
  size_t visits;               // group visits, repeats included
  uint64_t shuffle_per_1000;   // a visit walks its group in a new order
  uint64_t grow_per_1000;      // a call registers a longer length
};

// A traversal's declarations: each visit picks a group and declares its
// ranges in the group's order, which the first visit fixes. Each group is
// its own 1 KiB object at a random place in a 4 MiB region, and its ranges
// are 8-byte fields spread over the object, so no visit is in address order.
constexpr uint64_t kObjects = 4096;
constexpr uint64_t kObjectSize = 1024;

std::vector<Range> RevisitSequence(const RevisitShape& shape, base::Rng& rng) {
  std::vector<uint64_t> objects(kObjects);
  for (uint64_t i = 0; i < kObjects; ++i) {
    objects[i] = i;
  }
  std::vector<std::vector<uint64_t>> groups(shape.groups);
  for (size_t g = 0; g < groups.size(); ++g) {
    std::swap(objects[g], objects[g + rng.Uniform(kObjects - g)]);
    std::vector<uint64_t>& group = groups[g];
    while (group.size() < shape.per_group) {
      const uint64_t offset = kObjectSize * objects[g] + 8 * rng.Uniform(kObjectSize / 8);
      if (std::find(group.begin(), group.end(), offset) == group.end()) {
        group.push_back(offset);
      }
    }
  }
  std::map<uint64_t, uint64_t> len_of;
  std::vector<Range> calls;
  for (size_t v = 0; v < shape.visits; ++v) {
    std::vector<uint64_t> order = groups[rng.Uniform(groups.size())];
    if (rng.Chance(shape.shuffle_per_1000, 1000)) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
    }
    for (uint64_t offset : order) {
      uint64_t& len = len_of.emplace(offset, 8).first->second;
      // A grown range stays inside its object, and so inside the region.
      if (offset % kObjectSize + len < kObjectSize && rng.Chance(shape.grow_per_1000, 1000)) {
        len += 8;
      }
      calls.push_back(Range{offset, len});
    }
  }
  return calls;
}

constexpr RevisitShape kInOrder{200, 20, 1000, 0, 0};
constexpr RevisitShape kShuffled{200, 20, 1000, 300, 0};
constexpr RevisitShape kGrowing{200, 20, 1000, 100, 50};

// Adds `calls` to `set` and checks every outcome and, every `check_every`
// calls and at the end, ranges(), range_count() and byte_count().
void ExpectMatchesReference(RangeSet& set, const std::vector<Range>& calls,
                            size_t check_every) {
  ReferenceWriteSet ref;
  for (size_t i = 0; i < calls.size(); ++i) {
    const auto [offset, len] = calls[i];
    ASSERT_EQ(ref.Add(offset, len), set.Add(offset, len))
        << "call " << i << " at " << offset << " len " << len;
    if ((i + 1) % check_every == 0) {
      ASSERT_EQ(ref.Sorted(), set.ranges()) << "after call " << i;
    }
  }
  EXPECT_EQ(ref.Sorted(), set.ranges());
  EXPECT_EQ(ref.size(), set.range_count());
  EXPECT_EQ(ref.bytes(), set.byte_count());
}

TEST(RangeSetDifferential, MatchesReferenceForEveryShapeAndIndexSize) {
  for (const RevisitShape& shape : {kInOrder, kShuffled, kGrowing}) {
    base::Rng rng(shape.shuffle_per_1000 + shape.grow_per_1000);
    const std::vector<Range> calls = RevisitSequence(shape, rng);
    // 0: doubling only; the exact size; a guess far too small; one far too
    // large. ranges() mid-transaction: never, often, and rarely.
    for (size_t expected : {size_t{0}, size_t{4000}, size_t{16}, size_t{1} << 20}) {
      for (size_t check_every : {calls.size() + 1, size_t{97}, size_t{5003}}) {
        SCOPED_TRACE(::testing::Message() << "shuffle " << shape.shuffle_per_1000 << " grow "
                                          << shape.grow_per_1000 << " expected " << expected
                                          << " check every " << check_every);
        RangeSet set(CoalesceMode::kExactMatch, expected);
        ExpectMatchesReference(set, calls, check_every);
      }
    }
  }
}

// hint_hits() counts the successor fast path: a revisit in the order of the
// first visit probes the index only for the group's first range.
TEST(RangeSetDifferential, InOrderRevisitsTakeTheSuccessorPath) {
  base::Rng rng(7);
  const std::vector<Range> calls = RevisitSequence(kInOrder, rng);
  RangeSet set(CoalesceMode::kExactMatch);
  for (const auto& [offset, len] : calls) {
    set.Add(offset, len);
  }
  const uint64_t revisit_calls = calls.size() - set.range_count();
  EXPECT_GE(set.hint_hits(), revisit_calls * (kInOrder.per_group - 1) / kInOrder.per_group);
}

// Through Rvm, whose write set sizes its index from the last transaction:
// sets of several sizes, each after a larger and then a smaller transaction
// on the same Rvm. A commit logs exactly the reference set, and a kRestore
// abort puts back every byte the transaction wrote.
TEST(RangeSetDifferential, RvmCommitAndRestoreAfterLargerAndSmallerTransactions) {
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  constexpr uint64_t kRegionSize = kObjects * kObjectSize;
  rvm::Region* region = *r->MapRegion(1, kRegionSize);
  base::Rng rng(23);
  for (uint64_t i = 0; i < kRegionSize; ++i) {
    region->data()[i] = static_cast<uint8_t>(rng.Next());
  }
  std::vector<Range> committed;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) {
    committed.clear();
    for (const rvm::RangeImage& image : rec.ranges) {
      committed.push_back(Range{image.offset, image.data.size()});
    }
  });
  auto sequence = [&](size_t groups, uint64_t shuffle_per_1000) {
    return RevisitSequence(RevisitShape{groups, 20, 4 * groups, shuffle_per_1000, 30}, rng);
  };
  auto commit = [&](const std::vector<Range>& calls) {
    ReferenceWriteSet ref;
    rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (const auto& [offset, len] : calls) {
      ref.Add(offset, len);
      ASSERT_TRUE(r->SetRange(txn, 1, offset, len).ok());
    }
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
    EXPECT_EQ(ref.Sorted(), committed);
  };
  auto restore = [&](const std::vector<Range>& calls) {
    const std::vector<uint8_t> before(region->data(), region->data() + kRegionSize);
    rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kRestore);
    for (const auto& [offset, len] : calls) {
      ASSERT_TRUE(r->SetRange(txn, 1, offset, len).ok());
      for (uint64_t b = offset; b < offset + len; ++b) {
        region->data()[b] = static_cast<uint8_t>(rng.Next());
      }
    }
    ASSERT_TRUE(r->AbortTransaction(txn).ok());
    EXPECT_TRUE(std::equal(before.begin(), before.end(), region->data()));
  };
  for (size_t groups : {size_t{1}, size_t{12}, size_t{150}, size_t{600}}) {
    for (uint64_t shuffle_per_1000 : {uint64_t{0}, uint64_t{300}}) {
      SCOPED_TRACE(::testing::Message() << groups << " groups, shuffle " << shuffle_per_1000);
      commit(sequence(4 * groups, shuffle_per_1000));
      commit(sequence(std::max<size_t>(1, groups / 4), shuffle_per_1000));
      restore(sequence(groups, shuffle_per_1000));
      commit(sequence(4 * groups, shuffle_per_1000));
      commit(sequence(std::max<size_t>(1, groups / 4), shuffle_per_1000));
      commit(sequence(groups, shuffle_per_1000));
    }
  }
}

}  // namespace
