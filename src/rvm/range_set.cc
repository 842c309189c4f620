#include "src/rvm/range_set.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "src/base/logging.h"

namespace rvm {

AddOutcome RangeSet::Add(uint64_t offset, uint64_t len) {
  if (mode_ == CoalesceMode::kFullCoalesce) {
    return AddFullCoalesce(offset, len);
  }
  return AddExactMatch(offset, len);
}

void RangeSet::Clear() {
  ranges_.clear();
  sorted_ = true;
  index_.clear();
  merged_.clear();
  total_bytes_ = 0;
}

const std::vector<Range>& RangeSet::ranges() {
  if (mode_ == CoalesceMode::kFullCoalesce) {
    ranges_.clear();
    ranges_.reserve(merged_.size());
    for (const auto& [offset, len] : merged_) {
      ranges_.push_back(Range{offset, len});
    }
  } else if (!sorted_) {
    // Offsets are unique, so the order is total. Sorting moves entries, so
    // the index goes too; the next Add off the fast paths rebuilds it.
    SortByOffset();
    sorted_ = true;
    index_.clear();
  }
  return ranges_;
}

void RangeSet::SortByOffset() {
  if (ranges_.size() < kRadixSortFrom) {
    std::sort(ranges_.begin(), ranges_.end(),
              [](const Range& a, const Range& b) { return a.offset < b.offset; });
    return;
  }
  // LSD radix sort over the span of bits in which some offsets differ: the
  // high bits every offset shares (offsets inside one region) and the low
  // alignment bits they share (8-byte objects) would move nothing. The span
  // is cut into the fewest passes of at most kMaxDigitBits bits, of equal
  // width.
  uint64_t differing = 0;
  for (const Range& r : ranges_) {
    differing |= r.offset ^ ranges_.front().offset;
  }
  if (differing == 0) {
    return;
  }
  constexpr int kMaxDigitBits = 12;
  const int low = std::countr_zero(differing);
  const int span = 64 - std::countl_zero(differing) - low;
  const int passes = (span + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (span + passes - 1) / passes;
  const uint64_t digit_mask = (uint64_t{1} << digit_bits) - 1;
  // The scratch is allocated, not value-initialised: a pass writes every
  // slot it later reads. The passes alternate between ranges_ and the
  // scratch; after an odd number the result is copied back.
  const size_t n = ranges_.size();
  std::allocator<Range> alloc;
  Range* const scratch = alloc.allocate(n);
  Range* from = ranges_.data();
  Range* to = scratch;
  std::vector<size_t> next(size_t{1} << digit_bits);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = low + pass * digit_bits;
    std::fill(next.begin(), next.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      ++next[(from[i].offset >> shift) & digit_mask];
    }
    size_t start = 0;
    for (size_t& count : next) {
      start += std::exchange(count, start);
    }
    for (size_t i = 0; i < n; ++i) {
      to[next[(from[i].offset >> shift) & digit_mask]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != ranges_.data()) {
    std::copy(from, from + n, ranges_.data());
  }
  alloc.deallocate(scratch, n);
}

AddOutcome RangeSet::AddFullCoalesce(uint64_t offset, uint64_t len) {
  uint64_t lo = offset;
  uint64_t hi = offset + len;
  bool merged = false;

  // Find the first existing range that could touch [lo, hi): the predecessor
  // (it may extend past lo) and everything starting before hi.
  auto it = merged_.lower_bound(lo);
  if (it != merged_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= lo) {
      it = prev;
    }
  }
  while (it != merged_.end() && it->first <= hi) {
    uint64_t r_lo = it->first;
    uint64_t r_hi = it->first + it->second;
    if (r_hi < lo) {
      ++it;
      continue;
    }
    if (r_lo == lo && r_hi == hi && !merged) {
      return AddOutcome::kExactDuplicate;
    }
    lo = std::min(lo, r_lo);
    hi = std::max(hi, r_hi);
    total_bytes_ -= it->second;
    it = merged_.erase(it);
    merged = true;
  }
  merged_.emplace(lo, hi - lo);
  total_bytes_ += hi - lo;
  return merged ? AddOutcome::kCoalesced : AddOutcome::kInserted;
}

AddOutcome RangeSet::AddExactMatch(uint64_t offset, uint64_t len) {
  if (ranges_.empty()) {
    cursor_ = 0;
    return Append(offset, len);
  }
  // Fast path 1: the common compiler-generated pattern re-registers the
  // object it just registered. The cursor is only a hint: any entry whose
  // offset matches is the one entry for that offset.
  if (ranges_[cursor_].offset == offset) {
    ++hint_hits_;
    return Reregister(ranges_[cursor_], len);
  }
  if (sorted_) {
    // Fast path 2: an ascending-address sequence appends in order.
    if (offset > ranges_.back().offset) {
      ++hint_hits_;
      cursor_ = ranges_.size();
      return Append(offset, len);
    }
    // The first call off both fast paths: index the set from here on.
    sorted_ = false;
    BuildIndex();
  } else if (cursor_ + 1 < ranges_.size() && ranges_[cursor_ + 1].offset == offset) {
    // Fast path 3: a revisit in the order of the first visit re-registers
    // the successor of the range last touched.
    ++hint_hits_;
    return Reregister(ranges_[++cursor_], len);
  }
  Slot& slot = Probe(offset);
  if (slot.pos_plus_one != 0) {
    cursor_ = slot.pos_plus_one - 1;
    return Reregister(ranges_[cursor_], len);
  }
  cursor_ = ranges_.size();
  slot = Slot{static_cast<uint32_t>(cursor_ + 1)};
  AddOutcome outcome = Append(offset, len);
  // Keep the load factor at or below one half.
  if (2 * ranges_.size() > index_.size()) {
    BuildIndex();
  }
  return outcome;
}

AddOutcome RangeSet::Reregister(Range& range, uint64_t len) {
  // Same start: keep the larger registration.
  if (len <= range.len) {
    return AddOutcome::kExactDuplicate;
  }
  total_bytes_ += len - range.len;
  range.len = len;
  return AddOutcome::kGrown;
}

AddOutcome RangeSet::Append(uint64_t offset, uint64_t len) {
  // The index stores a position plus one in 32 bits.
  LBC_CHECK(ranges_.size() < kMaxRanges);
  ranges_.push_back(Range{offset, len});
  total_bytes_ += len;
  return AddOutcome::kInserted;
}

RangeSet::Slot& RangeSet::Probe(uint64_t offset) {
  // Fibonacci hashing: the top bits of the product spread the 8-byte-aligned
  // offsets that compilers emit.
  const size_t mask = index_.size() - 1;
  size_t i = static_cast<size_t>((offset * 0x9E3779B97F4A7C15ull) >> index_shift_);
  while (index_[i].pos_plus_one != 0 && ranges_[index_[i].pos_plus_one - 1].offset != offset) {
    i = (i + 1) & mask;
  }
  return index_[i];
}

void RangeSet::BuildIndex() {
  // The smallest power of two above twice the set: a fresh index is under
  // half full, and the rebuild that a half-full index triggers doubles it.
  // Past an eighth of the expected size the set is taken to be as large as
  // the last transaction's, and the index jumps straight to that size.
  size_t sized_for = ranges_.size();
  if (8 * sized_for > expected_ranges_) {
    sized_for = std::max(sized_for, expected_ranges_);
  }
  const size_t capacity = std::bit_ceil(std::max<size_t>(16, 2 * sized_for + 1));
  index_.assign(capacity, Slot{});
  index_shift_ = 64 - std::countr_zero(capacity);
  for (size_t pos = 0; pos < ranges_.size(); ++pos) {
    Probe(ranges_[pos].offset) = Slot{static_cast<uint32_t>(pos + 1)};
  }
}

}  // namespace rvm
