// Core identifiers and records shared by the RVM runtime, the recovery and
// merge utilities, and the coherency layer built on top.
#ifndef SRC_RVM_TYPES_H_
#define SRC_RVM_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/buffer.h"

namespace rvm {

// Node = one client of the cached persistent store (paper: one workstation).
using NodeId = uint32_t;

// Region = one recoverable segment of the store, backed by a database file.
using RegionId = uint32_t;

// Distributed segment lock identifier (paper §3.3).
using LockId = uint64_t;

// Handle for an in-flight transaction on one node.
using TxnId = uint64_t;

// Lock record inserted in the log entry of a committing transaction
// (paper §3.4). The sequence number is the lock's acquire count at the time
// this transaction acquired it; it totally orders the transactions that
// touched this lock.
struct LockRecord {
  LockId lock_id = 0;
  uint64_t sequence = 0;

  bool operator==(const LockRecord&) const = default;
};

// A modified range inside a committed transaction: absolute new values, the
// unit of both redo logging and coherency propagation. `data` views the
// bytes of the record that lists the range (see TransactionRecord).
struct RangeImage {
  RegionId region = 0;
  uint64_t offset = 0;
  base::ByteSpan data;

  RangeImage() = default;
  RangeImage(RegionId region, uint64_t offset, base::ByteSpan data)
      : region(region), offset(offset), data(data) {}
  // A view cannot keep a temporary alive.
  RangeImage(RegionId, uint64_t, std::vector<uint8_t>&&) = delete;

  // Compares the bytes, not where they live.
  bool operator==(const RangeImage& o) const {
    return region == o.region && offset == o.offset &&
           std::ranges::equal(data, o.data);
  }
};

// Tag of a range header whose address is a delta from the previous range's
// start (log_format.h has the payload layout and the spelling rule).
inline constexpr uint8_t kRangeDelta = 0x01;

// The ranges of a transaction payload (log_format.h), read where they lie:
// the one range walker. Iterating yields RangeImages whose data views the
// payload. The walk checks nothing, so a RangeList is only made over a
// range list the range writer wrote or DecodeTransaction accepted.
class RangeList {
 public:
  // Reads the range whose header is at `at`, after one that started at
  // `prev_start`; returns where the next header starts.
  static const uint8_t* Read(const uint8_t* at, uint64_t prev_start, RangeImage* out) {
    const uint8_t tag = *at++;
    out->region = static_cast<RegionId>(Varint(at));
    const uint64_t address = Varint(at);
    // tag is 0 or kRangeDelta: a delta adds the previous start, branch-free.
    out->offset = address + (prev_start & (0 - uint64_t{tag}));
    const uint64_t len = Varint(at);
    out->data = base::ByteSpan(at, len);
    return at + len;
  }

  // Yields each range by value: a view of the payload, not of the
  // iterator, so it outlives the step that made it.
  class iterator {
   public:
    RangeImage operator*() const { return range_; }
    const RangeImage* operator->() const { return &range_; }
    iterator& operator++() {
      at_ = next_;
      Load();
      return *this;
    }
    bool operator==(const iterator& o) const { return at_ == o.at_; }
    // Where the current range's header starts.
    const uint8_t* header() const { return at_; }

   private:
    friend class RangeList;
    iterator(const uint8_t* at, const uint8_t* end) : at_(at), end_(end) { Load(); }
    void Load() {
      if (at_ != end_) {
        next_ = Read(at_, range_.offset, &range_);
      }
    }

    const uint8_t* at_ = nullptr;
    const uint8_t* next_ = nullptr;
    const uint8_t* end_ = nullptr;
    RangeImage range_{0, UINT64_MAX, base::ByteSpan()};
  };

  RangeList() = default;
  // `count` ranges, the first header at `first`, the last range's data
  // ending at `end`.
  RangeList(const uint8_t* first, const uint8_t* end, size_t count)
      : first_(first), end_(end), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  iterator begin() const { return iterator(first_, end_); }
  iterator end() const { return iterator(end_, end_); }
  // The encoded ranges: headers and data.
  base::ByteSpan bytes() const { return base::ByteSpan(first_, end_ - first_); }

  // The range whose header is `pos` bytes into bytes() and which starts at
  // `offset` (a LogIndex slice: the start is kept, since a delta-coded
  // header cannot be read without its predecessor).
  RangeImage At(size_t pos, uint64_t offset) const {
    RangeImage out;
    Read(first_ + pos, 0, &out);
    out.offset = offset;
    return out;
  }

  // The same ranges. The spelling is canonical, so equal bytes are equal
  // ranges and the reverse.
  bool operator==(const RangeList& o) const {
    return count_ == o.count_ && std::ranges::equal(bytes(), o.bytes());
  }

 private:
  // A varint the range writer wrote (minimal, at most 10 bytes).
  static uint64_t Varint(const uint8_t*& at) {
    uint64_t value = *at++;
    if (value < 0x80) [[likely]] {
      return value;
    }
    value &= 0x7F;
    for (int shift = 7;; shift += 7) {
      const uint64_t byte = *at++;
      value |= (byte & 0x7F) << shift;
      if (byte < 0x80) {
        return value;
      }
    }
  }

  const uint8_t* first_ = nullptr;
  const uint8_t* end_ = nullptr;
  size_t count_ = 0;
};

// One committed transaction as it appears in a log and on the wire: its
// encoded log payload (log_format.h), held where it lies in `bytes`, the
// refcounted immutable Buffer it was decoded from or written into (a
// message, a log read, the commit's own). Copying a record bumps a
// refcount, and the views survive moves of the record. `node`, `commit_seq`
// and `locks` are the payload's prefix, decoded; `ranges` reads the rest in
// place. The decoders and the range writer (log_format.h) set `payload` and
// `ranges` together; a record without a payload (default-constructed, or
// with its fields set by hand) has no ranges and is never logged or sent.
// DESIGN.md §13, "Zero-copy receive", has the details.
struct TransactionRecord {
  NodeId node = 0;
  // Per-node commit sequence number; with `node` this uniquely names the
  // transaction and fixes the intra-node order during merge.
  uint64_t commit_seq = 0;
  std::vector<LockRecord> locks;
  base::Buffer bytes;
  base::ByteSpan payload;
  RangeList ranges;

  // Compares contents, not Buffers.
  bool operator==(const TransactionRecord& o) const {
    return node == o.node && commit_seq == o.commit_seq && locks == o.locks &&
           ranges == o.ranges;
  }

  // The sequence number this transaction holds for `lock`; 0 if none.
  uint64_t SequenceOf(LockId lock) const {
    for (const LockRecord& lr : locks) {
      if (lr.lock_id == lock) {
        return lr.sequence;
      }
    }
    return 0;
  }

  uint64_t TotalBytes() const {
    uint64_t n = 0;
    for (const RangeImage& r : ranges) {
      n += r.data.size();
    }
    return n;
  }
};

// Database file name for a region. Shared by the runtime, the recovery
// utility, and the storage server so they agree on the store layout.
inline std::string RegionFileName(RegionId region) {
  return "region_" + std::to_string(region) + ".db";
}

// Redo-log file name for a node.
inline std::string LogFileName(NodeId node) {
  return "log_" + std::to_string(node) + ".rvm";
}

}  // namespace rvm

#endif  // SRC_RVM_TYPES_H_
