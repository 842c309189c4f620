// Core identifiers and records shared by the RVM runtime, the recovery and
// merge utilities, and the coherency layer built on top.
#ifndef SRC_RVM_TYPES_H_
#define SRC_RVM_TYPES_H_

#include <algorithm>
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

// One committed transaction as it appears in a log and on the wire. Its
// ranges view `bytes`, the refcounted immutable Buffer they were decoded or
// encoded from (a message payload, a log payload, the commit record):
// copying a record bumps a refcount, and the spans survive moves of the
// record. `bytes` is empty only in the commit hook with disk logging off,
// where the ranges view the live images until the hook returns. DESIGN.md
// §13, "Zero-copy receive", has the details.
struct TransactionRecord {
  NodeId node = 0;
  // Per-node commit sequence number; with `node` this uniquely names the
  // transaction and fixes the intra-node order during merge.
  uint64_t commit_seq = 0;
  std::vector<LockRecord> locks;
  std::vector<RangeImage> ranges;
  base::Buffer bytes;
  // The record's encoded log payload (log_format.h), inside `bytes`, when it
  // has one: set at ordering and by the decoders, so a broadcast, a token
  // piggyback or a carried copy sends or logs these bytes as they are. A
  // record whose fields are changed must drop it.
  base::ByteSpan payload;

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
    for (const auto& r : ranges) {
      n += r.data.size();
    }
    return n;
  }

  // A copy that holds its bytes: a refcount bump when `bytes` is set, else
  // one copy of every range into a new Buffer, with no payload.
  TransactionRecord Own() const {
    if (!bytes.empty()) {
      return *this;
    }
    TransactionRecord out = *this;
    out.payload = {};
    std::vector<uint8_t> packed;
    packed.reserve(TotalBytes());  // so the views taken below stay valid
    for (auto& r : out.ranges) {
      const uint8_t* at = packed.data() + packed.size();
      packed.insert(packed.end(), r.data.begin(), r.data.end());
      r.data = base::ByteSpan(at, r.data.size());
    }
    out.bytes = base::Buffer(std::move(packed));  // adopts that storage, no copy
    return out;
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
