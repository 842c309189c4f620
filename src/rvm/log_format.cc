#include "src/rvm/log_format.h"

namespace rvm {
namespace {

// A header's address field: the distance from the previous range's start
// when it is near (tag kRangeDelta), else the absolute start (tag 0).
uint64_t AddressField(uint64_t prev_start, uint64_t start, uint8_t* tag) {
  if (prev_start != UINT64_MAX && start >= prev_start && start - prev_start < kNearRangeBound) {
    *tag = kRangeDelta;
    return start - prev_start;
  }
  *tag = 0;
  return start;
}

}  // namespace

size_t RangeHeaderSize(uint64_t prev_start, RegionId region, uint64_t start, uint64_t len) {
  uint8_t tag = 0;
  const uint64_t address = AddressField(prev_start, start, &tag);
  return 1 + base::VarintSize(region) + base::VarintSize(address) + base::VarintSize(len);
}

size_t TransactionPrefixSize(const TransactionRecord& txn, size_t n_ranges) {
  size_t size = 1 + base::VarintSize(txn.node) + base::VarintSize(txn.commit_seq) +
                base::VarintSize(txn.locks.size()) + base::VarintSize(n_ranges);
  for (const auto& lock : txn.locks) {
    size += base::VarintSize(lock.lock_id) + base::VarintSize(lock.sequence);
  }
  return size;
}

void WriteTransactionPrefix(base::Writer* w, const TransactionRecord& txn, size_t n_ranges) {
  w->WriteU8(static_cast<uint8_t>(LogRecordKind::kTransaction));
  w->WriteVarint(txn.node);
  w->WriteVarint(txn.commit_seq);
  w->WriteVarint(txn.locks.size());
  for (const auto& lock : txn.locks) {
    w->WriteVarint(lock.lock_id);
    w->WriteVarint(lock.sequence);
  }
  w->WriteVarint(n_ranges);
}

base::ByteSpan WriteRange(base::Writer* w, uint64_t prev_start, RegionId region,
                          uint64_t start, base::ByteSpan data) {
  uint8_t tag = 0;
  const uint64_t address = AddressField(prev_start, start, &tag);
  w->WriteU8(tag);
  w->WriteVarint(region);
  w->WriteVarint(address);
  w->WriteVarint(data.size());
  w->WriteBytes(data);
  return base::ByteSpan(w->data() + w->size() - data.size(), data.size());
}

size_t TransactionPayloadSize(const TransactionRecord& txn) {
  size_t size = TransactionPrefixSize(txn, txn.ranges.size());
  uint64_t prev_start = UINT64_MAX;
  for (const RangeImage& r : txn.ranges) {
    size += RangeHeaderSize(prev_start, r.region, r.offset, r.data.size()) + r.data.size();
    prev_start = r.offset;
  }
  return size;
}

void WriteTransactionPayload(base::Writer* w, const TransactionRecord& txn) {
  WriteTransactionPrefix(w, txn, txn.ranges.size());
  uint64_t prev_start = UINT64_MAX;
  for (const RangeImage& r : txn.ranges) {
    WriteRange(w, prev_start, r.region, r.offset, r.data);
    prev_start = r.offset;
  }
}

std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn) {
  base::Writer w(TransactionPayloadSize(txn));
  WriteTransactionPayload(&w, txn);
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeCheckpoint() {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(LogRecordKind::kCheckpoint));
  return w.TakeBytes();
}

base::Result<LogRecordKind> PeekKind(base::ByteSpan payload) {
  if (payload.empty()) {
    return base::DataLoss("empty log payload");
  }
  uint8_t kind = payload[0];
  if (kind != static_cast<uint8_t>(LogRecordKind::kTransaction) &&
      kind != static_cast<uint8_t>(LogRecordKind::kCheckpoint)) {
    return base::DataLoss("unknown log record kind");
  }
  return static_cast<LogRecordKind>(kind);
}

base::Status DecodeTransaction(base::ByteSpan payload, TransactionRecord* out) {
  return DecodeTransaction(base::Buffer::Copy(payload), out);
}

base::Status DecodeTransaction(const base::Buffer& payload, TransactionRecord* out) {
  return DecodeTransaction(payload.span(), payload, out);
}

base::Status DecodeTransaction(base::ByteSpan payload, const base::Buffer& owner,
                               TransactionRecord* out) {
  base::Reader r(payload);
  // Held from the start, so even a rejected record views only bytes it holds.
  out->ranges.clear();
  out->bytes = owner;
  out->payload = {};
  uint8_t kind = 0;
  RETURN_IF_ERROR(r.ReadU8(&kind));
  // Kind 1, the retired layout, lands here too (see LogRecordKind).
  if (kind != static_cast<uint8_t>(LogRecordKind::kTransaction)) {
    return base::DataLoss("not a transaction record");
  }
  NodeId node = 0;
  uint64_t commit_seq = 0, n_locks = 0, n_ranges = 0;
  RETURN_IF_ERROR(r.ReadVarint32(&node));
  RETURN_IF_ERROR(r.ReadVarint(&commit_seq));
  out->node = node;
  out->commit_seq = commit_seq;

  RETURN_IF_ERROR(r.ReadVarint(&n_locks));
  if (n_locks > r.remaining() / 2) {  // each lock record needs >= 2 bytes
    return base::DataLoss("lock count exceeds payload");
  }
  out->locks.clear();
  out->locks.reserve(n_locks);
  for (uint64_t i = 0; i < n_locks; ++i) {
    uint64_t lock_id = 0, seq = 0;
    RETURN_IF_ERROR(r.ReadVarint(&lock_id));
    RETURN_IF_ERROR(r.ReadVarint(&seq));
    out->locks.push_back(LockRecord{lock_id, seq});
  }

  RETURN_IF_ERROR(r.ReadVarint(&n_ranges));
  if (n_ranges > r.remaining() / 4) {  // each range needs >= 4 bytes of header
    return base::DataLoss("range count exceeds payload");
  }
  out->ranges.reserve(n_ranges);
  uint64_t prev_start = UINT64_MAX;
  // One accepted spelling per range list: an absolute address where the
  // encoder would have used a delta is a second encoding of the same record
  // (corruption or a forgery) and decodes as DATA_LOSS, which is what makes
  // Encode(Decode(x)) == x a checkable fuzz oracle.
  for (uint64_t i = 0; i < n_ranges; ++i) {
    uint8_t tag = 0;
    RETURN_IF_ERROR(r.ReadU8(&tag));
    if (tag != 0 && tag != kRangeDelta) {
      return base::DataLoss("bad range tag");
    }
    uint64_t region = 0, address = 0, len = 0;
    // Status-free reads: these varints are most of a decode's work.
    for (uint64_t* field : {&region, &address, &len}) {
      if (const char* error = r.TakeVarint(field)) {
        return base::DataLoss(error);
      }
    }
    if (region > UINT32_MAX) {
      return base::DataLoss("varint exceeds 32-bit identifier");
    }
    uint64_t offset = address;
    if (tag == kRangeDelta) {
      if (prev_start == UINT64_MAX) {
        return base::DataLoss("delta range with no predecessor");
      }
      // Deltas are only emitted for gaps under kNearRangeBound; a wider one
      // (or one that wraps uint64) would relocate the range arbitrarily.
      if (address >= kNearRangeBound || prev_start + address < prev_start) {
        return base::DataLoss("delta range out of bounds");
      }
      offset = prev_start + address;
    } else if (prev_start != UINT64_MAX && address >= prev_start &&
               address - prev_start < kNearRangeBound) {
      return base::DataLoss("absolute address where encoder emits delta");
    }
    // The range names the byte interval [offset, offset + len); an end that
    // wraps uint64 would replay to a nonsense location. Reject rather than
    // let the wrap pick one.
    if (offset + len < offset) {
      return base::DataLoss("range end overflows uint64");
    }
    base::ByteSpan data;
    RETURN_IF_ERROR(r.ReadBytes(len, &data));
    out->ranges.push_back(RangeImage{static_cast<RegionId>(region), offset, data});
    prev_start = offset;
  }
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after transaction record");
  }
  out->payload = payload;
  return base::OkStatus();
}

}  // namespace rvm
