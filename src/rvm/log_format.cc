#include "src/rvm/log_format.h"

namespace rvm {

// One pass sizes the record; the second writes it into a buffer that never
// regrows.
std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn,
                                       std::vector<size_t>* data_offsets) {
  size_t size = 1 + base::VarintSize(txn.node) + base::VarintSize(txn.commit_seq) +
                base::VarintSize(txn.locks.size()) + base::VarintSize(txn.ranges.size());
  for (const auto& lock : txn.locks) {
    size += base::VarintSize(lock.lock_id) + base::VarintSize(lock.sequence);
  }
  for (const RangeImage& r : txn.ranges) {
    size += base::VarintSize(r.region) + base::VarintSize(r.offset) +
            base::VarintSize(r.data.size()) + r.data.size();
  }

  base::Writer w(size);
  w.WriteU8(static_cast<uint8_t>(LogRecordKind::kTransaction));
  w.WriteVarint(txn.node);
  w.WriteVarint(txn.commit_seq);
  w.WriteVarint(txn.locks.size());
  for (const auto& lock : txn.locks) {
    w.WriteVarint(lock.lock_id);
    w.WriteVarint(lock.sequence);
  }
  w.WriteVarint(txn.ranges.size());
  if (data_offsets != nullptr) {
    data_offsets->resize(txn.ranges.size());
  }
  for (size_t i = 0; i < txn.ranges.size(); ++i) {
    const RangeImage& r = txn.ranges[i];
    w.WriteVarint(r.region);
    w.WriteVarint(r.offset);
    w.WriteVarint(r.data.size());
    if (data_offsets != nullptr) {
      (*data_offsets)[i] = w.size();
    }
    w.WriteBytes(r.data);
  }
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
  base::Reader r(payload.span());
  // Held from the start, so even a rejected record views only bytes it holds.
  out->ranges.clear();
  out->bytes = payload;
  uint8_t kind = 0;
  RETURN_IF_ERROR(r.ReadU8(&kind));
  if (kind != static_cast<uint8_t>(LogRecordKind::kTransaction)) {
    return base::InvalidArgument("not a transaction record");
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
  if (n_ranges > r.remaining() / 3) {  // each range needs >= 3 bytes
    return base::DataLoss("range count exceeds payload");
  }
  out->ranges.reserve(n_ranges);
  for (uint64_t i = 0; i < n_ranges; ++i) {
    RegionId region = 0;
    uint64_t offset = 0;
    base::ByteSpan data;
    RETURN_IF_ERROR(r.ReadVarint32(&region));
    RETURN_IF_ERROR(r.ReadVarint(&offset));
    RETURN_IF_ERROR(r.ReadLengthPrefixed(&data));
    // The range names the byte interval [offset, offset + len); an end that
    // wraps uint64 would replay to a nonsense location. Reject rather than
    // let the wrap pick one.
    if (offset + data.size() < offset) {
      return base::DataLoss("range end overflows uint64");
    }
    out->ranges.push_back(RangeImage{region, offset, data});
  }
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after transaction record");
  }
  return base::OkStatus();
}

}  // namespace rvm
