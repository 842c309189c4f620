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

// A varint at `at`, before `end`, held to base::Reader's rules; a one-byte
// one (most region ids, deltas and lengths) without building a Reader.
const char* TakeVarint(const uint8_t*& at, const uint8_t* end, uint64_t* out) {
  if (at != end && *at < 0x80) [[likely]] {
    *out = *at++;
    return nullptr;
  }
  if (end - at >= 2 && at[1] < 0x80 && at[1] != 0) {  // two bytes, minimal
    *out = (at[0] & uint64_t{0x7F}) | uint64_t{at[1]} << 7;
    at += 2;
    return nullptr;
  }
  base::Reader r(base::ByteSpan(at, static_cast<size_t>(end - at)));
  if (const char* error = r.TakeVarint(out)) {
    return error;
  }
  at += r.position();
  return nullptr;
}

// Whether [at, end) is exactly `n_ranges` ranges as the range writer spells
// them: nullptr, or why not. Allocates nothing; once it passes, RangeList
// walks the same bytes without a check. `visit` sees each range as read
// here.
template <typename Visit>
const char* CheckRanges(const uint8_t* at, const uint8_t* end, uint64_t n_ranges,
                        Visit&& visit) {
  uint64_t prev_start = UINT64_MAX;
  // One accepted spelling per range list: an absolute address where the
  // encoder would have used a delta is a second encoding of the same record
  // (corruption or a forgery) and decodes as DATA_LOSS, which is what makes
  // Encode(Decode(x)) == x a checkable fuzz oracle.
  for (uint64_t i = 0; i < n_ranges; ++i) {
    if (at == end) {
      return "range header truncated";
    }
    const uint8_t tag = *at++;
    if (tag != 0 && tag != kRangeDelta) {
      return "bad range tag";
    }
    uint64_t region = 0, address = 0, len = 0;
    for (uint64_t* field : {&region, &address, &len}) {
      if (const char* error = TakeVarint(at, end, field)) {
        return error;
      }
    }
    if (region > UINT32_MAX) {
      return "varint exceeds 32-bit identifier";
    }
    uint64_t offset = address;
    if (tag == kRangeDelta) {
      if (prev_start == UINT64_MAX) {
        return "delta range with no predecessor";
      }
      // Deltas are only emitted for gaps under kNearRangeBound; a wider one
      // (or one that wraps uint64) would relocate the range arbitrarily.
      if (address >= kNearRangeBound || prev_start + address < prev_start) {
        return "delta range out of bounds";
      }
      offset = prev_start + address;
    } else if (prev_start != UINT64_MAX && address >= prev_start &&
               address - prev_start < kNearRangeBound) {
      return "absolute address where encoder emits delta";
    }
    // The range names the byte interval [offset, offset + len); an end that
    // wraps uint64 would replay to a nonsense location. Reject rather than
    // let the wrap pick one.
    if (offset + len < offset) {
      return "range end overflows uint64";
    }
    if (static_cast<uint64_t>(end - at) < len) {
      return "byte range truncated";
    }
    visit(RangeImage{static_cast<RegionId>(region), offset, base::ByteSpan(at, len)});
    at += len;
    prev_start = offset;
  }
  return at == end ? nullptr : "trailing bytes after transaction record";
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

void WriteRange(base::Writer* w, uint64_t prev_start, RegionId region, uint64_t start,
                base::ByteSpan data) {
  uint8_t tag = 0;
  const uint64_t address = AddressField(prev_start, start, &tag);
  w->WriteU8(tag);
  w->WriteVarint(region);
  w->WriteVarint(address);
  w->WriteVarint(data.size());
  w->WriteBytes(data);
}

void AdoptWrittenPayload(TransactionRecord* rec, base::Buffer bytes, size_t n_ranges) {
  rec->bytes = std::move(bytes);
  rec->payload = rec->bytes.span();
  rec->ranges = RangeList(rec->bytes.data() + TransactionPrefixSize(*rec, n_ranges),
                          rec->bytes.end(), n_ranges);
}

TransactionRecord MakeTransaction(NodeId node, uint64_t commit_seq,
                                  std::vector<LockRecord> locks,
                                  std::span<const RangeImage> ranges) {
  TransactionRecord rec;
  rec.node = node;
  rec.commit_seq = commit_seq;
  rec.locks = std::move(locks);
  size_t size = TransactionPrefixSize(rec, ranges.size());
  uint64_t prev_start = UINT64_MAX;
  for (const RangeImage& r : ranges) {
    size += RangeHeaderSize(prev_start, r.region, r.offset, r.data.size()) + r.data.size();
    prev_start = r.offset;
  }
  base::Writer w(size);
  WriteTransactionPrefix(&w, rec, ranges.size());
  prev_start = UINT64_MAX;
  for (const RangeImage& r : ranges) {
    WriteRange(&w, prev_start, r.region, r.offset, r.data);
    prev_start = r.offset;
  }
  AdoptWrittenPayload(&rec, base::Buffer(w.TakeBytes()), ranges.size());
  return rec;
}

std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn) {
  return std::vector<uint8_t>(txn.payload.begin(), txn.payload.end());
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

base::Status DecodeTransaction(const base::Buffer& payload, TransactionRecord* out) {
  return DecodeTransaction(payload.span(), payload, out);
}

namespace {

template <typename Visit>
base::Status DecodeTransactionIn(base::ByteSpan payload, const base::Buffer& owner,
                                 TransactionRecord* out, Visit&& visit) {
  base::Reader r(payload);
  // Held from the start, so even a rejected record views only bytes it holds.
  out->bytes = owner;
  out->payload = {};
  out->ranges = {};
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
  const uint8_t* const first = payload.data() + r.position();
  const uint8_t* const end = payload.data() + payload.size();
  if (const char* error = CheckRanges(first, end, n_ranges, visit)) {
    return base::DataLoss(error);
  }
  out->payload = payload;
  out->ranges = RangeList(first, end, n_ranges);
  return base::OkStatus();
}

}  // namespace

base::Status DecodeTransaction(base::ByteSpan payload, const base::Buffer& owner,
                               TransactionRecord* out) {
  return DecodeTransactionIn(payload, owner, out, [](const RangeImage&) {});
}

base::Status DecodeTransaction(base::ByteSpan payload, const base::Buffer& owner,
                               TransactionRecord* out,
                               const std::function<void(const RangeImage&)>& visit) {
  return DecodeTransactionIn(payload, owner, out, visit);
}

}  // namespace rvm
