#include "src/lbc/wire_format.h"

namespace lbc {
namespace {

// The emulated standard-RVM range header: a tag, the real fields, then
// reserved zero padding up to kStandardRvmRangeHeaderSize.
constexpr uint8_t kStandardHeaderTag = 0x80;
constexpr size_t kStandardHeaderFields = 1 + 4 + 8 + 8;

// The compressed message: its header, then the record's log payload as it
// is, or written range by range when the record has none.
std::vector<uint8_t> EncodeCompressedUpdate(const rvm::TransactionRecord& txn,
                                            uint64_t durable_seq) {
  const size_t payload_size =
      txn.payload.empty() ? rvm::TransactionPayloadSize(txn) : txn.payload.size();
  base::Writer w(2 + base::VarintSize(durable_seq) + payload_size);
  w.WriteU8(static_cast<uint8_t>(MsgType::kUpdate));
  w.WriteU8(1);
  w.WriteVarint(durable_seq);
  if (txn.payload.empty()) {
    rvm::WriteTransactionPayload(&w, txn);
  } else {
    w.WriteBytes(txn.payload);
  }
  return w.TakeBytes();
}

// The standard-RVM emulation, so the ablation benchmark measures the
// bytes-on-wire penalty the paper describes.
std::vector<uint8_t> EncodeStandardUpdate(const rvm::TransactionRecord& txn,
                                          uint64_t durable_seq) {
  size_t size = 2 + base::VarintSize(txn.node) + base::VarintSize(txn.commit_seq) +
                base::VarintSize(durable_seq) + base::VarintSize(txn.locks.size()) +
                base::VarintSize(txn.ranges.size());
  for (const auto& lock : txn.locks) {
    size += base::VarintSize(lock.lock_id) + base::VarintSize(lock.sequence);
  }
  for (const auto& r : txn.ranges) {
    size += kStandardRvmRangeHeaderSize + r.data.size();
  }
  base::Writer w(size);
  w.WriteU8(static_cast<uint8_t>(MsgType::kUpdate));
  w.WriteU8(0);
  w.WriteVarint(txn.node);
  w.WriteVarint(txn.commit_seq);
  w.WriteVarint(durable_seq);
  w.WriteVarint(txn.locks.size());
  for (const auto& lock : txn.locks) {
    w.WriteVarint(lock.lock_id);
    w.WriteVarint(lock.sequence);
  }
  w.WriteVarint(txn.ranges.size());
  static const uint8_t kPad[kStandardRvmRangeHeaderSize - kStandardHeaderFields] = {0};
  for (const auto& r : txn.ranges) {
    w.WriteU8(kStandardHeaderTag);
    w.WriteU32(r.region);
    w.WriteU64(r.offset);
    w.WriteU64(r.data.size());
    w.WriteBytes(kPad, sizeof(kPad));
    w.WriteBytes(r.data);
  }
  return w.TakeBytes();
}

}  // namespace

size_t CompressedRangeHeaderSize(uint64_t prev_start, uint64_t start, uint64_t len) {
  // A small (one-byte) region id.
  return rvm::RangeHeaderSize(prev_start, /*region=*/0, start, len);
}

base::Result<MsgType> PeekMsgType(base::ByteSpan payload) {
  if (payload.empty()) {
    return base::DataLoss("empty message");
  }
  uint8_t t = payload[0];
  if (t < static_cast<uint8_t>(MsgType::kUpdate) ||
      t > static_cast<uint8_t>(MsgType::kLockRevokeReply)) {
    return base::DataLoss("unknown message type");
  }
  return static_cast<MsgType>(t);
}

std::vector<uint8_t> EncodeUpdateRecord(const rvm::TransactionRecord& txn,
                                        bool compress_headers, uint64_t durable_seq) {
  return compress_headers ? EncodeCompressedUpdate(txn, durable_seq)
                          : EncodeStandardUpdate(txn, durable_seq);
}

namespace {

// Parses the body of a standard-RVM-header update, after its flag byte.
base::Status DecodeStandardUpdate(base::Reader& r, rvm::TransactionRecord* out,
                                  uint64_t* durable_seq) {
  rvm::NodeId node = 0;
  uint64_t commit_seq = 0, n_locks = 0, n_ranges = 0;
  uint64_t watermark = 0;
  RETURN_IF_ERROR(r.ReadVarint32(&node));
  RETURN_IF_ERROR(r.ReadVarint(&commit_seq));
  RETURN_IF_ERROR(r.ReadVarint(&watermark));
  out->node = node;
  out->commit_seq = commit_seq;
  if (durable_seq != nullptr) {
    *durable_seq = watermark;
  }
  RETURN_IF_ERROR(r.ReadVarint(&n_locks));
  if (n_locks > r.remaining() / 2) {  // each lock record needs >= 2 bytes
    return base::DataLoss("lock count exceeds message");
  }
  out->locks.clear();
  for (uint64_t i = 0; i < n_locks; ++i) {
    uint64_t lock_id = 0, seq = 0;
    RETURN_IF_ERROR(r.ReadVarint(&lock_id));
    RETURN_IF_ERROR(r.ReadVarint(&seq));
    out->locks.push_back(rvm::LockRecord{lock_id, seq});
  }
  RETURN_IF_ERROR(r.ReadVarint(&n_ranges));
  if (n_ranges > r.remaining() / kStandardRvmRangeHeaderSize) {
    return base::DataLoss("range count exceeds message");
  }
  out->ranges.reserve(n_ranges);
  // Held to exactly what the encoder emits: nonzero reserved padding is a
  // second encoding of the same record (a forgery could ride in it).
  for (uint64_t i = 0; i < n_ranges; ++i) {
    uint8_t tag = 0;
    RETURN_IF_ERROR(r.ReadU8(&tag));
    if (tag != kStandardHeaderTag) {
      return base::DataLoss("bad uncompressed range tag");
    }
    uint32_t region = 0;
    uint64_t start = 0, len = 0;
    RETURN_IF_ERROR(r.ReadU32(&region));
    RETURN_IF_ERROR(r.ReadU64(&start));
    RETURN_IF_ERROR(r.ReadU64(&len));
    base::ByteSpan pad;
    RETURN_IF_ERROR(r.ReadBytes(kStandardRvmRangeHeaderSize - kStandardHeaderFields, &pad));
    for (uint8_t b : pad) {
      if (b != 0) {
        return base::DataLoss("nonzero reserved padding in range header");
      }
    }
    if (start + len < start) {
      return base::DataLoss("range end overflows uint64");
    }
    rvm::RangeImage img;
    img.region = region;
    img.offset = start;
    RETURN_IF_ERROR(r.ReadBytes(len, &img.data));
    out->ranges.push_back(img);
  }
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after update");
  }
  return base::OkStatus();
}

// Parses one update message, `bytes`, which lies in `owner`: the record
// holds `owner` (even on a reject, so no range outlives its bytes) and its
// ranges view it.
base::Status DecodeUpdateIn(base::ByteSpan bytes, const base::Buffer& owner,
                            rvm::TransactionRecord* out, uint64_t* durable_seq) {
  out->ranges.clear();
  out->bytes = owner;
  out->payload = {};
  base::Reader r(bytes);
  uint8_t type = 0;
  RETURN_IF_ERROR(r.ReadU8(&type));
  if (type != static_cast<uint8_t>(MsgType::kUpdate)) {
    return base::InvalidArgument("not an update message");
  }
  uint8_t compressed = 0;
  RETURN_IF_ERROR(r.ReadU8(&compressed));
  if (compressed > 1) {
    return base::DataLoss("bad header-compression flag");
  }
  if (compressed == 0) {
    return DecodeStandardUpdate(r, out, durable_seq);
  }
  uint64_t watermark = 0;
  RETURN_IF_ERROR(r.ReadVarint(&watermark));
  if (durable_seq != nullptr) {
    *durable_seq = watermark;
  }
  return rvm::DecodeTransaction(bytes.subspan(r.position()), owner, out);
}

}  // namespace

base::Status DecodeUpdate(const base::Buffer& payload, rvm::TransactionRecord* out,
                          uint64_t* durable_seq) {
  return DecodeUpdateIn(payload.span(), payload, out, durable_seq);
}

base::Status DecodeUpdate(base::ByteSpan payload, rvm::TransactionRecord* out,
                          uint64_t* durable_seq) {
  return DecodeUpdate(base::Buffer::Copy(payload), out, durable_seq);
}

std::vector<uint8_t> EncodeLockRequest(const LockRequestMsg& msg) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(MsgType::kLockRequest));
  w.WriteVarint(msg.lock);
  w.WriteVarint(msg.requester);
  w.WriteVarint(msg.applied_seq);
  w.WriteVarint(msg.epoch);
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeLockForward(const LockForwardMsg& msg) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(MsgType::kLockForward));
  w.WriteVarint(msg.lock);
  w.WriteVarint(msg.requester);
  w.WriteVarint(msg.applied_seq);
  w.WriteVarint(msg.epoch);
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeLockToken(const LockTokenMsg& msg, bool compress_headers) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(MsgType::kLockToken));
  w.WriteVarint(msg.lock);
  w.WriteVarint(msg.token_seq);
  w.WriteVarint(msg.epoch);
  w.WriteVarint(msg.holder);
  w.WriteVarint(msg.durable_seq);
  w.WriteVarint(msg.piggyback.size());
  for (const auto& rec : msg.piggyback) {
    std::vector<uint8_t> encoded = EncodeUpdateRecord(rec, compress_headers);
    w.WriteLengthPrefixed(base::ByteSpan(encoded.data(), encoded.size()));
  }
  return w.TakeBytes();
}

namespace {

base::Status DecodeRequestLike(base::ByteSpan payload, MsgType expect, rvm::LockId* lock,
                               rvm::NodeId* requester, uint64_t* applied_seq,
                               uint64_t* epoch) {
  base::Reader r(payload);
  uint8_t type = 0;
  RETURN_IF_ERROR(r.ReadU8(&type));
  if (type != static_cast<uint8_t>(expect)) {
    return base::InvalidArgument("unexpected message type");
  }
  uint64_t lock64 = 0;
  rvm::NodeId node = 0;
  RETURN_IF_ERROR(r.ReadVarint(&lock64));
  RETURN_IF_ERROR(r.ReadVarint32(&node));
  RETURN_IF_ERROR(r.ReadVarint(applied_seq));
  RETURN_IF_ERROR(r.ReadVarint(epoch));
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after lock message");
  }
  *lock = lock64;
  *requester = node;
  return base::OkStatus();
}

}  // namespace

base::Status DecodeLockRequest(base::ByteSpan payload, LockRequestMsg* out) {
  return DecodeRequestLike(payload, MsgType::kLockRequest, &out->lock, &out->requester,
                           &out->applied_seq, &out->epoch);
}

base::Status DecodeLockForward(base::ByteSpan payload, LockForwardMsg* out) {
  return DecodeRequestLike(payload, MsgType::kLockForward, &out->lock, &out->requester,
                           &out->applied_seq, &out->epoch);
}

std::vector<uint8_t> EncodeLockRevoke(const LockRevokeMsg& msg) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(MsgType::kLockRevoke));
  w.WriteVarint(msg.lock);
  w.WriteVarint(msg.epoch);
  w.WriteVarint(msg.manager);
  return w.TakeBytes();
}

base::Status DecodeLockRevoke(base::ByteSpan payload, LockRevokeMsg* out) {
  base::Reader r(payload);
  uint8_t type = 0;
  RETURN_IF_ERROR(r.ReadU8(&type));
  if (type != static_cast<uint8_t>(MsgType::kLockRevoke)) {
    return base::InvalidArgument("not a lock revoke");
  }
  uint64_t lock = 0;
  rvm::NodeId manager = 0;
  RETURN_IF_ERROR(r.ReadVarint(&lock));
  RETURN_IF_ERROR(r.ReadVarint(&out->epoch));
  RETURN_IF_ERROR(r.ReadVarint32(&manager));
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after lock revoke");
  }
  out->lock = lock;
  out->manager = manager;
  return base::OkStatus();
}

std::vector<uint8_t> EncodeLockRevokeReply(const LockRevokeReplyMsg& msg) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(MsgType::kLockRevokeReply));
  w.WriteVarint(msg.lock);
  w.WriteVarint(msg.epoch);
  w.WriteVarint(msg.node);
  w.WriteU8(static_cast<uint8_t>((msg.holding ? 1 : 0) | (msg.had_token ? 2 : 0)));
  w.WriteVarint(msg.token_seq);
  w.WriteVarint(msg.applied_seq);
  return w.TakeBytes();
}

base::Status DecodeLockRevokeReply(base::ByteSpan payload, LockRevokeReplyMsg* out) {
  base::Reader r(payload);
  uint8_t type = 0;
  RETURN_IF_ERROR(r.ReadU8(&type));
  if (type != static_cast<uint8_t>(MsgType::kLockRevokeReply)) {
    return base::InvalidArgument("not a lock revoke reply");
  }
  uint64_t lock = 0;
  rvm::NodeId node = 0;
  uint8_t flags = 0;
  RETURN_IF_ERROR(r.ReadVarint(&lock));
  RETURN_IF_ERROR(r.ReadVarint(&out->epoch));
  RETURN_IF_ERROR(r.ReadVarint32(&node));
  RETURN_IF_ERROR(r.ReadU8(&flags));
  if ((flags & ~uint8_t{3}) != 0) {
    return base::DataLoss("bad revoke-reply flags");
  }
  RETURN_IF_ERROR(r.ReadVarint(&out->token_seq));
  RETURN_IF_ERROR(r.ReadVarint(&out->applied_seq));
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after revoke reply");
  }
  out->lock = lock;
  out->node = node;
  out->holding = (flags & 1) != 0;
  out->had_token = (flags & 2) != 0;
  return base::OkStatus();
}

base::Status DecodeLockToken(const base::Buffer& payload, LockTokenMsg* out) {
  base::Reader r(payload.span());
  uint8_t type = 0;
  RETURN_IF_ERROR(r.ReadU8(&type));
  if (type != static_cast<uint8_t>(MsgType::kLockToken)) {
    return base::InvalidArgument("not a lock token");
  }
  uint64_t lock = 0, n_piggyback = 0;
  rvm::NodeId holder = 0;
  RETURN_IF_ERROR(r.ReadVarint(&lock));
  RETURN_IF_ERROR(r.ReadVarint(&out->token_seq));
  RETURN_IF_ERROR(r.ReadVarint(&out->epoch));
  RETURN_IF_ERROR(r.ReadVarint32(&holder));
  RETURN_IF_ERROR(r.ReadVarint(&out->durable_seq));
  out->lock = lock;
  out->holder = holder;
  RETURN_IF_ERROR(r.ReadVarint(&n_piggyback));
  if (n_piggyback > r.remaining()) {
    return base::DataLoss("piggyback count exceeds message");
  }
  out->piggyback.clear();
  out->piggyback.reserve(n_piggyback);
  for (uint64_t i = 0; i < n_piggyback; ++i) {
    base::ByteSpan encoded;
    RETURN_IF_ERROR(r.ReadLengthPrefixed(&encoded));
    rvm::TransactionRecord rec;
    RETURN_IF_ERROR(DecodeUpdateIn(encoded, payload, &rec, /*durable_seq=*/nullptr));
    out->piggyback.push_back(std::move(rec));
  }
  if (!r.empty()) {
    return base::DataLoss("trailing bytes after lock token");
  }
  return base::OkStatus();
}

}  // namespace lbc
