// Harnesses for the coherency fabric decoders (§3.2/§3.3 messages). The
// wire format is one-spelling canonical for every message except the lock
// token, whose piggybacked records each embed their own header-compression
// flag; those get the value-level oracle (decode ∘ encode is the identity
// on values) instead of byte identity. Records re-encode both from the log
// payload a compressed message carries and range by range. The update and token harnesses
// decode from a Buffer, as a receiver does, and the records view it.
#include <cstring>
#include <utility>
#include <vector>

#include "src/fuzz/harness.h"
#include "src/lbc/wire_format.h"

namespace fuzz {
namespace {

// Accepted bytes must re-encode to themselves, and the re-encoding must
// decode back to the same value. Decode failure after acceptance, byte
// drift, and value drift are all oracle failures.
template <typename Msg, typename Decode, typename Encode>
void CheckCanonical(const char* harness, const uint8_t* data, size_t size,
                    const Msg& decoded, Decode decode, Encode encode) {
  std::vector<uint8_t> re = encode(decoded);
  if (re.size() != size || (size > 0 && std::memcmp(re.data(), data, size) != 0)) {
    OracleFailure(harness, "Encode(Decode(x)) != x for accepted input", data, size);
  }
  Msg again;
  if (!decode(base::ByteSpan(re.data(), re.size()), &again).ok() || !(again == decoded)) {
    OracleFailure(harness, "Decode(Encode(msg)) != msg", data, size);
  }
}

}  // namespace

int RunWireUpdate(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  base::ByteSpan span(data, size);
  rvm::TransactionRecord txn;
  uint64_t durable_seq = 0;
  if (!lbc::DecodeUpdate(base::Buffer::Copy(span), &txn, &durable_seq).ok()) {
    return 0;
  }
  // An accepted update always passed the type peek.
  auto type = lbc::PeekMsgType(span);
  if (!type.ok() || *type != lbc::MsgType::kUpdate) {
    OracleFailure("wire_update", "decoder accepted what PeekMsgType rejects", data, size);
  }
  if (txn.TotalBytes() > size || txn.locks.size() > size || txn.ranges.size() > size) {
    OracleFailure("wire_update", "decoded update exceeds input size", data, size);
  }
  // Byte 1 is the header-compression flag; the decoder only accepts 0 or 1,
  // and re-encoding under the same mode, with the same durable watermark,
  // must reproduce the input exactly. A compressed message's record keeps
  // its log payload, which the encoder copies; so it is also re-encoded
  // without it, range by range, which must give the same bytes.
  bool compressed = size > 1 && data[1] == 1;
  if (compressed != !txn.payload.empty()) {
    OracleFailure("wire_update", "payload kept by an uncompressed update or lost by a "
                  "compressed one", data, size);
  }
  rvm::TransactionRecord ranged = txn;
  ranged.payload = {};
  for (const rvm::TransactionRecord* rec : {&txn, &ranged}) {
    std::vector<uint8_t> re = lbc::EncodeUpdateRecord(*rec, compressed, durable_seq);
    if (re.size() != size || std::memcmp(re.data(), data, size) != 0) {
      OracleFailure("wire_update", "Encode(Decode(x)) != x for accepted update", data, size);
    }
  }
  std::vector<uint8_t> re = lbc::EncodeUpdateRecord(ranged, compressed, durable_seq);
  rvm::TransactionRecord again;
  uint64_t durable_again = 0;
  if (!lbc::DecodeUpdate(base::Buffer(std::move(re)), &again, &durable_again).ok() ||
      !(again == txn) || durable_again != durable_seq) {
    OracleFailure("wire_update", "Decode(Encode(txn)) != txn", data, size);
  }
  return 0;
}

int RunWireLockRequest(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  lbc::LockRequestMsg msg;
  if (!lbc::DecodeLockRequest(base::ByteSpan(data, size), &msg).ok()) {
    return 0;
  }
  CheckCanonical("wire_lock_request", data, size, msg, lbc::DecodeLockRequest,
                 lbc::EncodeLockRequest);
  return 0;
}

int RunWireLockForward(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  lbc::LockForwardMsg msg;
  if (!lbc::DecodeLockForward(base::ByteSpan(data, size), &msg).ok()) {
    return 0;
  }
  CheckCanonical("wire_lock_forward", data, size, msg, lbc::DecodeLockForward,
                 lbc::EncodeLockForward);
  return 0;
}

int RunWireLockToken(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  lbc::LockTokenMsg msg;
  if (!lbc::DecodeLockToken(base::Buffer::Copy(base::ByteSpan(data, size)), &msg).ok()) {
    return 0;
  }
  uint64_t piggyback_bytes = 0;
  for (const auto& rec : msg.piggyback) {
    piggyback_bytes += rec.TotalBytes();
  }
  if (piggyback_bytes > size || msg.piggyback.size() > size) {
    OracleFailure("wire_lock_token", "decoded token exceeds input size", data, size);
  }
  // Value-level oracle under both compression modes: the piggybacked records
  // mix per-record flags, so byte identity only holds when there are none.
  lbc::LockTokenMsg ranged = msg;
  for (auto& rec : ranged.piggyback) {
    rec.payload = {};
  }
  for (bool compress : {false, true}) {
    std::vector<uint8_t> re = lbc::EncodeLockToken(msg, compress);
    lbc::LockTokenMsg again;
    if (!lbc::DecodeLockToken(base::Buffer(re), &again).ok() || !(again == msg)) {
      OracleFailure("wire_lock_token", "Decode(Encode(msg)) != msg", data, size);
    }
    if (compress && lbc::EncodeLockToken(ranged, compress) != re) {
      OracleFailure("wire_lock_token", "a piggybacked payload differs from its ranges",
                    data, size);
    }
    if (msg.piggyback.empty() &&
        (re.size() != size || std::memcmp(re.data(), data, size) != 0)) {
      OracleFailure("wire_lock_token",
                    "Encode(Decode(x)) != x for token without piggyback", data, size);
    }
  }
  return 0;
}

int RunWireLockRevoke(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  lbc::LockRevokeMsg msg;
  if (!lbc::DecodeLockRevoke(base::ByteSpan(data, size), &msg).ok()) {
    return 0;
  }
  CheckCanonical("wire_lock_revoke", data, size, msg, lbc::DecodeLockRevoke,
                 lbc::EncodeLockRevoke);
  return 0;
}

int RunWireLockRevokeReply(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  lbc::LockRevokeReplyMsg msg;
  if (!lbc::DecodeLockRevokeReply(base::ByteSpan(data, size), &msg).ok()) {
    return 0;
  }
  CheckCanonical("wire_lock_revoke_reply", data, size, msg, lbc::DecodeLockRevokeReply,
                 lbc::EncodeLockRevokeReply);
  return 0;
}

}  // namespace fuzz
