// Coherency wire format (paper §3.2).
//
// The data broadcast at commit differs from what standard RVM writes to its
// disk log in two ways: (1) records needed only for recovery and log
// trimming are omitted — only new-value range records plus the lock records
// travel; and (2) the per-range header is compressed from standard RVM's
// 104 bytes down to a handful: ranges are sorted by address, so a range
// close to its predecessor (start-to-start delta below 256 KB) replaces its
// absolute address with the delta, and small ranges use short length
// fields. This log's transaction payload already has that shape
// (rvm/log_format.h), so a compressed update message is the writer's log
// payload behind a short header, sent as it was logged. An "uncompressed"
// mode that emulates the 104-byte RVM header is kept for the wire-format
// ablation benchmark.
//
// All fabric messages share a one-byte type tag so a node's single receiver
// thread can dispatch updates and lock-protocol traffic from one inbox.
//
// Receive matches send (§3.2): the encoder copies a record's payload, and a
// decoder given the received Buffer validates the payload in one pass and
// returns a record that is that payload where it lies: no per-range copy or
// allocation. The receiver then applies it by walking the same bytes
// (rvm::Rvm::ApplyExternalRanges).
#ifndef SRC_LBC_WIRE_FORMAT_H_
#define SRC_LBC_WIRE_FORMAT_H_

#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"
#include "src/rvm/log_format.h"
#include "src/rvm/types.h"

namespace lbc {

enum class MsgType : uint8_t {
  kUpdate = 1,       // committed log tail: lock records + new-value ranges
  kLockRequest = 2,  // acquire request, client -> lock manager
  kLockForward = 3,  // manager -> previous queue tail
  kLockToken = 4,    // token pass, previous holder -> requester
  kLockRevoke = 5,   // manager -> mappers: epoch bump, surrender idle tokens
  kLockRevokeReply = 6,  // mapper -> manager: local token/sequence state
};

base::Result<MsgType> PeekMsgType(base::ByteSpan payload);

// --- update messages -------------------------------------------------------

// Encodes a committed (or retained) transaction: its log payload copied as
// it is, into a buffer sized up front. `durable_seq` is the writer's
// durable watermark when it sends: every record of txn.node with commit_seq
// at or below it is in a log, so receivers stop carrying those (DESIGN.md,
// "Ordered and durable"). Records piggybacked on a token carry 0; the token
// has its own watermark.
//
// Layout, compressed:   u8 type | u8 1 | varint durable_seq | log payload
//                       (rvm/log_format.h: kind, node, commit_seq, locks,
//                       ranges with §3.2 headers)
// Layout, uncompressed: u8 type | u8 0 | varint node | varint commit_seq |
//                       varint durable_seq | varint n_locks | n_locks x
//                       (varint lock, varint sequence) | varint n_ranges |
//                       n_ranges x (104-byte header, bytes)
std::vector<uint8_t> EncodeUpdateRecord(const rvm::TransactionRecord& txn,
                                        bool compress_headers, uint64_t durable_seq = 0);

// The record holds `payload`; a compressed message's record is its log
// payload there, an uncompressed one's is re-encoded into a compressed
// payload it holds instead. The ByteSpan form first copies the bytes once
// into a new Buffer. *durable_seq (when non-null) receives the sender's
// watermark.
base::Status DecodeUpdate(const base::Buffer& payload, rvm::TransactionRecord* out,
                          uint64_t* durable_seq = nullptr);
base::Status DecodeUpdate(base::ByteSpan payload, rvm::TransactionRecord* out,
                          uint64_t* durable_seq = nullptr);

// Size in bytes of the compressed header for one range with a one-byte
// region id, given its predecessor's start address (UINT64_MAX for the
// first range). Exposed for tests and for the Table 3 message-byte
// accounting.
size_t CompressedRangeHeaderSize(uint64_t prev_start, uint64_t start, uint64_t len);

// The 104-byte header standard RVM writes per range (§3.2), emulated by the
// uncompressed mode.
inline constexpr size_t kStandardRvmRangeHeaderSize = 104;

// Delta addressing applies when the start-to-start gap is below this bound.
inline constexpr uint64_t kNearRangeBound = rvm::kNearRangeBound;

// --- lock protocol messages -------------------------------------------------

// Every lock-protocol message carries the sender's view of the lock's
// *revocation epoch*. The epoch starts at 0 and is bumped by the manager
// each time it reclaims the token from a dead client; messages from before
// the bump (a request or forward routed via the dead node, or the stale
// token itself) are recognized by their lower epoch and discarded, so a
// reissued token can never coexist with a resurrected old one.

struct LockRequestMsg {
  rvm::LockId lock = 0;
  rvm::NodeId requester = 0;
  // Highest update sequence number for this lock already applied at the
  // requester; the holder uses it to select retained records to piggyback
  // under the lazy propagation policy (§2.2).
  uint64_t applied_seq = 0;
  uint64_t epoch = 0;

  bool operator==(const LockRequestMsg&) const = default;
};

struct LockForwardMsg {
  rvm::LockId lock = 0;
  rvm::NodeId requester = 0;
  uint64_t applied_seq = 0;
  uint64_t epoch = 0;

  bool operator==(const LockForwardMsg&) const = default;
};

struct LockTokenMsg {
  rvm::LockId lock = 0;
  // Sequence number of the last completed acquire anywhere (§3.3): the
  // recipient's next acquire gets token_seq + 1, and may not complete until
  // updates through token_seq have been applied locally (§3.4).
  uint64_t token_seq = 0;
  uint64_t epoch = 0;
  // The passing holder and its durable watermark (see EncodeUpdateRecord):
  // the recipient stops carrying the holder's records at or below it.
  rvm::NodeId holder = 0;
  uint64_t durable_seq = 0;
  // Lazy policy: retained update records the requester has not yet applied.
  // Decoded, each holds the token message's Buffer and is its payload there.
  // Encoded, the token is sized once and each record written in place.
  std::vector<rvm::TransactionRecord> piggyback;

  bool operator==(const LockTokenMsg&) const = default;
};

// Client-failure recovery (manager-driven token reclamation): the manager
// broadcasts a revoke to every live mapper of the lock's region; each
// mapper surrenders an idle token, reports its last-known token sequence
// and applied sequence, and whether a local transaction legitimately holds
// the lock right now (in which case the token stays put).
struct LockRevokeMsg {
  rvm::LockId lock = 0;
  uint64_t epoch = 0;      // the NEW epoch being established
  rvm::NodeId manager = 0; // where to send the reply

  bool operator==(const LockRevokeMsg&) const = default;
};

struct LockRevokeReplyMsg {
  rvm::LockId lock = 0;
  uint64_t epoch = 0;
  rvm::NodeId node = 0;
  bool holding = false;    // a local transaction holds the lock: token stays
  bool had_token = false;  // surrendered an idle token with this reply
  uint64_t token_seq = 0;  // last token sequence this node observed
  uint64_t applied_seq = 0;

  bool operator==(const LockRevokeReplyMsg&) const = default;
};

std::vector<uint8_t> EncodeLockRequest(const LockRequestMsg& msg);
std::vector<uint8_t> EncodeLockForward(const LockForwardMsg& msg);
std::vector<uint8_t> EncodeLockToken(const LockTokenMsg& msg, bool compress_headers);
std::vector<uint8_t> EncodeLockRevoke(const LockRevokeMsg& msg);
std::vector<uint8_t> EncodeLockRevokeReply(const LockRevokeReplyMsg& msg);

base::Status DecodeLockRequest(base::ByteSpan payload, LockRequestMsg* out);
base::Status DecodeLockForward(base::ByteSpan payload, LockForwardMsg* out);
base::Status DecodeLockToken(const base::Buffer& payload, LockTokenMsg* out);
base::Status DecodeLockRevoke(base::ByteSpan payload, LockRevokeMsg* out);
base::Status DecodeLockRevokeReply(base::ByteSpan payload, LockRevokeReplyMsg* out);

}  // namespace lbc

#endif  // SRC_LBC_WIRE_FORMAT_H_
