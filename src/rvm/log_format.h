// On-disk redo-log record encoding.
//
// Each framed record carries one payload. Payload kinds:
//   kTransaction — one committed transaction: node, commit sequence, lock
//                  records, and the new-value range images (write-ahead redo).
//   kCheckpoint  — marks that everything before this point has been applied
//                  to the database files (written by log truncation).
//
// A transaction payload is also the coherency message (§3.4: the committed
// log tail is what peers need): its range headers use the §3.2 compressed
// spelling, and an update message carries the payload verbatim behind a
// short message header (lbc/wire_format.h). A TransactionRecord IS its
// payload (types.h): the commit path writes it once, in one pass from the
// sorted write set and the region images (the paper's writev I/O vectors),
// into a buffer sized exactly up front, and the broadcast, a token's
// piggyback and a successor's carried copy send or log those bytes as they
// are. DecodeTransaction validates a payload in one pass, allocating
// nothing for its ranges; the record then reads them in place through
// RangeList (types.h), the one range walker, which the receiver's apply,
// the log index and replay all use.
#ifndef SRC_RVM_LOG_FORMAT_H_
#define SRC_RVM_LOG_FORMAT_H_

#include <functional>
#include <span>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"
#include "src/rvm/types.h"

namespace rvm {

enum class LogRecordKind : uint8_t {
  // 1 was a transaction payload with absolute range addresses. That layout
  // is no longer written, and a payload in it decodes as DATA_LOSS rather
  // than being misread under the compressed spelling.
  kCheckpoint = 2,
  kTransaction = 3,
};

// Serialized layout of a transaction payload:
//   u8 kind | varint node | varint commit_seq
//   varint n_locks  | n_locks  x (varint lock_id, varint sequence)
//   varint n_ranges | n_ranges x (range header, len raw bytes)
// Range header (§3.2, compressed):
//   u8 tag | varint region | varint address | varint len
// The tag is kRangeDelta exactly when the range starts at or after the
// previous range's start (in any region) and less than kNearRangeBound past
// it; the address is then that distance. Otherwise the tag is 0 and the
// address is the absolute start. The decoder holds a payload to exactly this
// spelling, so each record has one encoding.
// (kRangeDelta is in types.h, beside the walker that reads it.)
inline constexpr uint64_t kNearRangeBound = 256 * 1024;

// Bytes the header of a range at `start`, `len` bytes long in `region`,
// takes after a range that started at `prev_start` (UINT64_MAX: the first).
size_t RangeHeaderSize(uint64_t prev_start, RegionId region, uint64_t start, uint64_t len);

// The one range writer. A payload is its prefix followed by its ranges in
// order, written into a Writer sized from TransactionPrefixSize plus, per
// range, RangeHeaderSize and the data size (so it never regrows).
// `txn` supplies the node, commit_seq and locks; `n_ranges` the range count.
size_t TransactionPrefixSize(const TransactionRecord& txn, size_t n_ranges);
void WriteTransactionPrefix(base::Writer* w, const TransactionRecord& txn, size_t n_ranges);
// Writes one range's header and bytes.
void WriteRange(base::Writer* w, uint64_t prev_start, RegionId region, uint64_t start,
                base::ByteSpan data);
// Makes `rec` the payload that fills all of `bytes`, written above with
// `n_ranges` ranges from `rec`'s node, commit_seq and locks.
void AdoptWrittenPayload(TransactionRecord* rec, base::Buffer bytes, size_t n_ranges);

// A record with these fields and ranges, its payload written into a Buffer
// it holds (hand-built records: tests, tools, corpus seeds).
TransactionRecord MakeTransaction(NodeId node, uint64_t commit_seq,
                                  std::vector<LockRecord> locks,
                                  std::span<const RangeImage> ranges);

// The bytes `txn` is logged and sent as: a copy of its payload. Every
// record that is logged or sent has one (the decoders, the ordering and
// MakeTransaction write it); a record without one encodes as no bytes,
// which no decoder accepts.
std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn);

std::vector<uint8_t> EncodeCheckpoint();

// Peeks the payload kind.
base::Result<LogRecordKind> PeekKind(base::ByteSpan payload);

// Validates a kTransaction payload in one pass, range list included, and
// makes `out` that payload: its ranges are read in place, with no per-range
// allocation and no copy. The three-argument form takes `payload` where it
// lies inside `owner` (a message that carries it, or a log reader's block),
// which the record holds, even on a reject; a rejected record has no
// payload and no ranges.
base::Status DecodeTransaction(const base::Buffer& payload, TransactionRecord* out);
base::Status DecodeTransaction(base::ByteSpan payload, const base::Buffer& owner,
                               TransactionRecord* out);
// The same, also handing `visit` each range as the validator reads it: an
// account of the payload that does not go through RangeList, for fuzz
// oracles that hold the walker to it.
base::Status DecodeTransaction(base::ByteSpan payload, const base::Buffer& owner,
                               TransactionRecord* out,
                               const std::function<void(const RangeImage&)>& visit);

}  // namespace rvm

#endif  // SRC_RVM_LOG_FORMAT_H_
