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
// short message header (lbc/wire_format.h). The commit path writes the
// payload once, in one pass from the sorted write set and the region images
// (the paper's writev I/O vectors), into a buffer sized exactly up front;
// the broadcast, a token's piggyback and a successor's carried copy then
// send or log those bytes as they are. Records without a payload (built by
// hand, or with disk logging off) are encoded range by range through the
// same range writer. DecodeTransaction parses a payload into a
// TransactionRecord whose ranges view the payload's Buffer: no per-range
// copy.
#ifndef SRC_RVM_LOG_FORMAT_H_
#define SRC_RVM_LOG_FORMAT_H_

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
inline constexpr uint8_t kRangeDelta = 0x01;
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
// Writes one range's header and bytes; returns the view of the bytes as
// written.
base::ByteSpan WriteRange(base::Writer* w, uint64_t prev_start, RegionId region,
                          uint64_t start, base::ByteSpan data);

// The payload of `txn`, range by range (its `payload` is not consulted).
size_t TransactionPayloadSize(const TransactionRecord& txn);
void WriteTransactionPayload(base::Writer* w, const TransactionRecord& txn);
std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn);

std::vector<uint8_t> EncodeCheckpoint();

// Peeks the payload kind.
base::Result<LogRecordKind> PeekKind(base::ByteSpan payload);

// Parses a kTransaction payload; the record holds `payload`, its ranges view
// it, and its `payload` is all of it. The ByteSpan form first copies the
// bytes once into a new Buffer. The three-argument form parses `payload`
// where it lies inside `owner` (a message that carries it), which the record
// holds, even on a reject.
base::Status DecodeTransaction(const base::Buffer& payload, TransactionRecord* out);
base::Status DecodeTransaction(base::ByteSpan payload, TransactionRecord* out);
base::Status DecodeTransaction(base::ByteSpan payload, const base::Buffer& owner,
                               TransactionRecord* out);

}  // namespace rvm

#endif  // SRC_RVM_LOG_FORMAT_H_
