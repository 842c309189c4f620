// On-disk redo-log record encoding.
//
// Each framed record carries one payload. Payload kinds:
//   kTransaction — one committed transaction: node, commit sequence, lock
//                  records, and the new-value range images (write-ahead redo).
//   kCheckpoint  — marks that everything before this point has been applied
//                  to the database files (written by log truncation).
//
// One encoder writes every kTransaction payload, in one pass into a buffer
// sized exactly up front: the commit path gathers the range data straight
// out of the region images (the paper's writev I/O vectors) into the record
// that is both logged and broadcast, and the merge utility re-encodes
// decoded records through the same code. DecodeTransaction parses a payload
// into a TransactionRecord whose ranges view the payload's Buffer: no
// per-range copy.
#ifndef SRC_RVM_LOG_FORMAT_H_
#define SRC_RVM_LOG_FORMAT_H_

#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"
#include "src/rvm/types.h"

namespace rvm {

enum class LogRecordKind : uint8_t {
  kTransaction = 1,
  kCheckpoint = 2,
};

// Serialized layout of a transaction payload:
//   u8 kind | varint node | varint commit_seq
//   varint n_locks  | n_locks  x (varint lock_id, varint sequence)
//   varint n_ranges | n_ranges x (varint region, varint offset, varint len,
//                                 len raw bytes)

// Encodes a committed transaction. At commit its range data is borrowed from
// the live region images; when `data_offsets` is non-null it receives, per
// range, the payload offset of that range's raw bytes, so the caller can
// point the ranges into the finished record.
std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn,
                                       std::vector<size_t>* data_offsets = nullptr);

std::vector<uint8_t> EncodeCheckpoint();

// Peeks the payload kind.
base::Result<LogRecordKind> PeekKind(base::ByteSpan payload);

// Parses a kTransaction payload; the record holds `payload` and its ranges
// view it. The ByteSpan form first copies the bytes once into a new Buffer.
base::Status DecodeTransaction(const base::Buffer& payload, TransactionRecord* out);
base::Status DecodeTransaction(base::ByteSpan payload, TransactionRecord* out);

}  // namespace rvm

#endif  // SRC_RVM_LOG_FORMAT_H_
