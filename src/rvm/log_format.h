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
// that is both logged and broadcast, and the merge utility re-encodes owned
// records through the same code. DecodeTransaction parses the full record
// back into an owned TransactionRecord.
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

// Encodes a committed transaction whose range data is borrowed (at commit,
// the live region images). When `data_offsets` is non-null it receives, per
// range, the payload offset of that range's raw bytes, so the caller can
// repoint its RangeRefs into the finished record.
std::vector<uint8_t> EncodeTransaction(const CommitContext& txn,
                                       std::vector<size_t>* data_offsets = nullptr);

// Encodes a fully-owned TransactionRecord (used by the merge utility when
// rewriting logs); byte-identical to the CommitContext form.
std::vector<uint8_t> EncodeTransaction(const TransactionRecord& txn);

std::vector<uint8_t> EncodeCheckpoint();

// Peeks the payload kind.
base::Result<LogRecordKind> PeekKind(base::ByteSpan payload);

// Parses a kTransaction payload.
base::Status DecodeTransaction(base::ByteSpan payload, TransactionRecord* out);

}  // namespace rvm

#endif  // SRC_RVM_LOG_FORMAT_H_
