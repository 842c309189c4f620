// Framed, checksummed append-only log over a DurableFile.
//
// Frame layout:  u32 magic | u32 payload_len | u32 crc32c(payload) | payload
//
// Commits gather the modified bytes straight from the region images into
// one encoded record (paper §3.2) that is both logged and broadcast, so the
// writer frames whole payloads. The reader stops cleanly at a torn tail: any
// frame whose magic, length, or checksum does not verify is treated as the
// end of the log, exactly like RVM recovery.
#ifndef SRC_RVM_LOG_IO_H_
#define SRC_RVM_LOG_IO_H_

#include <memory>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

inline constexpr uint32_t kLogMagic = 0x4C4D5652;  // "RVML"
inline constexpr size_t kFrameHeaderSize = 12;

class LogWriter {
 public:
  explicit LogWriter(std::unique_ptr<store::DurableFile> file, uint64_t start_offset = 0)
      : file_(std::move(file)), offset_(start_offset) {}

  // Appends one record. Durable only after Sync() unless sync_now.
  base::Status Append(base::ByteSpan payload, bool sync_now) {
    return AppendBatch({payload}, sync_now);
  }

  // Group commit: appends one frame per payload, all frames in ONE
  // contiguous Write, followed by at most ONE Sync. Each payload keeps its
  // own header + CRC, so a crash mid-batch tears the batch at a frame
  // boundary (or inside the last partially-written frame, which the CRC
  // catches): recovery sees a clean per-record prefix of the batch — the
  // batch is atomic at the log-frame level, not the transaction level.
  base::Status AppendBatch(const std::vector<base::ByteSpan>& payloads, bool sync_now);

  base::Status Sync() { return file_->Sync(); }

  uint64_t bytes_written() const { return offset_; }
  uint64_t records_written() const { return records_; }

  // Resets the log to empty (used by truncation after a checkpoint).
  base::Status Reset();

 private:
  std::unique_ptr<store::DurableFile> file_;
  uint64_t offset_ = 0;
  uint64_t records_ = 0;
  std::vector<uint8_t> scratch_;
};

class LogReader {
 public:
  explicit LogReader(store::DurableFile* file) : file_(file) {}

  // Reads the next record payload as a view into block(). Sets *at_end=true
  // (and returns OK) at the end of the valid log — including at a torn or
  // corrupt tail, which is reported through `tail_was_torn()` for tests that
  // care.
  base::Status ReadNext(base::ByteSpan* payload, bool* at_end);

  // The refcounted block of file bytes the last payload lies in. A record
  // decoded from the payload in place (DecodeTransaction with this block as
  // its owner) holds the block and outlives the reader and the file.
  //
  // Each refill reads into a fresh block, so the reader never moves bytes
  // out from under a payload it handed out, and records read from one
  // block share it: the block is freed when the last of them drops. Blocks
  // hold only file bytes the scan reached (a refill reads at most to the
  // end of the file), and two blocks share only the frame that straddled
  // the refill, so records kept from one scan hold at most the log bytes
  // scanned plus one frame per refill, for as long as any of them lives.
  // That includes the bytes of records the caller drops: a record kept
  // from a block pins its whole block. A caller that keeps a filtered
  // subset for long (dead-client recovery's record-cache entries) copies
  // each survivor's payload out instead.
  const base::Buffer& block() const { return block_; }

  bool tail_was_torn() const { return tail_was_torn_; }
  uint64_t offset() const { return offset_; }

 private:
  // Bytes one refill reads ahead: a scan of small records costs one Read
  // per 64 KiB instead of two Reads and a Size per record.
  static constexpr size_t kReadAheadBytes = 64 * 1024;

  // Buffers at least `n` bytes from offset_ when the file holds them;
  // returns how many bytes from offset_ are buffered.
  base::Result<size_t> Refill(size_t n);

  store::DurableFile* file_;
  uint64_t offset_ = 0;  // file offset of the next frame
  bool tail_was_torn_ = false;
  base::Buffer block_;  // file bytes [block_offset_, block_offset_ + size)
  uint64_t block_offset_ = 0;
};

}  // namespace rvm

#endif  // SRC_RVM_LOG_IO_H_
