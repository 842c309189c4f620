#include "src/rvm/log_io.h"

#include <algorithm>
#include <cstring>

#include "src/base/crc32.h"

namespace rvm {

base::Status LogWriter::AppendBatch(const std::vector<base::ByteSpan>& payloads,
                                    bool sync_now) {
  if (payloads.empty()) {
    return base::OkStatus();
  }
  size_t total = 0;
  for (const auto& p : payloads) {
    total += kFrameHeaderSize + p.size();
  }
  scratch_.clear();
  scratch_.reserve(total);
  auto push_u32 = [this](uint32_t v) {
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    scratch_.insert(scratch_.end(), p, p + sizeof(v));
  };
  for (const auto& payload : payloads) {
    push_u32(kLogMagic);
    push_u32(static_cast<uint32_t>(payload.size()));
    push_u32(base::Crc32c(payload.data(), payload.size()));
    scratch_.insert(scratch_.end(), payload.begin(), payload.end());
  }
  RETURN_IF_ERROR(file_->Write(offset_, base::ByteSpan(scratch_.data(), scratch_.size())));
  offset_ += scratch_.size();
  records_ += payloads.size();
  if (sync_now) {
    RETURN_IF_ERROR(file_->Sync());
  }
  return base::OkStatus();
}

base::Status LogWriter::Reset() {
  RETURN_IF_ERROR(file_->Truncate(0));
  RETURN_IF_ERROR(file_->Sync());
  offset_ = 0;
  records_ = 0;
  return base::OkStatus();
}

base::Result<size_t> LogReader::Refill(size_t n) {
  const uint64_t start = offset_ - block_offset_;
  const size_t have = start < block_.size() ? block_.size() - static_cast<size_t>(start) : 0;
  if (have >= n) {
    return have;
  }
  // A refill reads no further than the end of the file, so a frame longer
  // than the rest of the file is torn by definition. Once its header is
  // buffered the file size says so: a corrupt length field costs no read
  // and no allocation. A shorter fragment is still read, so the caller sees
  // a torn header rather than a clean end.
  ASSIGN_OR_RETURN(uint64_t file_size, file_->Size());
  const uint64_t left = file_size > offset_ ? file_size - offset_ : 0;
  if (left <= have || (n > left && have >= kFrameHeaderSize)) {
    return have;
  }
  // A fresh block: the unread tail, then the read-ahead behind it.
  std::vector<uint8_t> bytes(
      static_cast<size_t>(std::min<uint64_t>(std::max(n, have + kReadAheadBytes), left)));
  if (have > 0) {
    std::memcpy(bytes.data(), block_.data() + start, have);
  }
  ASSIGN_OR_RETURN(size_t got,
                   file_->Read(offset_ + have, bytes.data() + have, bytes.size() - have));
  bytes.resize(have + got);
  block_ = base::Buffer(std::move(bytes));
  block_offset_ = offset_;
  return block_.size();
}

base::Status LogReader::ReadNext(base::ByteSpan* payload, bool* at_end) {
  *at_end = false;
  ASSIGN_OR_RETURN(size_t have, Refill(kFrameHeaderSize));
  if (have == 0) {
    *at_end = true;
    return base::OkStatus();
  }
  if (have < kFrameHeaderSize) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  const uint8_t* header = block_.data() + (offset_ - block_offset_);
  uint32_t magic, len, crc;
  std::memcpy(&magic, header, 4);
  std::memcpy(&len, header + 4, 4);
  std::memcpy(&crc, header + 8, 4);
  if (magic != kLogMagic) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  const uint64_t frame = kFrameHeaderSize + uint64_t{len};
  ASSIGN_OR_RETURN(have, Refill(static_cast<size_t>(frame)));
  if (have < frame) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  const uint8_t* body = block_.data() + (offset_ - block_offset_) + kFrameHeaderSize;
  if (base::Crc32c(body, len) != crc) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  *payload = base::ByteSpan(body, len);
  offset_ += frame;
  return base::OkStatus();
}

}  // namespace rvm
