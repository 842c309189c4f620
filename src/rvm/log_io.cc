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

base::Result<size_t> LogReader::Buffer(size_t n) {
  const uint64_t start = offset_ - buf_offset_;
  const size_t have = start < buf_.size() ? buf_.size() - static_cast<size_t>(start) : 0;
  if (have >= n) {
    return have;
  }
  // Keep the unread tail and read ahead behind it.
  if (have > 0) {
    std::memmove(buf_.data(), buf_.data() + start, have);
  }
  buf_.resize(std::max(n, have + kReadAheadBytes));
  ASSIGN_OR_RETURN(size_t got,
                   file_->Read(offset_ + have, buf_.data() + have, buf_.size() - have));
  buf_.resize(have + got);
  buf_offset_ = offset_;
  return buf_.size();
}

base::Status LogReader::ReadNext(std::vector<uint8_t>* payload, bool* at_end) {
  base::ByteSpan view;
  RETURN_IF_ERROR(ReadNext(&view, at_end));
  if (!*at_end) {
    payload->assign(view.begin(), view.end());
  }
  return base::OkStatus();
}

base::Status LogReader::ReadNext(base::ByteSpan* payload, bool* at_end) {
  *at_end = false;
  ASSIGN_OR_RETURN(size_t have, Buffer(kFrameHeaderSize));
  if (have == 0) {
    *at_end = true;
    return base::OkStatus();
  }
  if (have < kFrameHeaderSize) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  const uint8_t* header = buf_.data() + (offset_ - buf_offset_);
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
  if (have < frame) {
    // A corrupt length field must not trigger a giant allocation: anything
    // longer than the remaining file is a torn frame by definition.
    ASSIGN_OR_RETURN(uint64_t file_size, file_->Size());
    if (offset_ + frame > file_size) {
      tail_was_torn_ = true;
      *at_end = true;
      return base::OkStatus();
    }
    ASSIGN_OR_RETURN(have, Buffer(static_cast<size_t>(frame)));
    if (have < frame) {
      tail_was_torn_ = true;
      *at_end = true;
      return base::OkStatus();
    }
  }
  const uint8_t* body = buf_.data() + (offset_ - buf_offset_) + kFrameHeaderSize;
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
