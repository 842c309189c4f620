#include "src/rvm/log_io.h"

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

base::Status LogReader::ReadNext(std::vector<uint8_t>* payload, bool* at_end) {
  *at_end = false;
  uint8_t header[kFrameHeaderSize];
  ASSIGN_OR_RETURN(size_t n, file_->Read(offset_, header, sizeof(header)));
  if (n == 0) {
    *at_end = true;
    return base::OkStatus();
  }
  if (n < sizeof(header)) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  uint32_t magic, len, crc;
  std::memcpy(&magic, header, 4);
  std::memcpy(&len, header + 4, 4);
  std::memcpy(&crc, header + 8, 4);
  if (magic != kLogMagic) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  // A corrupt length field must not trigger a giant allocation: anything
  // longer than the remaining file is a torn frame by definition.
  ASSIGN_OR_RETURN(uint64_t file_size, file_->Size());
  if (offset_ + sizeof(header) + len > file_size) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  payload->resize(len);
  ASSIGN_OR_RETURN(size_t got, file_->Read(offset_ + sizeof(header), payload->data(), len));
  if (got < len) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  if (base::Crc32c(payload->data(), payload->size()) != crc) {
    tail_was_torn_ = true;
    *at_end = true;
    return base::OkStatus();
  }
  offset_ += sizeof(header) + len;
  return base::OkStatus();
}

}  // namespace rvm
