#include "src/rvm/page_checksum.h"

#include <algorithm>
#include <cstring>

#include "src/base/crc32.h"

namespace rvm {
namespace {

// Guard over (page index, page CRC): a sidecar entry is only believed if
// this inner checksum verifies, so rot in the sidecar reads as "no entry".
uint32_t EntryGuard(uint64_t page, uint32_t crc) {
  uint8_t buf[12];
  std::memcpy(buf, &page, 8);
  std::memcpy(buf + 8, &crc, 4);
  return base::Crc32c(buf, sizeof(buf));
}

// Highest page whose entry offset fits in a uint64_t.
constexpr uint64_t kMaxPage = (UINT64_MAX - kChecksumHeaderSize) / kChecksumEntrySize - 1;

uint64_t EntryOffset(uint64_t page) {
  return kChecksumHeaderSize + page * kChecksumEntrySize;
}

// Writes this layout's kChecksumHeaderSize-byte header into `out`.
void WriteHeaderBytes(uint8_t* out) {
  const uint32_t magic = kChecksumMagic;
  const uint32_t version = kChecksumVersion;
  const uint32_t page_size = static_cast<uint32_t>(kDbPageSize);
  std::memset(out, 0, kChecksumHeaderSize);
  std::memcpy(out, &magic, 4);
  std::memcpy(out + 4, &version, 4);
  std::memcpy(out + 8, &page_size, 4);
}

// `n` bytes read from offset 0 hold a complete header for this layout.
bool HeaderValid(const uint8_t* header, size_t n) {
  if (n < kChecksumHeaderSize) {
    return false;
  }
  uint32_t magic, version, page_size;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 4);
  std::memcpy(&page_size, header + 8, 4);
  return magic == kChecksumMagic && version == kChecksumVersion && page_size == kDbPageSize;
}

}  // namespace

std::string ChecksumFileName(RegionId region) {
  return "region_" + std::to_string(region) + ".dbsum";
}

uint32_t PageCrc(const uint8_t* data, size_t len) {
  uint32_t crc = base::Crc32c(data, len);
  if (len < kDbPageSize) {
    static const uint8_t kZeros[256] = {};
    size_t pad = kDbPageSize - len;
    while (pad > 0) {
      size_t n = std::min(pad, sizeof(kZeros));
      crc = base::Crc32c(kZeros, n, crc);
      pad -= n;
    }
  }
  return crc;
}

IntegrityMetrics* GlobalIntegrityMetrics() {
  static IntegrityMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new IntegrityMetrics();
    m->pages_verified = reg->GetCounter("integrity.pages_verified");
    m->pages_unverified = reg->GetCounter("integrity.pages_unverified");
    m->verify_failures = reg->GetCounter("integrity.verify_failures");
    m->pages_checksummed = reg->GetCounter("integrity.pages_checksummed");
    m->image_fetch_retries = reg->GetCounter("integrity.image_fetch_retries");
    return m;
  }();
  return metrics;
}

base::Result<std::unique_ptr<ChecksumSidecar>> ChecksumSidecar::Open(
    store::DurableStore* store, RegionId region, bool create) {
  if (!create) {
    // Avoid Open(create=false)'s NOT_FOUND doubling as a replica failure in
    // some stores; an explicit existence probe keeps the common "no sidecar
    // yet" answer cheap and unambiguous.
    ASSIGN_OR_RETURN(bool exists, store->Exists(ChecksumFileName(region)));
    if (!exists) {
      return base::NotFound("no checksum sidecar for region " + std::to_string(region));
    }
  }
  ASSIGN_OR_RETURN(auto file, store->Open(ChecksumFileName(region), create));
  return std::unique_ptr<ChecksumSidecar>(new ChecksumSidecar(std::move(file)));
}

base::Status ChecksumSidecar::ReadHeader() {
  // A file too short for a header (a sidecar just created) needs no Read.
  ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  size_t n = 0;
  uint8_t header[kChecksumHeaderSize];
  if (size >= kChecksumHeaderSize) {
    ASSIGN_OR_RETURN(n, file_->Read(0, header, sizeof(header)));
  }
  header_ = HeaderValid(header, n) ? Header::kValid : Header::kInvalid;
  return base::OkStatus();
}

base::Status ChecksumSidecar::EnsureHeader() {
  if (header_ == Header::kUnread) {
    RETURN_IF_ERROR(ReadHeader());
  }
  if (header_ == Header::kValid) {
    return base::OkStatus();
  }
  uint8_t header[kChecksumHeaderSize];
  WriteHeaderBytes(header);
  RETURN_IF_ERROR(file_->Write(0, base::ByteSpan(header, sizeof(header))));
  header_ = Header::kValid;
  return base::OkStatus();
}

base::Result<std::optional<uint32_t>> ChecksumSidecar::ReadEntry(uint64_t page) {
  ASSIGN_OR_RETURN(auto entries, ReadEntries(page, 1));
  return entries[0];
}

base::Result<std::vector<std::optional<uint32_t>>> ChecksumSidecar::ReadEntries(
    uint64_t first_page, uint64_t count) {
  std::vector<std::optional<uint32_t>> out(count);
  // Pages past kMaxPage have no offset (EntryOffset would wrap and alias a
  // low entry); no real sidecar holds them, so they verify vacuously.
  if (count == 0 || first_page > kMaxPage) {
    return out;
  }
  const uint64_t last_page = std::min(kMaxPage, first_page + (count - 1));
  if (header_ == Header::kUnread && first_page > kHeaderReadSpanPages) {
    RETURN_IF_ERROR(ReadHeader());  // too far from the entries to share a Read
  }
  if (header_ == Header::kUnread) {
    ASSIGN_OR_RETURN(uint64_t size, file_->Size());
    if (size < kChecksumHeaderSize) {
      header_ = Header::kInvalid;  // no header yet: no entries to read
    }
  }
  if (header_ == Header::kInvalid) {
    return out;
  }
  const bool with_header = header_ == Header::kUnread;
  const uint64_t begin = with_header ? 0 : EntryOffset(first_page);
  std::vector<uint8_t> buf(static_cast<size_t>(EntryOffset(last_page + 1) - begin));
  ASSIGN_OR_RETURN(size_t n, file_->Read(begin, buf.data(), buf.size()));
  if (with_header) {
    header_ = HeaderValid(buf.data(), n) ? Header::kValid : Header::kInvalid;
    if (header_ == Header::kInvalid) {
      return out;  // unreadable header: no believable entries
    }
  }
  for (uint64_t page = first_page; page <= last_page; ++page) {
    const uint64_t at = EntryOffset(page) - begin;
    if (at + kChecksumEntrySize > n) {
      break;  // short file: this entry and every later one are absent
    }
    uint32_t crc, guard;
    std::memcpy(&crc, buf.data() + at, 4);
    std::memcpy(&guard, buf.data() + at + 4, 4);
    if (guard == EntryGuard(page, crc)) {
      out[page - first_page] = crc;
    }
  }
  return out;
}

base::Status ChecksumSidecar::WriteEntry(uint64_t page, uint32_t crc) {
  return WriteEntries(page, {crc});
}

base::Status ChecksumSidecar::WriteEntries(uint64_t first_page,
                                           const std::vector<uint32_t>& crcs) {
  if (crcs.empty()) {
    return base::OkStatus();
  }
  if (first_page > kMaxPage || crcs.size() - 1 > kMaxPage - first_page) {
    return base::InvalidArgument("checksum entry offset overflows: page " +
                                 std::to_string(first_page));
  }
  // With page 0's entry and no header known valid, the header goes in the
  // same Write as the entries it sits in front of: unread, it costs no Read.
  // Rewriting a valid header writes identical bytes, and a torn prefix of
  // them leaves it as it was.
  const bool with_header = first_page == 0 && header_ != Header::kValid;
  if (!with_header) {
    RETURN_IF_ERROR(EnsureHeader());
  }
  const size_t header_bytes = with_header ? kChecksumHeaderSize : 0;
  std::vector<uint8_t> buf(header_bytes + crcs.size() * kChecksumEntrySize);
  if (with_header) {
    WriteHeaderBytes(buf.data());
  }
  uint8_t* entries = buf.data() + header_bytes;
  for (size_t i = 0; i < crcs.size(); ++i) {
    uint32_t guard = EntryGuard(first_page + i, crcs[i]);
    std::memcpy(entries + i * kChecksumEntrySize, &crcs[i], 4);
    std::memcpy(entries + i * kChecksumEntrySize + 4, &guard, 4);
  }
  RETURN_IF_ERROR(
      file_->Write(EntryOffset(first_page) - header_bytes, base::ByteSpan(buf.data(), buf.size())));
  header_ = Header::kValid;
  GlobalIntegrityMetrics()->pages_checksummed->Add(crcs.size());
  return base::OkStatus();
}

base::Status ChecksumSidecar::Sync() { return file_->Sync(); }

base::Status RewriteRegionChecksums(store::DurableStore* store, RegionId region) {
  ASSIGN_OR_RETURN(auto db, store->Open(RegionFileName(region), /*create=*/false));
  ASSIGN_OR_RETURN(uint64_t file_size, db->Size());
  ASSIGN_OR_RETURN(auto sidecar, ChecksumSidecar::Open(store, region, /*create=*/true));
  std::vector<uint8_t> buf(kDbPageSize);
  for (uint64_t offset = 0; offset < file_size; offset += kDbPageSize) {
    size_t want = static_cast<size_t>(std::min<uint64_t>(kDbPageSize, file_size - offset));
    RETURN_IF_ERROR(db->ReadExact(offset, buf.data(), want));
    RETURN_IF_ERROR(sidecar->WriteEntry(offset / kDbPageSize, PageCrc(buf.data(), want)));
  }
  return sidecar->Sync();
}

base::Result<std::vector<uint64_t>> VerifyImagePages(store::DurableStore* store,
                                                     RegionId region,
                                                     const uint8_t* data, uint64_t len,
                                                     uint64_t file_size) {
  std::vector<uint64_t> bad;
  IntegrityMetrics* m = GlobalIntegrityMetrics();
  uint64_t file_pages = (file_size + kDbPageSize - 1) / kDbPageSize;
  // Pages fully checkable from this image alone: wholly contained in
  // [0, len), or the file's tail page when the image reaches end-of-file.
  uint64_t check_pages = std::min(file_pages, len / kDbPageSize);
  bool boundary = false;
  if (len >= file_size) {
    check_pages = file_pages;
  } else if (len % kDbPageSize != 0) {
    // The image ends mid-page with more file behind it. Its prefix of that
    // page is still served to the caller, so the page must be completed
    // from the database file and verified like any other — a short mapping
    // length must not open an unverified window.
    boundary = true;
  }
  if (check_pages == 0 && !boundary) {
    return bad;
  }
  auto sidecar_or = ChecksumSidecar::Open(store, region, /*create=*/false);
  if (!sidecar_or.ok()) {
    if (sidecar_or.status().code() == base::StatusCode::kNotFound) {
      // Pre-checksum file: nothing to check.
      m->pages_unverified->Add(check_pages + (boundary ? 1 : 0));
      return bad;
    }
    return sidecar_or.status();
  }
  // The header and every entry checked below, in one read.
  ASSIGN_OR_RETURN(auto entries,
                   (*sidecar_or)->ReadEntries(0, check_pages + (boundary ? 1 : 0)));
  for (uint64_t page = 0; page < check_pages; ++page) {
    const std::optional<uint32_t>& entry = entries[page];
    if (!entry.has_value()) {
      m->pages_unverified->Increment();
      continue;
    }
    uint64_t offset = page * kDbPageSize;
    size_t have = static_cast<size_t>(std::min<uint64_t>(kDbPageSize, len - offset));
    if (PageCrc(data + offset, have) == *entry) {
      m->pages_verified->Increment();
    } else {
      m->verify_failures->Increment();
      bad.push_back(page);
    }
  }
  if (boundary) {
    const uint64_t page = check_pages;  // == len / kDbPageSize
    const std::optional<uint32_t>& entry = entries[page];
    if (!entry.has_value()) {
      m->pages_unverified->Increment();
    } else {
      const uint64_t offset = page * kDbPageSize;
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(kDbPageSize, file_size - offset));
      const size_t prefix = static_cast<size_t>(len - offset);
      std::vector<uint8_t> whole(want, 0);
      std::memcpy(whole.data(), data + offset, prefix);
      ASSIGN_OR_RETURN(auto db, store->Open(RegionFileName(region), /*create=*/false));
      RETURN_IF_ERROR(db->ReadExact(len, whole.data() + prefix, want - prefix));
      if (PageCrc(whole.data(), want) == *entry) {
        m->pages_verified->Increment();
      } else {
        m->verify_failures->Increment();
        bad.push_back(page);
      }
    }
  }
  return bad;
}

}  // namespace rvm
