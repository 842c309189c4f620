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

uint64_t EntryOffset(uint64_t page) {
  return kChecksumHeaderSize + page * kChecksumEntrySize;
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
  auto sidecar = std::unique_ptr<ChecksumSidecar>(new ChecksumSidecar(std::move(file)));
  ASSIGN_OR_RETURN(uint64_t size, sidecar->file_->Size());
  if (size >= kChecksumHeaderSize) {
    uint8_t header[kChecksumHeaderSize];
    RETURN_IF_ERROR(sidecar->file_->ReadExact(0, header, sizeof(header)));
    uint32_t magic, version, page_size;
    std::memcpy(&magic, header, 4);
    std::memcpy(&version, header + 4, 4);
    std::memcpy(&page_size, header + 8, 4);
    sidecar->header_written_ = magic == kChecksumMagic && version == kChecksumVersion &&
                               page_size == kDbPageSize;
  }
  return sidecar;
}

base::Status ChecksumSidecar::EnsureHeader() {
  if (header_written_) {
    return base::OkStatus();
  }
  uint8_t header[kChecksumHeaderSize] = {};
  uint32_t magic = kChecksumMagic;
  uint32_t version = kChecksumVersion;
  uint32_t page_size = static_cast<uint32_t>(kDbPageSize);
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &page_size, 4);
  RETURN_IF_ERROR(file_->Write(0, base::ByteSpan(header, sizeof(header))));
  header_written_ = true;
  return base::OkStatus();
}

base::Result<std::optional<uint32_t>> ChecksumSidecar::ReadEntry(uint64_t page) {
  if (!header_written_) {
    return std::optional<uint32_t>();  // unreadable header: no believable entries
  }
  if (page > (UINT64_MAX - kChecksumHeaderSize) / kChecksumEntrySize) {
    // EntryOffset would wrap and alias a low entry; no real sidecar can hold
    // such a page, so it verifies vacuously instead.
    return std::optional<uint32_t>();
  }
  uint8_t entry[kChecksumEntrySize];
  ASSIGN_OR_RETURN(size_t n, file_->Read(EntryOffset(page), entry, sizeof(entry)));
  if (n < sizeof(entry)) {
    return std::optional<uint32_t>();
  }
  uint32_t crc, guard;
  std::memcpy(&crc, entry, 4);
  std::memcpy(&guard, entry + 4, 4);
  if (guard != EntryGuard(page, crc)) {
    return std::optional<uint32_t>();
  }
  return std::optional<uint32_t>(crc);
}

base::Status ChecksumSidecar::WriteEntry(uint64_t page, uint32_t crc) {
  RETURN_IF_ERROR(EnsureHeader());
  uint8_t entry[kChecksumEntrySize];
  uint32_t guard = EntryGuard(page, crc);
  std::memcpy(entry, &crc, 4);
  std::memcpy(entry + 4, &guard, 4);
  RETURN_IF_ERROR(file_->Write(EntryOffset(page), base::ByteSpan(entry, sizeof(entry))));
  GlobalIntegrityMetrics()->pages_checksummed->Increment();
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
  std::unique_ptr<ChecksumSidecar> sidecar = std::move(*sidecar_or);
  for (uint64_t page = 0; page < check_pages; ++page) {
    ASSIGN_OR_RETURN(auto entry, sidecar->ReadEntry(page));
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
    ASSIGN_OR_RETURN(auto entry, sidecar->ReadEntry(page));
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
