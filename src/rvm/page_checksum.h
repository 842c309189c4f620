// Page-granular integrity layer over the permanent database files.
//
// The redo log is CRC-framed (log_io.h), but the database files it replays
// into had no checksums: a flipped bit in region_N.db would be served to
// every client that maps the region and silently become the new truth at
// the next checkpoint. This module adds a CRC32C *sidecar* per region file
// (region_N.dbsum) holding one checksum per kDbPageSize page:
//
//   * Writers — page replay (ReplayRegionFile, recovery.h: every full
//     replay, trim, incremental drain and the standby checkpoint) and the
//     scrubber's repairs — record each page's checksum once and read the
//     pages they wrote back from the store, which doubles as write
//     verification. Replay writes the entry first, as an intent.
//   * Readers — Rvm::MapRegion (the server image fetch) and the scrubber —
//     verify pages against the sidecar and fail with DATA_LOSS on mismatch.
//
// Two deliberate asymmetries keep the scheme crash-safe without WAL-ing the
// sidecar itself:
//   * A checksum is defined over the page zero-padded to kDbPageSize, so
//     growing the file (which zero-fills) never invalidates the entry of a
//     formerly short tail page. Region files never shrink.
//   * A page with no (or unreadable) sidecar entry verifies vacuously:
//     files written before this layer existed, pages never replayed and a
//     torn entry write all read as "unverified", never as corrupt. Every
//     replay rewrites the entries of the pages it touches; its intent entry
//     lets the next replay recognize a page torn mid-write (recovery.h).
//
// Each 8-byte sidecar entry is self-guarded: [page CRC][CRC of (page index,
// page CRC)], so rot *in the sidecar* is distinguishable from rot in the
// data — an invalid guard means "no entry", and the scrubber rebuilds it.
#ifndef SRC_RVM_PAGE_CHECKSUM_H_
#define SRC_RVM_PAGE_CHECKSUM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

inline constexpr uint64_t kDbPageSize = 8192;

// Sidecar layout: 16-byte header, then 8 bytes per page.
inline constexpr uint32_t kChecksumMagic = 0x4D53'5652;  // "RVSM"
inline constexpr uint32_t kChecksumVersion = 1;
inline constexpr uint64_t kChecksumHeaderSize = 16;
inline constexpr uint64_t kChecksumEntrySize = 8;

std::string ChecksumFileName(RegionId region);  // "region_<id>.dbsum"

// CRC32C of the page's bytes zero-padded to kDbPageSize. len <= kDbPageSize.
uint32_t PageCrc(const uint8_t* data, size_t len);

// Process-wide integrity instruments (integrity.*).
struct IntegrityMetrics {
  obs::Counter* pages_verified;       // page reads checked against a valid entry
  obs::Counter* pages_unverified;     // page reads with no usable entry
  obs::Counter* verify_failures;      // checksum mismatches observed
  obs::Counter* pages_checksummed;    // sidecar entries (re)written
  obs::Counter* image_fetch_retries;  // client re-fetches after DATA_LOSS
};
IntegrityMetrics* GlobalIntegrityMetrics();

// Open sidecar of one region. Entries are self-validating, so a rotten or
// truncated sidecar degrades to "fewer entries", never to a wrong verdict.
// The header is read lazily, together with the first entries asked for.
class ChecksumSidecar {
 public:
  // create=false fails with NOT_FOUND when the region has no sidecar yet.
  // Reads nothing: the first entry read or write reads the header.
  static base::Result<std::unique_ptr<ChecksumSidecar>> Open(
      store::DurableStore* store, RegionId region, bool create);

  // The stored checksum of `page`, or nullopt if absent/unreadable.
  base::Result<std::optional<uint32_t>> ReadEntry(uint64_t page);
  // The stored checksums of pages [first_page, first_page + count), each
  // nullopt if absent/unreadable (bad header, short file, failed guard, or
  // an index whose offset would wrap). One Read: it starts at the header
  // when the header is still unread and the span begins within
  // kHeaderReadSpanPages of it, else at the first entry (after a separate
  // header read if needed).
  base::Result<std::vector<std::optional<uint32_t>>> ReadEntries(uint64_t first_page,
                                                                 uint64_t count);
  base::Status WriteEntry(uint64_t page, uint32_t crc);
  // Writes the entries of pages [first_page, first_page + crcs.size()) with
  // one Write. When the header is not known valid, page 0's entry carries it
  // in that same Write; any other first page reads the header first and
  // writes it separately if it is invalid.
  base::Status WriteEntries(uint64_t first_page, const std::vector<uint32_t>& crcs);
  base::Status Sync();

 private:
  enum class Header { kUnread, kValid, kInvalid };

  // Widest gap of entries a header-plus-entries read spans: 32 KiB of
  // entries, i.e. a 32 MiB region file.
  static constexpr uint64_t kHeaderReadSpanPages = 4096;

  explicit ChecksumSidecar(std::unique_ptr<store::DurableFile> file)
      : file_(std::move(file)) {}

  base::Status ReadHeader();
  base::Status EnsureHeader();

  std::unique_ptr<store::DurableFile> file_;
  Header header_ = Header::kUnread;
};

// Recomputes the entire sidecar from the database file.
base::Status RewriteRegionChecksums(store::DurableStore* store, RegionId region);

// Verifies an image of the region's database file against the sidecar.
// `data` holds the first `len` file bytes; `file_size` is the file's total
// size. Pages wholly inside [0, len) are checked (the tail page too when
// len covers end-of-file, since past-EOF bytes are zero by definition).
// When len ends mid-page with more file behind it, that boundary page is
// completed from the database file and checked as well — its prefix is
// served to the caller, so it gets no free pass. Returns the indices of
// mismatching pages; a missing sidecar or missing entries verify vacuously.
base::Result<std::vector<uint64_t>> VerifyImagePages(store::DurableStore* store,
                                                     RegionId region,
                                                     const uint8_t* data, uint64_t len,
                                                     uint64_t file_size);

}  // namespace rvm

#endif  // SRC_RVM_PAGE_CHECKSUM_H_
