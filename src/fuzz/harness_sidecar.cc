// Harness for the page-checksum sidecar: arbitrary sidecar bytes paired
// with arbitrary database bytes (a two-part container). The sidecar parser
// must treat any rot as "no entry" — never crash, never mis-verify, and a
// ranged entry read must agree with single-entry reads — and the
// scrub-repair path must leave a rewritten region that verifies clean.
#include <cstdint>
#include <vector>

#include "src/fuzz/container.h"
#include "src/fuzz/harness.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/types.h"
#include "src/store/mem_store.h"

namespace fuzz {

int RunPageSidecar(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  std::vector<base::ByteSpan> parts =
      SplitContainer(base::ByteSpan(data, size), /*max_parts=*/2);
  base::ByteSpan sidecar_bytes = parts[0];
  base::ByteSpan db_bytes = parts.size() > 1 ? parts[1] : base::ByteSpan();

  constexpr rvm::RegionId kRegion = 1;
  store::MemStore store;
  {
    auto db = store.Open(rvm::RegionFileName(kRegion), /*create=*/true);
    if (!db.ok() || !(*db)->Write(0, db_bytes).ok()) {
      return 0;
    }
    auto sc = store.Open(rvm::ChecksumFileName(kRegion), /*create=*/true);
    if (!sc.ok() || !(*sc)->Write(0, sidecar_bytes).ok()) {
      return 0;
    }
  }

  uint64_t n_pages = (db_bytes.size() + rvm::kDbPageSize - 1) / rvm::kDbPageSize;

  // Entry reads over plausible and absurd page indices: any answer is a
  // value or "no entry", never UB. The absurd ones aim at the offset
  // arithmetic (page * entry size + header must not wrap).
  {
    auto sidecar = rvm::ChecksumSidecar::Open(&store, kRegion, /*create=*/false);
    if (!sidecar.ok()) {
      return 0;  // unreadable header degrades to NOT_FOUND-style rejection
    }
    const uint64_t probes[] = {0,
                               1,
                               n_pages,
                               n_pages + 1,
                               UINT64_MAX / rvm::kChecksumEntrySize,
                               UINT64_MAX / rvm::kChecksumEntrySize + 1,
                               UINT64_MAX};
    for (uint64_t page : probes) {
      auto entry = (*sidecar)->ReadEntry(page);
      if (!entry.ok()) {
        return 0;  // read-side failure is a clean rejection
      }
    }
    // Round trip: one ranged read over every page (and one past the end)
    // gives each page the verdict its single-entry read gives.
    auto ranged = rvm::ChecksumSidecar::Open(&store, kRegion, /*create=*/false);
    if (!ranged.ok()) {
      return 0;
    }
    auto entries = (*ranged)->ReadEntries(0, n_pages + 1);
    if (!entries.ok()) {
      return 0;
    }
    for (uint64_t page = 0; page <= n_pages; ++page) {
      auto entry = (*sidecar)->ReadEntry(page);
      if (!entry.ok()) {
        return 0;
      }
      if (*entry != (*entries)[page]) {
        OracleFailure("page_sidecar", "ranged entry read disagrees with ReadEntry", data,
                      size);
      }
    }
    for (uint64_t page : probes) {
      auto span = (*ranged)->ReadEntries(page, 2);
      if (!span.ok()) {
        return 0;
      }
      if (page > UINT64_MAX / rvm::kChecksumEntrySize - 2 &&
          ((*span)[0].has_value() || (*span)[1].has_value())) {
        OracleFailure("page_sidecar", "ranged read past the offset limit found an entry",
                      data, size);
      }
    }
  }

  // Image verification against the arbitrary sidecar: mismatches may only
  // name pages that exist in the image.
  auto mismatches = rvm::VerifyImagePages(&store, kRegion, db_bytes.data(),
                                          db_bytes.size(), db_bytes.size());
  if (mismatches.ok()) {
    for (uint64_t page : *mismatches) {
      if (page >= n_pages) {
        OracleFailure("page_sidecar", "verify reported a page outside the image",
                      data, size);
      }
    }
  }

  // Self-healing oracle: rebuilding the sidecar from the database file must
  // always succeed over a MemStore, and the rebuilt region must verify
  // clean — whatever garbage the old sidecar held.
  if (!rvm::RewriteRegionChecksums(&store, kRegion).ok()) {
    OracleFailure("page_sidecar", "sidecar rebuild failed on a readable region",
                  data, size);
  }
  auto clean = rvm::VerifyImagePages(&store, kRegion, db_bytes.data(), db_bytes.size(),
                                     db_bytes.size());
  if (!clean.ok() || !clean->empty()) {
    OracleFailure("page_sidecar", "region does not verify clean after sidecar rebuild",
                  data, size);
  }
  return 0;
}

}  // namespace fuzz
