#include "src/rvm/recovery.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_index.h"
#include "src/rvm/log_io.h"
#include "src/rvm/page_checksum.h"

namespace rvm {
namespace {

// Longest run of pages ReplayWriteSet::Commit moves as one Write and one
// read-back Read; bounds its staging buffer at 1 MiB.
constexpr uint64_t kMaxRunPages = 128;

// Process-wide recovery instruments (rvm.*): recovery is a whole-cluster
// event, so these are totals rather than per-node counters.
struct RecoveryMetrics {
  obs::Counter* replays;              // ReplayLogsIntoDatabase invocations
  obs::Counter* torn_tails_detected;  // log scans that hit a torn tail
};

RecoveryMetrics* GlobalRecoveryMetrics() {
  static RecoveryMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new RecoveryMetrics();
    m->replays = reg->GetCounter("rvm.recovery_replays");
    m->torn_tails_detected = reg->GetCounter("rvm.torn_tails_detected");
    return m;
  }();
  return metrics;
}

// The part of `range` that falls on `page`: its page-relative offset, its
// length (0 when the range misses the page) and where its bytes start.
struct PageSlice {
  uint64_t offset = 0;
  uint64_t len = 0;
  const uint8_t* src = nullptr;
};

PageSlice ClipRange(const RangeImage& range, uint64_t page) {
  const uint64_t page_start = page * kDbPageSize;
  const uint64_t lo = std::max(range.offset, page_start);
  const uint64_t hi = std::min(range.offset + range.data.size(), page_start + kDbPageSize);
  if (lo >= hi) {
    return {};
  }
  return {lo - page_start, hi - lo, range.data.data() + (lo - range.offset)};
}

// The bytes of one page that redo covers, one bit per byte.
using PageCoverage = std::array<uint64_t, kDbPageSize / 64>;

// Marks the bytes of `slice` a word at a time, so a page costs the same
// however many small ranges cover it: no sort.
void MarkCovered(const PageSlice& slice, PageCoverage* covered) {
  for (uint64_t at = slice.offset, end = slice.offset + slice.len; at < end;) {
    const uint64_t bit = at % 64;
    const uint64_t n = std::min<uint64_t>(64 - bit, end - at);
    (*covered)[at / 64] |= (n == 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1)) << bit;
    at += n;
  }
}

bool FullyCovered(const PageCoverage& covered) {
  return std::all_of(covered.begin(), covered.end(),
                     [](uint64_t word) { return word == ~uint64_t{0}; });
}

// Copies the bytes of `preimage` that `covered` leaves unmarked into
// `image`: the redo already written there stays on top. Bits that are all
// clear or all set move 64, then 8, bytes at a time, so a sparsely written
// page costs about one page copy.
void FillUncovered(const PageCoverage& covered, const uint8_t* preimage, uint8_t* image) {
  for (size_t word = 0; word < covered.size(); ++word) {
    const uint64_t bits = covered[word];
    const size_t base = word * 64;
    if (bits == 0) {
      std::memcpy(image + base, preimage + base, 64);
      continue;
    }
    if (bits == ~uint64_t{0}) {
      continue;
    }
    for (size_t at = base; at < base + 64; at += 8) {
      const uint64_t chunk = bits >> (at - base) & 0xFF;  // bytes [at, at + 8)
      if (chunk == 0) {
        std::memcpy(image + at, preimage + at, 8);
      } else if (chunk != 0xFF) {
        for (size_t i = 0; i < 8; ++i) {
          if ((chunk >> i & 1) == 0) {
            image[at + i] = preimage[at + i];
          }
        }
      }
    }
  }
}

// One batch of redo against pages of ONE region file: ReplayRegionFile.
//
// Load plans the batch before any I/O, in one pass over the ranges: each
// range is copied onto zeroed page images in call order and marks the
// bytes it wrote, one bit per byte. A page whose bits are all set is
// *blind*: it does not depend on its old contents, so its pre-image is not
// read and it is not gated. Load then reads the pre-images of the other
// pages, one Read per run of consecutive pages that holds any (a blind
// page inside such a run stays in that Read), and fills in the bytes the
// ranges did not write.
// Commit performs every store mutation and moves each run of consecutive
// pages as one unit, so a contiguous file costs seven ops when any page of
// it is partially covered (pre-image read, sidecar read, intent write and
// sync, data write and sync, read-back) and five when every page is blind
// and page 0 is among them: no pre-image read and no sidecar read, because
// ChecksumSidecar::WriteEntries writes the header with page 0's entry. A
// blind file that starts past page 0 reads the sidecar header first (six).
//
// Commit is intent-first and rot-gated:
//   * Rot gate. Before any mutation, each partially covered page's
//     pre-image is checked against its sidecar entry (one sidecar Read over
//     the span of those pages). A mismatch is accepted only when the entry
//     equals the page's FINAL image CRC — the signature of a power cut
//     during an earlier replay of this same page, whose intent already
//     certifies where this replay is going. Any other mismatch is rot under
//     partially covering redo: Commit fails with DATA_LOSS before writing a
//     byte of any page, blind ones included, so the caller routes the file
//     through the Scrubber instead of laundering the rot into a certified
//     page. A blind page needs no gate: every byte it keeps is redo.
//   * Intent. The final image's sidecar entry is written and synced BEFORE
//     the data, making a crash mid-write self-describing; a read-back of
//     every page after the data sync confirms the data matches it.
class ReplayWriteSet {
 public:
  ReplayWriteSet(store::DurableStore* store, RegionId region) : store_(store), region_(region) {}

  // Overlays `ranges` on the pages, plans coverage and fills in the
  // pre-images that are not blind (see the class comment).
  base::Status Load(const std::vector<uint64_t>& pages, const std::vector<RangeImage>& ranges);
  // Gates, certifies, writes, syncs and read-back-verifies every loaded
  // page, one sidecar entry per page.
  base::Status Commit();

 private:
  struct PageBuild {
    std::vector<uint8_t> image;  // pre-image (zeros when blind) + redo
    uint32_t preimage_crc = 0;   // PageCrc of the page as loaded; unset when blind
    PageCoverage covered{};      // the bytes the batch's ranges write
    bool blind = false;
  };
  using PageMap = std::map<uint64_t, PageBuild>;
  // Consecutive loaded pages: [begin, end) in pages_.
  struct Run {
    PageMap::iterator begin;
    PageMap::iterator end;
    uint64_t pages;
  };

  // Runs of consecutive pages, each at most `max_pages` long.
  std::vector<Run> Runs(uint64_t max_pages);

  store::DurableStore* store_;
  RegionId region_;
  std::unique_ptr<store::DurableFile> file_;
  PageMap pages_;
};

std::vector<ReplayWriteSet::Run> ReplayWriteSet::Runs(uint64_t max_pages) {
  std::vector<Run> runs;
  for (auto it = pages_.begin(); it != pages_.end(); ++it) {
    if (!runs.empty()) {
      Run& run = runs.back();
      if (std::prev(run.end)->first + 1 == it->first && run.pages < max_pages) {
        run.end = std::next(it);
        ++run.pages;
        continue;
      }
    }
    runs.push_back(Run{it, std::next(it), 1});
  }
  return runs;
}

base::Status ReplayWriteSet::Load(const std::vector<uint64_t>& pages,
                                  const std::vector<RangeImage>& ranges) {
  if (pages.empty()) {
    return base::OkStatus();
  }
  for (uint64_t page : pages) {
    pages_[page].image.assign(kDbPageSize, 0);
  }
  // Plan and overlay in one pass, before any I/O: each range goes onto the
  // zeroed images in call order and marks the bytes it wrote.
  for (const RangeImage& range : ranges) {
    if (range.region != region_ || range.data.empty()) {
      continue;
    }
    const uint64_t first_page = range.offset / kDbPageSize;
    const uint64_t last_page = (range.offset + range.data.size() - 1) / kDbPageSize;
    for (auto it = pages_.lower_bound(first_page); it != pages_.end() && it->first <= last_page;
         ++it) {
      const PageSlice slice = ClipRange(range, it->first);
      PageBuild& build = it->second;
      std::memcpy(build.image.data() + slice.offset, slice.src, static_cast<size_t>(slice.len));
      MarkCovered(slice, &build.covered);
    }
  }
  for (auto& [page, build] : pages_) {
    build.blind = FullyCovered(build.covered);
  }
  ASSIGN_OR_RETURN(file_, store_->Open(RegionFileName(region_), /*create=*/true));
  // Pre-images: per run of consecutive pages, one Read from its first to
  // its last page that is not blind; a run of blind pages reads nothing.
  std::vector<uint8_t> buf;
  for (const Run& run : Runs(UINT64_MAX)) {
    auto first = run.begin;
    while (first != run.end && first->second.blind) {
      ++first;
    }
    auto end = run.end;
    while (end != first && std::prev(end)->second.blind) {
      --end;
    }
    if (first == end) {
      continue;
    }
    buf.assign((std::prev(end)->first - first->first + 1) * kDbPageSize, 0);
    ASSIGN_OR_RETURN(size_t n, file_->Read(first->first * kDbPageSize, buf.data(), buf.size()));
    (void)n;  // short read past EOF leaves zeros, matching file growth
    const uint8_t* at = buf.data();
    for (auto it = first; it != end; ++it, at += kDbPageSize) {
      PageBuild& build = it->second;
      if (!build.blind) {
        build.preimage_crc = PageCrc(at, kDbPageSize);
        FillUncovered(build.covered, at, build.image.data());
      }
    }
  }
  return base::OkStatus();
}

base::Status ReplayWriteSet::Commit() {
  if (pages_.empty()) {
    return base::OkStatus();
  }
  const std::vector<Run> runs = Runs(kMaxRunPages);
  ASSIGN_OR_RETURN(auto sidecar, ChecksumSidecar::Open(store_, region_, /*create=*/true));
  // Rot gate: before mutating anything, check each pre-image that was read
  // against its sidecar entry (one read spans every such page).
  auto gated = [](const PageMap::value_type& p) { return !p.second.blind; };
  const auto first = std::find_if(pages_.begin(), pages_.end(), gated);
  if (first != pages_.end()) {
    const uint64_t last = std::find_if(pages_.rbegin(), pages_.rend(), gated)->first;
    ASSIGN_OR_RETURN(auto entries,
                     sidecar->ReadEntries(first->first, last - first->first + 1));
    for (auto it = first; it != pages_.end() && it->first <= last; ++it) {
      const auto& [page, build] = *it;
      if (build.blind) {
        continue;
      }
      const std::optional<uint32_t>& entry = entries[page - first->first];
      if (!entry.has_value()) {
        GlobalIntegrityMetrics()->pages_unverified->Increment();
      } else if (*entry == build.preimage_crc) {
        GlobalIntegrityMetrics()->pages_verified->Increment();
      } else if (*entry == PageCrc(build.image.data(), build.image.size())) {
        // Crash window of a previous replay of this page: the intent was
        // durable but the data write didn't finish. The bytes redo doesn't
        // cover still hold their old values, so re-applying the same slices
        // lands on the certified final image.
      } else {
        GlobalIntegrityMetrics()->verify_failures->Increment();
        return base::DataLoss("pre-image failed sidecar verification before replay: region " +
                              std::to_string(region_) + " page " + std::to_string(page));
      }
    }
  }
  // Intent: certify the FINAL image before the data moves. The entry is
  // final — the read-back below confirms the data matches it — and a crash
  // anywhere before the data sync leaves it behind for the gate above to
  // recognize on the next attempt, so a torn page resumes instead of
  // reading as rot.
  std::vector<uint32_t> crcs;
  for (const Run& run : runs) {
    crcs.clear();
    for (auto it = run.begin; it != run.end; ++it) {
      crcs.push_back(PageCrc(it->second.image.data(), it->second.image.size()));
    }
    RETURN_IF_ERROR(sidecar->WriteEntries(run.begin->first, crcs));
  }
  RETURN_IF_ERROR(sidecar->Sync());
  std::vector<uint8_t> staging;
  for (const Run& run : runs) {
    staging.clear();
    for (auto it = run.begin; it != run.end; ++it) {
      staging.insert(staging.end(), it->second.image.begin(), it->second.image.end());
    }
    RETURN_IF_ERROR(file_->Write(run.begin->first * kDbPageSize,
                                 base::ByteSpan(staging.data(), staging.size())));
  }
  RETURN_IF_ERROR(file_->Sync());
  // Read-back verification of every replayed page against its image.
  for (const Run& run : runs) {
    staging.assign(run.pages * kDbPageSize, 0);
    ASSIGN_OR_RETURN(size_t n,
                     file_->Read(run.begin->first * kDbPageSize, staging.data(), staging.size()));
    (void)n;  // past EOF reads as zeros, as the image is padded
    const uint8_t* got = staging.data();
    for (auto it = run.begin; it != run.end; ++it, got += kDbPageSize) {
      if (std::memcmp(got, it->second.image.data(), kDbPageSize) != 0) {
        GlobalIntegrityMetrics()->verify_failures->Increment();
        return base::DataLoss("replayed page failed read-back verification: region " +
                              std::to_string(region_) + " page " + std::to_string(it->first));
      }
      GlobalIntegrityMetrics()->pages_verified->Increment();
    }
  }
  return base::OkStatus();
}

}  // namespace

base::Result<std::vector<TransactionRecord>> ReadLogTransactions(store::DurableStore* store,
                                                                 const std::string& log_name,
                                                                 bool* tail_was_torn) {
  ASSIGN_OR_RETURN(auto file, store->Open(log_name, /*create=*/false));
  LogReader reader(file.get());
  std::vector<TransactionRecord> txns;
  base::ByteSpan span;
  bool at_end = false;
  while (true) {
    RETURN_IF_ERROR(reader.ReadNext(&span, &at_end));
    if (at_end) {
      break;
    }
    ASSIGN_OR_RETURN(LogRecordKind kind, PeekKind(span));
    if (kind == LogRecordKind::kCheckpoint) {
      // A checkpoint payload is exactly its kind byte. Anything longer is a
      // forged or mis-framed record — and a checkpoint CLEARS the recovered
      // prefix, so accepting a loose one would silently truncate recovery.
      if (span.size() != 1) {
        return base::DataLoss("checkpoint record with trailing bytes");
      }
      // Everything before a checkpoint is already in the database files.
      txns.clear();
      continue;
    }
    // In place: the record views its payload where it lies in the
    // reader's block and holds that block (log_io.h).
    TransactionRecord txn;
    RETURN_IF_ERROR(DecodeTransaction(span, reader.block(), &txn));
    txns.push_back(std::move(txn));
  }
  if (reader.tail_was_torn()) {
    GlobalRecoveryMetrics()->torn_tails_detected->Increment();
  }
  if (tail_was_torn != nullptr) {
    *tail_was_torn = reader.tail_was_torn();
  }
  return txns;
}

void OverlayRange(const RangeImage& range, uint64_t page, uint8_t* page_image) {
  const PageSlice slice = ClipRange(range, page);
  if (slice.len > 0) {
    std::memcpy(page_image + slice.offset, slice.src, static_cast<size_t>(slice.len));
  }
}

base::Status ReplayRegionFile(store::DurableStore* store, RegionId region,
                              const std::vector<uint64_t>& pages,
                              const std::vector<RangeImage>& ranges) {
  ReplayWriteSet writes(store, region);
  RETURN_IF_ERROR(writes.Load(pages, ranges));
  return writes.Commit();
}

base::Status ReplayLogsIntoDatabase(store::DurableStore* store,
                                    const std::vector<std::string>& log_names) {
  GlobalRecoveryMetrics()->replays->Increment();
  ASSIGN_OR_RETURN(const LogIndex index, LogIndex::Build(store, log_names));
  const std::vector<LogIndex::PageKey> keys = index.Pages();
  for (auto it = keys.begin(); it != keys.end();) {
    const RegionId region = it->first;
    std::vector<uint64_t> pages;
    for (; it != keys.end() && it->first == region; ++it) {
      pages.push_back(it->second);
    }
    RETURN_IF_ERROR(ReplayRegionFile(store, region, pages, index.RangesFor(region, pages)));
  }
  return base::OkStatus();
}

}  // namespace rvm
