#include "src/rvm/recovery.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>

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

// True when the page-relative {offset, length} spans cover the whole page.
bool FullyCovered(std::vector<std::pair<uint64_t, uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  uint64_t covered = 0;  // [0, covered) is covered
  for (const auto& [at, len] : spans) {
    if (at > covered) {
      return false;
    }
    covered = std::max(covered, at + len);
  }
  return covered >= kDbPageSize;
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
    TransactionRecord txn;
    RETURN_IF_ERROR(DecodeTransaction(span, &txn));
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

std::pair<uint64_t, uint64_t> OverlayRange(const RangeImage& range, uint64_t page,
                                           uint8_t* page_image) {
  const uint64_t page_start = page * kDbPageSize;
  const uint64_t lo = std::max(range.offset, page_start);
  const uint64_t hi = std::min(range.offset + range.data.size(), page_start + kDbPageSize);
  if (lo >= hi) {
    return {0, 0};
  }
  std::memcpy(page_image + (lo - page_start), range.data.data() + (lo - range.offset),
              static_cast<size_t>(hi - lo));
  return {lo - page_start, hi - lo};
}

ReplayWriteSet::ReplayWriteSet(store::DurableStore* store, RegionId region)
    : store_(store), region_(region) {}

base::Status ReplayWriteSet::LoadPages(const std::vector<uint64_t>& pages) {
  if (pages.empty()) {
    return base::OkStatus();
  }
  ASSIGN_OR_RETURN(file_, store_->Open(RegionFileName(region_), /*create=*/true));
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < pages.size();) {
    size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) {
      ++j;
    }
    buf.assign((j - i) * kDbPageSize, 0);
    ASSIGN_OR_RETURN(size_t n, file_->Read(pages[i] * kDbPageSize, buf.data(), buf.size()));
    (void)n;  // short read past EOF leaves zeros, matching file growth
    for (size_t k = i; k < j; ++k) {
      auto at = buf.begin() + static_cast<std::ptrdiff_t>((k - i) * kDbPageSize);
      PageBuild& build = pages_[pages[k]];
      build.image.assign(at, at + kDbPageSize);
      build.preimage_crc = PageCrc(build.image.data(), build.image.size());
    }
    i = j;
  }
  return base::OkStatus();
}

void ReplayWriteSet::Apply(const RangeImage& range) {
  if (range.region != region_ || range.data.empty()) {
    return;
  }
  const uint64_t first_page = range.offset / kDbPageSize;
  const uint64_t last_page = (range.offset + range.data.size() - 1) / kDbPageSize;
  for (auto it = pages_.lower_bound(first_page); it != pages_.end() && it->first <= last_page;
       ++it) {
    it->second.redo.push_back(OverlayRange(range, it->first, it->second.image.data()));
  }
}

std::vector<ReplayWriteSet::Run> ReplayWriteSet::Runs() {
  std::vector<Run> runs;
  for (auto it = pages_.begin(); it != pages_.end(); ++it) {
    if (!runs.empty()) {
      Run& run = runs.back();
      if (std::prev(run.end)->first + 1 == it->first && run.pages < kMaxRunPages) {
        run.end = std::next(it);
        ++run.pages;
        continue;
      }
    }
    runs.push_back(Run{it, std::next(it), 1});
  }
  return runs;
}

base::Status ReplayWriteSet::Commit() {
  if (pages_.empty()) {
    return base::OkStatus();
  }
  const std::vector<Run> runs = Runs();
  ASSIGN_OR_RETURN(auto sidecar, ChecksumSidecar::Open(store_, region_, /*create=*/true));
  // Rot gate: before mutating anything, check each pre-image against its
  // sidecar entry (one read covers every page of the file).
  const uint64_t first = pages_.begin()->first;
  const uint64_t last = std::prev(pages_.end())->first;
  ASSIGN_OR_RETURN(auto entries, sidecar->ReadEntries(first, last - first + 1));
  for (const auto& [page, build] : pages_) {
    const std::optional<uint32_t>& entry = entries[page - first];
    if (!entry.has_value()) {
      GlobalIntegrityMetrics()->pages_unverified->Increment();
    } else if (*entry == build.preimage_crc) {
      GlobalIntegrityMetrics()->pages_verified->Increment();
    } else if (*entry == PageCrc(build.image.data(), build.image.size())) {
      // Crash window of a previous replay of this page: the intent was
      // durable but the data write didn't finish. The bytes redo doesn't
      // cover still hold their old values, so re-applying the same slices
      // lands on the certified final image.
    } else if (FullyCovered(build.redo)) {
      // Pre-image is rotten but irrelevant: redo overwrites every byte.
    } else {
      GlobalIntegrityMetrics()->verify_failures->Increment();
      return base::DataLoss("pre-image failed sidecar verification before replay: region " +
                            std::to_string(region_) + " page " + std::to_string(page));
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

base::Status ReplayRegionFile(store::DurableStore* store, RegionId region,
                              const std::vector<uint64_t>& pages,
                              const std::vector<RangeImage>& ranges) {
  ReplayWriteSet writes(store, region);
  RETURN_IF_ERROR(writes.LoadPages(pages));
  for (const RangeImage& range : ranges) {
    writes.Apply(range);
  }
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
