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
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
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

ReplayWriteSet::ReplayWriteSet(store::DurableStore* store, ReplayOptions options)
    : store_(store), options_(std::move(options)) {}

base::Result<store::DurableFile*> ReplayWriteSet::FileFor(RegionId region) {
  auto it = files_.find(region);
  if (it == files_.end()) {
    ASSIGN_OR_RETURN(auto file, store_->Open(RegionFileName(region), /*create=*/true));
    it = files_.emplace(region, std::move(file)).first;
  }
  return it->second.get();
}

ReplayWriteSet::PageMap::iterator ReplayWriteSet::AddPage(RegionId region, uint64_t page,
                                                          std::vector<uint8_t> image) {
  PageBuild build;
  build.image = std::move(image);
  if (options_.verify_preimages) {
    build.preimage = build.image;
    build.covered.assign(kDbPageSize, 0);
  }
  return pages_.emplace(std::make_pair(region, page), std::move(build)).first;
}

base::Status ReplayWriteSet::LoadPages(RegionId region, const std::vector<uint64_t>& pages) {
  confined_ = true;
  ASSIGN_OR_RETURN(store::DurableFile * file, FileFor(region));
  std::vector<uint8_t> buf;
  for (size_t i = 0; i < pages.size();) {
    size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) {
      ++j;
    }
    buf.assign((j - i) * kDbPageSize, 0);
    ASSIGN_OR_RETURN(size_t n, file->Read(pages[i] * kDbPageSize, buf.data(), buf.size()));
    (void)n;  // short read past EOF leaves zeros, matching file growth
    for (size_t k = i; k < j; ++k) {
      auto at = buf.begin() + static_cast<std::ptrdiff_t>((k - i) * kDbPageSize);
      AddPage(region, pages[k], std::vector<uint8_t>(at, at + kDbPageSize));
    }
    i = j;
  }
  return base::OkStatus();
}

base::Status ReplayWriteSet::Apply(const RangeImage& range) {
  store::DurableFile* file = nullptr;
  if (!confined_) {
    ASSIGN_OR_RETURN(file, FileFor(range.region));
  }
  if (range.data.empty()) {
    return base::OkStatus();
  }
  uint64_t first_page = range.offset / kDbPageSize;
  uint64_t last_page = (range.offset + range.data.size() - 1) / kDbPageSize;
  for (uint64_t page = first_page; page <= last_page; ++page) {
    auto page_it = pages_.find(std::make_pair(range.region, page));
    if (page_it == pages_.end()) {
      if (confined_) {
        continue;
      }
      std::vector<uint8_t> image(kDbPageSize, 0);
      ASSIGN_OR_RETURN(auto n, file->Read(page * kDbPageSize, image.data(), image.size()));
      (void)n;  // short read past EOF leaves zeros, matching file growth
      page_it = AddPage(range.region, page, std::move(image));
    }
    uint64_t page_start = page * kDbPageSize;
    uint64_t lo = std::max(range.offset, page_start);
    uint64_t hi = std::min(range.offset + range.data.size(), page_start + kDbPageSize);
    std::memcpy(page_it->second.image.data() + (lo - page_start),
                range.data.data() + (lo - range.offset), hi - lo);
    if (options_.verify_preimages) {
      std::memset(page_it->second.covered.data() + (lo - page_start), 1, hi - lo);
    }
  }
  return base::OkStatus();
}

std::vector<ReplayWriteSet::Run> ReplayWriteSet::Runs() {
  std::vector<Run> runs;
  for (auto it = pages_.begin(); it != pages_.end(); ++it) {
    if (!runs.empty()) {
      Run& run = runs.back();
      const auto& prev = std::prev(run.end)->first;
      if (prev.first == it->first.first && prev.second + 1 == it->first.second &&
          run.pages < kMaxRunPages) {
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
  const std::vector<Run> runs = Runs();
  // One sidecar handle per region; each page's entry is written exactly
  // once per commit, from the image this write set already holds.
  std::map<RegionId, std::unique_ptr<ChecksumSidecar>> sidecars;
  auto sidecar_for = [&](RegionId region) -> base::Result<ChecksumSidecar*> {
    auto it = sidecars.find(region);
    if (it == sidecars.end()) {
      ASSIGN_OR_RETURN(auto sidecar, ChecksumSidecar::Open(store_, region, /*create=*/true));
      it = sidecars.emplace(region, std::move(sidecar)).first;
    }
    return it->second.get();
  };
  auto write_entries = [&](const Run& run) -> base::Status {
    std::vector<uint32_t> crcs;
    crcs.reserve(run.pages);
    for (auto it = run.begin; it != run.end; ++it) {
      crcs.push_back(PageCrc(it->second.image.data(), it->second.image.size()));
    }
    ASSIGN_OR_RETURN(ChecksumSidecar * sidecar, sidecar_for(run.begin->first.first));
    return sidecar->WriteEntries(run.begin->first.second, crcs);
  };
  auto sync_sidecars = [&]() -> base::Status {
    for (auto& [region, sidecar] : sidecars) {
      RETURN_IF_ERROR(sidecar->Sync());
    }
    return base::OkStatus();
  };
  if (options_.verify_preimages) {
    // Rot gate + intent: before mutating anything, check each pre-image
    // against its sidecar entry, then certify the FINAL image in the
    // sidecar. That entry is final — the read-back below confirms the data
    // matches it. A crash anywhere between here and the data sync leaves
    // the intent entry behind, which the case analysis below recognizes on
    // the next attempt — so a torn page resumes instead of reading as rot.
    for (auto it = pages_.begin(); it != pages_.end();) {
      // One sidecar read covers every page of this region.
      const RegionId region = it->first.first;
      const auto region_end = pages_.upper_bound(std::make_pair(region, UINT64_MAX));
      const uint64_t first = it->first.second;
      const uint64_t last = std::prev(region_end)->first.second;
      ASSIGN_OR_RETURN(ChecksumSidecar * sidecar, sidecar_for(region));
      ASSIGN_OR_RETURN(auto entries, sidecar->ReadEntries(first, last - first + 1));
      for (; it != region_end; ++it) {
        const uint64_t page = it->first.second;
        const PageBuild& build = it->second;
        const std::optional<uint32_t>& entry = entries[page - first];
        bool fully_covered =
            std::find(build.covered.begin(), build.covered.end(), 0) == build.covered.end();
        if (!entry.has_value()) {
          GlobalIntegrityMetrics()->pages_unverified->Increment();
        } else if (*entry == PageCrc(build.preimage.data(), build.preimage.size())) {
          GlobalIntegrityMetrics()->pages_verified->Increment();
        } else if (*entry == PageCrc(build.image.data(), build.image.size())) {
          // Crash window of a previous materialization of this page: the
          // intent was durable but the data write didn't finish. The bytes
          // redo doesn't cover still hold their old values, so re-applying
          // the same slices lands on the certified final image.
        } else if (fully_covered) {
          // Pre-image is rotten but irrelevant: redo overwrites every byte.
        } else {
          GlobalIntegrityMetrics()->verify_failures->Increment();
          return base::DataLoss("pre-image failed sidecar verification before replay: region " +
                                std::to_string(region) + " page " + std::to_string(page));
        }
      }
    }
    for (const Run& run : runs) {
      RETURN_IF_ERROR(write_entries(run));
    }
    RETURN_IF_ERROR(sync_sidecars());
  }
  std::vector<uint8_t> staging;
  for (const Run& run : runs) {
    staging.clear();
    for (auto it = run.begin; it != run.end; ++it) {
      staging.insert(staging.end(), it->second.image.begin(), it->second.image.end());
    }
    const auto& [region, page] = run.begin->first;
    RETURN_IF_ERROR(files_[region]->Write(page * kDbPageSize,
                                          base::ByteSpan(staging.data(), staging.size())));
  }
  // Sync every opened file — even ones with no accumulated pages, so full
  // replay keeps its "database durable before log truncation" guarantee for
  // regions touched only by empty ranges.
  for (auto& [region, file] : files_) {
    RETURN_IF_ERROR(file->Sync());
  }
  // Read-back verification of every replayed page against its image.
  for (const Run& run : runs) {
    const auto& [region, first_page] = run.begin->first;
    staging.assign(run.pages * kDbPageSize, 0);
    ASSIGN_OR_RETURN(size_t n, files_[region]->Read(first_page * kDbPageSize, staging.data(),
                                                    staging.size()));
    (void)n;  // past EOF reads as zeros, as the image is padded
    const uint8_t* got = staging.data();
    for (auto it = run.begin; it != run.end; ++it, got += kDbPageSize) {
      if (std::memcmp(got, it->second.image.data(), kDbPageSize) != 0) {
        GlobalIntegrityMetrics()->verify_failures->Increment();
        return base::DataLoss("replayed page failed read-back verification: region " +
                              std::to_string(region) + " page " +
                              std::to_string(it->first.second));
      }
      GlobalIntegrityMetrics()->pages_verified->Increment();
    }
  }
  if (options_.verify_preimages) {
    return base::OkStatus();  // the intent entries already certify these pages
  }
  // Plain mode certifies once the data is durable and has read back intact.
  for (const Run& run : runs) {
    RETURN_IF_ERROR(write_entries(run));
  }
  return sync_sidecars();
}

base::Status ApplyToDatabase(store::DurableStore* store,
                             const std::vector<TransactionRecord>& txns) {
  ReplayWriteSet writes(store);
  for (const auto& txn : txns) {
    for (const auto& range : txn.ranges) {
      RETURN_IF_ERROR(writes.Apply(range));
    }
  }
  return writes.Commit();
}

base::Status ReplayLogsIntoDatabase(store::DurableStore* store,
                                    const std::vector<std::string>& log_names) {
  GlobalRecoveryMetrics()->replays->Increment();
  // A named log may not exist: a node that crashed before its first flush
  // never made the file durable. Such a node has no committed transactions,
  // so its log reads as empty.
  std::vector<std::string> present;
  for (const std::string& name : log_names) {
    ASSIGN_OR_RETURN(bool exists, store->Exists(name));
    if (exists) {
      present.push_back(name);
    }
  }
  if (present.empty()) {
    return base::OkStatus();
  }
  if (present.size() == 1) {
    ASSIGN_OR_RETURN(auto txns, ReadLogTransactions(store, present[0]));
    return ApplyToDatabase(store, txns);
  }
  ASSIGN_OR_RETURN(auto merged, MergeLogs(store, present));
  return ApplyToDatabase(store, merged);
}

}  // namespace rvm
