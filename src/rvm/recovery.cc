#include "src/rvm/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"

namespace rvm {
namespace {

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
  std::vector<uint8_t> payload;
  bool at_end = false;
  while (true) {
    RETURN_IF_ERROR(reader.ReadNext(&payload, &at_end));
    if (at_end) {
      break;
    }
    base::ByteSpan span(payload.data(), payload.size());
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

base::Status ReplayWriteSet::Apply(const RangeImage& range) {
  auto it = files_.find(range.region);
  if (it == files_.end()) {
    ASSIGN_OR_RETURN(auto file, store_->Open(RegionFileName(range.region), /*create=*/true));
    it = files_.emplace(range.region, std::move(file)).first;
  }
  if (range.data.empty()) {
    return base::OkStatus();
  }
  uint64_t first_page = range.offset / kDbPageSize;
  uint64_t last_page = (range.offset + range.data.size() - 1) / kDbPageSize;
  for (uint64_t page = first_page; page <= last_page; ++page) {
    if (options_.page_filter && !options_.page_filter(range.region, page)) {
      continue;
    }
    auto key = std::make_pair(range.region, page);
    auto page_it = pages_.find(key);
    if (page_it == pages_.end()) {
      PageBuild build;
      build.image.assign(kDbPageSize, 0);
      ASSIGN_OR_RETURN(auto n, it->second->Read(page * kDbPageSize, build.image.data(),
                                                build.image.size()));
      (void)n;  // short read past EOF leaves zeros, matching file growth
      if (options_.verify_preimages) {
        build.preimage = build.image;
        build.covered.assign(kDbPageSize, 0);
      }
      page_it = pages_.emplace(key, std::move(build)).first;
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

base::Status ReplayWriteSet::Commit() {
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
    for (auto& [key, build] : pages_) {
      const auto& [region, page] = key;
      ASSIGN_OR_RETURN(ChecksumSidecar * sidecar, sidecar_for(region));
      ASSIGN_OR_RETURN(auto entry, sidecar->ReadEntry(page));
      uint32_t final_crc = PageCrc(build.image.data(), build.image.size());
      bool fully_covered =
          std::find(build.covered.begin(), build.covered.end(), 0) == build.covered.end();
      if (!entry.has_value()) {
        GlobalIntegrityMetrics()->pages_unverified->Increment();
      } else if (*entry == PageCrc(build.preimage.data(), build.preimage.size())) {
        GlobalIntegrityMetrics()->pages_verified->Increment();
      } else if (*entry == final_crc) {
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
      RETURN_IF_ERROR(sidecar->WriteEntry(page, final_crc));
    }
    RETURN_IF_ERROR(sync_sidecars());
  }
  for (auto& [key, build] : pages_) {
    const auto& [region, page] = key;
    RETURN_IF_ERROR(files_[region]->Write(
        page * kDbPageSize, base::ByteSpan(build.image.data(), build.image.size())));
  }
  // Sync every opened file — even ones with no accumulated pages, so full
  // replay keeps its "database durable before log truncation" guarantee for
  // regions touched only by empty ranges.
  for (auto& [region, file] : files_) {
    RETURN_IF_ERROR(file->Sync());
  }
  // Read-back verification of every replayed page against its image.
  std::vector<uint8_t> readback(kDbPageSize);
  for (const auto& [key, build] : pages_) {
    const auto& [region, page] = key;
    auto& file = files_[region];
    ASSIGN_OR_RETURN(uint64_t file_size, file->Size());
    uint64_t offset = page * kDbPageSize;
    size_t want = static_cast<size_t>(
        offset < file_size ? std::min<uint64_t>(kDbPageSize, file_size - offset) : 0);
    std::fill(readback.begin(), readback.end(), 0);
    if (want > 0) {
      RETURN_IF_ERROR(file->ReadExact(offset, readback.data(), want));
    }
    if (std::memcmp(readback.data(), build.image.data(), kDbPageSize) != 0) {
      GlobalIntegrityMetrics()->verify_failures->Increment();
      return base::DataLoss("replayed page failed read-back verification: region " +
                            std::to_string(region) + " page " + std::to_string(page));
    }
    GlobalIntegrityMetrics()->pages_verified->Increment();
  }
  if (options_.verify_preimages) {
    return base::OkStatus();  // the intent entries already certify these pages
  }
  // Plain mode certifies once the data is durable and has read back intact.
  for (const auto& [key, build] : pages_) {
    const auto& [region, page] = key;
    ASSIGN_OR_RETURN(ChecksumSidecar * sidecar, sidecar_for(region));
    uint32_t crc = PageCrc(build.image.data(), build.image.size());
    RETURN_IF_ERROR(sidecar->WriteEntry(page, crc));
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
