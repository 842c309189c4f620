#include "src/rvm/scrub.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "src/base/crc32.h"
#include "src/rvm/log_index.h"
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"

namespace rvm {

ScrubMetrics* GlobalScrubMetrics() {
  static ScrubMetrics* metrics = [] {
    auto* reg = obs::MetricsRegistry::Global();
    auto* m = new ScrubMetrics();
    m->runs = reg->GetCounter("scrub.runs");
    m->pages_scanned = reg->GetCounter("scrub.pages_scanned");
    m->page_mismatches = reg->GetCounter("scrub.page_mismatches");
    m->repaired_from_replica = reg->GetCounter("scrub.repaired_from_replica");
    m->repaired_from_log = reg->GetCounter("scrub.repaired_from_log");
    m->entries_rebuilt = reg->GetCounter("scrub.entries_rebuilt");
    m->entries_bootstrapped = reg->GetCounter("scrub.entries_bootstrapped");
    m->replica_divergence = reg->GetCounter("scrub.replica_divergence");
    m->logs_scanned = reg->GetCounter("scrub.logs_scanned");
    m->log_records_scanned = reg->GetCounter("scrub.log_records_scanned");
    m->log_corruptions = reg->GetCounter("scrub.log_corruptions");
    m->log_repairs = reg->GetCounter("scrub.log_repairs");
    m->unrepairable = reg->GetCounter("scrub.unrepairable");
    m->suspects_marked = reg->GetCounter("scrub.suspects_marked");
    return m;
  }();
  return metrics;
}

namespace {

void MirrorToGlobal(const ScrubReport& r) {
  auto* m = GlobalScrubMetrics();
  m->runs->Increment();
  m->pages_scanned->Add(r.pages_scanned);
  m->page_mismatches->Add(r.page_mismatches);
  m->repaired_from_replica->Add(r.repaired_from_replica);
  m->repaired_from_log->Add(r.repaired_from_log);
  m->entries_rebuilt->Add(r.entries_rebuilt);
  m->entries_bootstrapped->Add(r.entries_bootstrapped);
  m->replica_divergence->Add(r.replica_divergence);
  m->logs_scanned->Add(r.logs_scanned);
  m->log_records_scanned->Add(r.log_records_scanned);
  m->log_corruptions->Add(r.log_corruptions);
  m->log_repairs->Add(r.log_repairs);
  m->unrepairable->Add(r.unrepairable);
}

bool IsLogName(const std::string& name) {
  return name.starts_with("log_") && name.ends_with(".rvm");
}

bool ParseRegionName(const std::string& name, RegionId* id) {
  // "region_<digits>.db" — the ".dbsum" sidecars and ".trim" temporaries
  // fail the suffix test.
  if (!name.starts_with("region_") || !name.ends_with(".db")) {
    return false;
  }
  const std::string digits = name.substr(7, name.size() - 10);
  if (digits.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + (static_cast<uint64_t>(c) - '0');
  }
  *id = static_cast<RegionId>(v);
  return true;
}

// Reads `len` bytes starting at 0; empty result on a missing file.
base::Result<std::vector<uint8_t>> ReadPrefix(store::DurableStore* store,
                                              const std::string& name, uint64_t len) {
  std::vector<uint8_t> bytes(static_cast<size_t>(len));
  if (len == 0) {
    return bytes;
  }
  ASSIGN_OR_RETURN(auto file, store->Open(name, /*create=*/false));
  RETURN_IF_ERROR(file->ReadExact(0, bytes.data(), bytes.size()));
  return bytes;
}

// Replaces the file's contents with `bytes` (creating it if needed) and
// syncs. Used to rewrite a rotten log from a clean replica's valid prefix.
base::Status RewriteFile(store::DurableStore* store, const std::string& name,
                         const std::vector<uint8_t>& bytes) {
  ASSIGN_OR_RETURN(auto file, store->Open(name, /*create=*/true));
  RETURN_IF_ERROR(file->Truncate(bytes.size()));
  if (!bytes.empty()) {
    RETURN_IF_ERROR(file->Write(0, base::ByteSpan(bytes.data(), bytes.size())));
  }
  return file->Sync();
}

}  // namespace

// Per-run cache: the merged client history is loaded and indexed by page at
// most once, lazily, and only if some page actually needs log
// reconstruction.
struct Scrubber::RunState {
  bool merged_loaded = false;
  bool merged_failed = false;
  LogIndex merged;
};

namespace {

// Result of scanning one replica's copy of one log file.
struct LogScan {
  bool exists = false;
  bool scan_failed = false;     // I/O error while scanning (injected EIO)
  bool torn = false;            // frame chain ends before end-of-file
  bool mid_corruption = false;  // a valid frame exists past the break
  uint64_t valid_end = 0;       // bytes of intact frame chain from offset 0
  uint64_t records = 0;
  uint64_t file_size = 0;
};

LogScan ScanOneLog(store::DurableStore* store, const std::string& name) {
  LogScan scan;
  auto exists = store->Exists(name);
  if (!exists.ok()) {
    scan.scan_failed = true;
    return scan;
  }
  if (!*exists) {
    return scan;  // a node that never flushed: reads as an empty log
  }
  scan.exists = true;
  auto file_or = store->Open(name, /*create=*/false);
  if (!file_or.ok()) {
    scan.scan_failed = true;
    return scan;
  }
  auto file = std::move(*file_or);
  auto size_or = file->Size();
  if (!size_or.ok()) {
    scan.scan_failed = true;
    return scan;
  }
  scan.file_size = *size_or;

  LogReader reader(file.get());
  base::ByteSpan payload;
  bool at_end = false;
  while (true) {
    if (!reader.ReadNext(&payload, &at_end).ok()) {
      scan.scan_failed = true;
      return scan;
    }
    if (at_end) {
      break;
    }
    ++scan.records;
  }
  scan.valid_end = reader.offset();
  scan.torn = reader.tail_was_torn() || scan.valid_end < scan.file_size;
  if (!scan.torn) {
    return scan;
  }

  // The chain broke before end-of-file. A crash leaves a torn *tail* — a
  // partial frame with nothing valid after it, because appends are
  // contiguous and truncation swaps whole files. Rot in the middle of the
  // log, by contrast, leaves intact frames *past* the break. Distinguish the
  // two by scanning forward for any byte offset that parses as a complete
  // valid frame.
  const uint64_t start = scan.valid_end + 1;
  if (scan.file_size < start + kFrameHeaderSize) {
    return scan;
  }
  std::vector<uint8_t> tail(static_cast<size_t>(scan.file_size - start));
  if (!file->ReadExact(start, tail.data(), tail.size()).ok()) {
    scan.scan_failed = true;
    return scan;
  }
  for (size_t pos = 0; pos + kFrameHeaderSize <= tail.size(); ++pos) {
    uint32_t magic;
    std::memcpy(&magic, tail.data() + pos, sizeof(magic));
    if (magic != kLogMagic) {
      continue;
    }
    uint32_t len;
    uint32_t crc;
    std::memcpy(&len, tail.data() + pos + 4, sizeof(len));
    std::memcpy(&crc, tail.data() + pos + 8, sizeof(crc));
    if (pos + kFrameHeaderSize + len > tail.size()) {
      continue;
    }
    if (base::Crc32c(tail.data() + pos + kFrameHeaderSize, len) == crc) {
      scan.mid_corruption = true;
      break;
    }
  }
  return scan;
}

}  // namespace

base::Status Scrubber::ScrubLogs(RunState* run, ScrubReport* report,
                                 bool repair_logs) {
  (void)run;
  ASSIGN_OR_RETURN(auto names, store_->List());
  std::vector<std::string> logs;
  for (const std::string& name : names) {
    if (IsLogName(name)) {
      logs.push_back(name);
    }
  }
  std::sort(logs.begin(), logs.end());

  for (const std::string& name : logs) {
    ++report->logs_scanned;

    if (replicated_ == nullptr) {
      LogScan scan = ScanOneLog(store_, name);
      report->log_records_scanned += scan.records;
      if (scan.scan_failed) {
        ++report->unrepairable;
      } else if (scan.mid_corruption) {
        // Detect-only: with a single copy there is nothing to repair from.
        ++report->log_corruptions;
        ++report->unrepairable;
      }
      continue;
    }

    // Scan every healthy replica's copy and pick the authoritative one:
    // clean beats corrupt, then most records, then longest valid prefix.
    const size_t n = replicated_->replica_count();
    std::vector<LogScan> scans(n);
    std::vector<bool> healthy(n, false);
    int best = -1;
    for (size_t i = 0; i < n; ++i) {
      if (!replicated_->IsUp(i)) {
        continue;
      }
      healthy[i] = true;
      scans[i] = ScanOneLog(replicated_->replica(i), name);
      if (scans[i].scan_failed) {
        continue;
      }
      auto rank = [](const LogScan& s) {
        return std::make_tuple(!s.mid_corruption, s.records, s.valid_end);
      };
      if (best < 0 || rank(scans[i]) > rank(scans[best])) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      ++report->unrepairable;
      continue;
    }
    const LogScan& ref = scans[best];
    report->log_records_scanned += ref.records;
    for (size_t i = 0; i < n; ++i) {
      if (healthy[i] && !scans[i].scan_failed && scans[i].mid_corruption) {
        ++report->log_corruptions;
      }
    }
    if (ref.mid_corruption) {
      // Every scannable copy is rotten; rewriting would destroy the frames
      // past the break. Leave the bytes for manual salvage.
      ++report->unrepairable;
      continue;
    }
    if (!repair_logs) {
      // Detect-only pass (automatic ScrubRegion): a live client may append
      // a committed record to a peer replica between the scan above and a
      // rewrite, which would silently truncate it away. Leave repair to the
      // quiesced ScrubOnce path.
      continue;
    }

    auto good = ReadPrefix(replicated_->replica(best), name, ref.exists ? ref.valid_end : 0);
    if (!good.ok()) {
      ++report->unrepairable;
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      if (!healthy[i] || static_cast<int>(i) == best) {
        continue;
      }
      const LogScan& s = scans[i];
      bool needs_repair =
          s.scan_failed || s.mid_corruption || s.valid_end != ref.valid_end;
      if (!needs_repair && ref.valid_end > 0) {
        auto mine = ReadPrefix(replicated_->replica(i), name, ref.valid_end);
        needs_repair = !mine.ok() || *mine != *good;
      }
      if (!needs_repair) {
        continue;  // torn tails past valid_end may differ; recovery ignores them
      }
      if (!RewriteFile(replicated_->replica(i), name, *good).ok()) {
        ++report->unrepairable;
        continue;
      }
      replicated_->MarkSuspect(i);
      GlobalScrubMetrics()->suspects_marked->Increment();
      ++report->log_repairs;
    }
  }
  return base::OkStatus();
}

base::Result<std::vector<uint8_t>> Scrubber::ReconstructPage(RunState* run,
                                                             RegionId region,
                                                             uint64_t page) {
  if (!run->merged_loaded) {
    run->merged_loaded = true;
    run->merged_failed = true;  // until proven otherwise
    ASSIGN_OR_RETURN(auto names, store_->List());
    std::vector<std::string> logs;
    for (const std::string& name : names) {
      if (IsLogName(name)) {
        logs.push_back(name);
      }
    }
    std::sort(logs.begin(), logs.end());
    // FromMerged, not LogIndex::Build: a scrub is not a recovery, so it
    // must not add to recovery.index_build_ms.
    auto merged = MergeLogs(store_, logs);
    if (merged.ok()) {
      run->merged = LogIndex::FromMerged(std::move(*merged));
      run->merged_failed = false;
    }
  }
  if (run->merged_failed) {
    return base::DataLoss("merged client history unavailable for reconstruction");
  }
  // Region files start zero-filled and every change since the last trim is a
  // redo record of absolute bytes: zeros + the page's merged ranges, in
  // merged order, IS the page.
  std::vector<uint8_t> buf(kDbPageSize, 0);
  const std::vector<LogIndex::Slice>* slices = run->merged.SlicesFor(region, page);
  if (slices == nullptr) {
    return buf;
  }
  for (const LogIndex::Slice& slice : *slices) {
    OverlayRange(run->merged.RangeOf(slice), page, buf.data());
  }
  return buf;
}

base::Status Scrubber::ScrubRegionPages(RunState* run, RegionId region,
                                        ScrubReport* report) {
  const std::string db_name = RegionFileName(region);

  // One view per store we can read the region from: every healthy replica,
  // or just the single backing store.
  struct View {
    store::DurableStore* store = nullptr;
    size_t index = 0;  // replica index (meaningless without replicated_)
    std::unique_ptr<store::DurableFile> db;
    std::unique_ptr<ChecksumSidecar> sidecar;
    uint64_t file_size = 0;
  };
  std::vector<View> views;
  if (replicated_ != nullptr) {
    for (size_t i = 0; i < replicated_->replica_count(); ++i) {
      if (replicated_->IsUp(i)) {
        views.push_back(View{replicated_->replica(i), i});
      }
    }
  } else {
    views.push_back(View{store_, 0});
  }

  uint64_t max_size = 0;
  for (View& v : views) {
    auto exists = v.store->Exists(db_name);
    if (exists.ok() && *exists) {
      auto file_or = v.store->Open(db_name, /*create=*/false);
      if (file_or.ok()) {
        v.db = std::move(*file_or);
        auto size_or = v.db->Size();
        if (size_or.ok()) {
          v.file_size = *size_or;
          max_size = std::max(max_size, v.file_size);
        } else {
          v.db.reset();  // treat an unsizable file as unreadable
        }
      }
    }
    auto sidecar_or = ChecksumSidecar::Open(v.store, region, /*create=*/false);
    if (sidecar_or.ok()) {
      v.sidecar = std::move(*sidecar_or);
    }
  }
  if (max_size == 0) {
    return base::OkStatus();  // region absent (or empty) everywhere
  }
  const uint64_t pages = (max_size + kDbPageSize - 1) / kDbPageSize;

  // Per-view per-page state, rebuilt each iteration.
  struct Copy {
    bool read_ok = false;
    std::vector<uint8_t> data;  // zero-padded to kDbPageSize
    std::optional<uint32_t> entry;
    uint32_t crc = 0;
    bool self_ok = false;
  };
  std::vector<Copy> copies(views.size());

  // Writes `data[0..want)` into view v's database file at `offset`, records
  // the page's checksum, and syncs both. The whole-page CRC is `crc`.
  auto repair_copy = [&](View& v, uint64_t offset, uint64_t want,
                         const std::vector<uint8_t>& data, uint32_t crc) -> base::Status {
    ASSIGN_OR_RETURN(auto file, v.store->Open(db_name, /*create=*/true));
    if (want > 0) {
      RETURN_IF_ERROR(file->Write(offset, base::ByteSpan(data.data(), want)));
    }
    RETURN_IF_ERROR(file->Sync());
    if (v.sidecar == nullptr) {
      ASSIGN_OR_RETURN(v.sidecar, ChecksumSidecar::Open(v.store, region, /*create=*/true));
    }
    RETURN_IF_ERROR(v.sidecar->WriteEntry(offset / kDbPageSize, crc));
    return v.sidecar->Sync();
  };
  auto write_entry = [&](View& v, uint64_t page, uint32_t crc) -> base::Status {
    if (v.sidecar == nullptr) {
      ASSIGN_OR_RETURN(v.sidecar, ChecksumSidecar::Open(v.store, region, /*create=*/true));
    }
    RETURN_IF_ERROR(v.sidecar->WriteEntry(page, crc));
    return v.sidecar->Sync();
  };
  auto mark_suspect = [&](const View& v) {
    if (replicated_ != nullptr) {
      replicated_->MarkSuspect(v.index);
      GlobalScrubMetrics()->suspects_marked->Increment();
    }
  };

  for (uint64_t page = 0; page < pages; ++page) {
    ++report->pages_scanned;
    const uint64_t offset = page * kDbPageSize;
    const uint64_t want = std::min<uint64_t>(kDbPageSize, max_size - offset);

    for (size_t i = 0; i < views.size(); ++i) {
      View& v = views[i];
      Copy& c = copies[i];
      c.data.assign(kDbPageSize, 0);
      c.entry.reset();
      c.read_ok = true;
      const uint64_t mine =
          v.db != nullptr && offset < v.file_size
              ? std::min<uint64_t>(kDbPageSize, v.file_size - offset)
              : 0;
      if (mine > 0 && !v.db->ReadExact(offset, c.data.data(), mine).ok()) {
        c.read_ok = false;
      }
      c.crc = PageCrc(c.data.data(), c.data.size());
      if (v.sidecar != nullptr) {
        auto entry_or = v.sidecar->ReadEntry(page);
        if (entry_or.ok()) {
          c.entry = *entry_or;
        }
      }
      c.self_ok = c.read_ok && c.entry.has_value() && *c.entry == c.crc;
    }

    int ref = -1;
    for (size_t i = 0; i < copies.size(); ++i) {
      if (copies[i].self_ok) {
        ref = static_cast<int>(i);
        break;
      }
    }

    if (ref >= 0) {
      const Copy& good = copies[ref];
      for (size_t i = 0; i < views.size(); ++i) {
        if (static_cast<int>(i) == ref) {
          continue;
        }
        Copy& c = copies[i];
        if (c.self_ok) {
          if (c.data != good.data) {
            // Both copies pass their own checksum yet disagree: a lost
            // mirrored write, not rot. Flag it; choosing a winner here
            // would silently discard committed data.
            ++report->replica_divergence;
          }
          continue;
        }
        if (c.read_ok && c.data == good.data) {
          // The data survived; only the sidecar entry rotted (or was never
          // written on this replica). Rebuild the entry in place.
          if (write_entry(views[i], page, good.crc).ok()) {
            ++report->entries_rebuilt;
          } else {
            ++report->unrepairable;
          }
          continue;
        }
        ++report->page_mismatches;
        if (repair_copy(views[i], offset, want, good.data, good.crc).ok()) {
          mark_suspect(views[i]);
          ++report->repaired_from_replica;
        } else {
          ++report->unrepairable;
        }
      }
      continue;
    }

    // No copy is self-consistent. Vote with the surviving sidecar entries.
    std::map<uint32_t, int> entry_votes;
    for (const Copy& c : copies) {
      if (c.entry.has_value()) {
        ++entry_votes[*c.entry];
      }
    }
    if (entry_votes.empty()) {
      // Unprotected page (written before this layer, never replayed since).
      bool all_equal = true;
      for (const Copy& c : copies) {
        all_equal = all_equal && c.read_ok && c.data == copies[0].data;
      }
      if (all_equal) {
        bool ok = true;
        for (View& v : views) {
          ok = ok && write_entry(v, page, copies[0].crc).ok();
        }
        if (ok) {
          ++report->entries_bootstrapped;
        } else {
          ++report->unrepairable;
        }
      } else {
        // Copies disagree and nothing says which (if any) is right.
        ++report->page_mismatches;
        ++report->unrepairable;
      }
      continue;
    }
    uint32_t expected = 0;
    int best_votes = -1;
    bool vote_tied = false;
    for (const auto& [crc, votes] : entry_votes) {
      if (votes > best_votes) {
        expected = crc;
        best_votes = votes;
        vote_tied = false;
      } else if (votes == best_votes) {
        vote_tied = true;
      }
    }
    if (vote_tied) {
      // Equal support for different checksums (e.g. a 1-1 split): nothing
      // says which history is right, and electing one — the map's iteration
      // order would crown the numerically smallest CRC — may discard
      // committed data. Report divergence and leave every copy in place,
      // exactly as the self-consistent-divergence case above does.
      ++report->replica_divergence;
      ++report->unrepairable;
      continue;
    }

    int intact = -1;
    for (size_t i = 0; i < copies.size(); ++i) {
      if (copies[i].read_ok && copies[i].crc == expected) {
        intact = static_cast<int>(i);
        break;
      }
    }
    if (intact >= 0) {
      // Some replica's data matches the voted checksum — its own entry (and
      // possibly others') rotted. Restore entries, then repair true data rot
      // from the intact copy.
      const Copy& good = copies[intact];
      for (size_t i = 0; i < views.size(); ++i) {
        Copy& c = copies[i];
        if (c.read_ok && c.crc == expected) {
          if (write_entry(views[i], page, expected).ok()) {
            ++report->entries_rebuilt;
          } else {
            ++report->unrepairable;
          }
          continue;
        }
        ++report->page_mismatches;
        if (repair_copy(views[i], offset, want, good.data, expected).ok()) {
          mark_suspect(views[i]);
          ++report->repaired_from_replica;
        } else {
          ++report->unrepairable;
        }
      }
      continue;
    }

    // Every copy's data is bad. Last resort: rebuild the page from the
    // merged client logs and accept it only if it matches the checksum.
    report->page_mismatches += copies.size();
    auto candidate = ReconstructPage(run, region, page);
    if (!candidate.ok() ||
        PageCrc(candidate->data(), candidate->size()) != expected) {
      ++report->unrepairable;
      continue;
    }
    bool ok = true;
    for (View& v : views) {
      ok = repair_copy(v, offset, want, *candidate, expected).ok() && ok;
      mark_suspect(v);
    }
    if (ok) {
      ++report->repaired_from_log;
    } else {
      ++report->unrepairable;
    }
  }
  return base::OkStatus();
}

base::Result<ScrubReport> Scrubber::ScrubOnce() {
  RunState run;
  ScrubReport report;
  RETURN_IF_ERROR(ScrubLogs(&run, &report, /*repair_logs=*/true));
  ASSIGN_OR_RETURN(auto names, store_->List());
  std::vector<RegionId> regions;
  for (const std::string& name : names) {
    RegionId id = 0;
    if (ParseRegionName(name, &id)) {
      regions.push_back(id);
    }
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  for (RegionId region : regions) {
    RETURN_IF_ERROR(ScrubRegionPages(&run, region, &report));
  }
  MirrorToGlobal(report);
  return report;
}

base::Result<ScrubReport> Scrubber::ScrubRegion(RegionId region) {
  RunState run;
  ScrubReport report;
  RETURN_IF_ERROR(ScrubLogs(&run, &report, /*repair_logs=*/false));
  RETURN_IF_ERROR(ScrubRegionPages(&run, region, &report));
  MirrorToGlobal(report);
  return report;
}

}  // namespace rvm
