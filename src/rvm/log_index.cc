#include "src/rvm/log_index.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "src/obs/metrics.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"

namespace rvm {

base::Result<LogIndex> LogIndex::Build(store::DurableStore* store,
                                       const std::vector<std::string>& log_names) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::string> present;
  for (const std::string& name : log_names) {
    ASSIGN_OR_RETURN(bool exists, store->Exists(name));
    if (exists) {
      present.push_back(name);
    }
  }
  std::vector<TransactionRecord> merged;
  if (!present.empty()) {
    ASSIGN_OR_RETURN(merged, MergeLogs(store, present));
  }
  LogIndex index = FromMerged(std::move(merged));
  uint64_t ms = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                          std::chrono::steady_clock::now() - start)
                                          .count());
  obs::MetricsRegistry::Global()->GetCounter("recovery.index_build_ms")->Add(ms);
  return index;
}

LogIndex LogIndex::FromMerged(std::vector<TransactionRecord> merged) {
  LogIndex index;
  index.txns_ = std::move(merged);
  for (size_t i = 0; i < index.txns_.size(); ++i) {
    index.IndexTransaction(static_cast<uint32_t>(i), /*touched=*/nullptr);
  }
  return index;
}

void LogIndex::IndexTransaction(uint32_t txn_idx, std::vector<PageKey>* touched) {
  const TransactionRecord& txn = txns_[txn_idx];
  for (const auto& lock : txn.locks) {
    uint64_t& seq = max_lock_seq_[lock.lock_id];
    seq = std::max(seq, lock.sequence);
  }
  uint64_t& commit = max_commit_seq_[txn.node];
  commit = std::max(commit, txn.commit_seq);
  const uint8_t* const list = txn.ranges.bytes().data();
  for (auto it = txn.ranges.begin(); it != txn.ranges.end(); ++it) {
    const RangeImage& range = *it;
    if (range.data.empty()) {
      continue;
    }
    uint64_t first_page = range.offset / kDbPageSize;
    uint64_t last_page = (range.offset + range.data.size() - 1) / kDbPageSize;
    const Slice slice{txn_idx, static_cast<uint32_t>(it.header() - list), range.offset};
    for (uint64_t page = first_page; page <= last_page; ++page) {
      PageKey key{range.region, page};
      pages_[key].push_back(slice);
      if (touched != nullptr) {
        touched->push_back(key);
      }
    }
  }
}

std::vector<LogIndex::PageKey> LogIndex::Pages() const {
  std::vector<PageKey> out;
  out.reserve(pages_.size());
  for (const auto& [key, slices] : pages_) {
    out.push_back(key);
  }
  return out;
}

std::vector<uint64_t> LogIndex::PagesOf(RegionId region) const {
  std::vector<uint64_t> out;
  for (auto it = pages_.lower_bound({region, 0});
       it != pages_.end() && it->first.first == region; ++it) {
    out.push_back(it->first.second);
  }
  return out;
}

const std::vector<LogIndex::Slice>* LogIndex::SlicesFor(RegionId region,
                                                        uint64_t page) const {
  auto it = pages_.find({region, page});
  return it == pages_.end() ? nullptr : &it->second;
}

std::vector<RangeImage> LogIndex::RangesFor(RegionId region,
                                            const std::vector<uint64_t>& pages) const {
  // A range spanning several of the pages is listed under each of them.
  std::vector<Slice> slices;
  for (uint64_t page : pages) {
    const std::vector<Slice>* page_slices = SlicesFor(region, page);
    if (page_slices != nullptr) {
      slices.insert(slices.end(), page_slices->begin(), page_slices->end());
    }
  }
  std::sort(slices.begin(), slices.end());
  slices.erase(std::unique(slices.begin(), slices.end()), slices.end());
  std::vector<RangeImage> ranges;
  ranges.reserve(slices.size());
  for (const Slice& slice : slices) {
    ranges.push_back(RangeOf(slice));
  }
  return ranges;
}

uint64_t LogIndex::MaxCommitSeq(NodeId node) const {
  auto it = max_commit_seq_.find(node);
  return it == max_commit_seq_.end() ? 0 : it->second;
}

std::vector<LogIndex::PageKey> LogIndex::Extend(std::vector<TransactionRecord> merged) {
  // Extend is rare (a dead client's log, a trim while recovery runs): name
  // the indexed records here instead of on every Build.
  std::set<std::pair<NodeId, uint64_t>> indexed;
  for (const TransactionRecord& txn : txns_) {
    indexed.emplace(txn.node, txn.commit_seq);
  }
  std::vector<PageKey> touched;
  for (auto& txn : merged) {
    if (!indexed.emplace(txn.node, txn.commit_seq).second) {
      continue;  // already indexed (the restart merge read this log, or a carried copy)
    }
    txns_.push_back(std::move(txn));
    IndexTransaction(static_cast<uint32_t>(txns_.size() - 1), &touched);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

}  // namespace rvm
