#include "src/baselines/cpycmp.h"

#include <algorithm>
#include <cstring>

namespace baselines {

void CpyCmpEngine::NoteWrite(uint64_t offset, uint64_t len) {
  if (len == 0 || offset >= len_) {
    return;
  }
  uint64_t end = std::min(offset + len, len_);
  for (uint64_t page = offset / page_size_; page * page_size_ < end; ++page) {
    if (twins_.count(page)) {
      continue;  // already write-enabled this interval
    }
    uint64_t page_start = page * page_size_;
    uint64_t page_len = std::min(page_size_, len_ - page_start);
    twins_.emplace(page, std::vector<uint8_t>(base_ + page_start,
                                              base_ + page_start + page_len));
    m_.write_faults.Increment();
  }
}

std::vector<Diff> CpyCmpEngine::CollectDiffs(rvm::RegionId region) {
  std::vector<Diff> diffs;
  uint64_t diff_bytes = 0;
  for (const auto& [page, twin] : twins_) {
    const uint8_t* cur = base_ + page * page_size_;
    uint64_t n = twin.size();
    uint64_t i = 0;
    while (i < n) {
      if (cur[i] == twin[i]) {
        ++i;
        continue;
      }
      uint64_t start = i;
      while (i < n && cur[i] != twin[i]) {
        ++i;
      }
      Diff d;
      d.region = region;
      d.offset = page * page_size_ + start;
      d.data.assign(cur + start, cur + i);
      diff_bytes += d.data.size();
      diffs.push_back(std::move(d));
    }
  }
  m_.pages_compared.Add(twins_.size());
  m_.diff_ranges.Add(diffs.size());
  m_.diff_bytes.Add(diff_bytes);
  twins_.clear();
  return diffs;
}

}  // namespace baselines
