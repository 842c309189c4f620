// Builds rvm::TransactionRecords from byte literals for tests. A record is
// its encoded payload, so these helpers write the given bytes once into a
// payload the record holds (rvm::MakeTransaction).
#ifndef TESTS_TESTING_RECORDS_H_
#define TESTS_TESTING_RECORDS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/rvm/log_format.h"
#include "src/rvm/types.h"

namespace testing_records {

// One range with the bytes it carries.
struct Range {
  rvm::RegionId region = 0;
  uint64_t offset = 0;
  std::vector<uint8_t> data;
};

// A record's ranges, listed (a test's view for indexing and comparison).
inline std::vector<rvm::RangeImage> ListOf(const rvm::TransactionRecord& rec) {
  std::vector<rvm::RangeImage> out;
  for (const rvm::RangeImage& r : rec.ranges) {
    out.push_back(r);
  }
  return out;
}

inline rvm::TransactionRecord Record(rvm::NodeId node, uint64_t commit_seq,
                                     std::vector<rvm::LockRecord> locks,
                                     const std::vector<Range>& ranges) {
  std::vector<rvm::RangeImage> images;
  for (const Range& r : ranges) {
    images.emplace_back(r.region, r.offset, base::ByteSpan(r.data));
  }
  return rvm::MakeTransaction(node, commit_seq, std::move(locks), images);
}

// Just the ranges (node 0, sequence 0, no locks).
inline rvm::TransactionRecord Ranges(const std::vector<Range>& ranges) {
  return Record(0, 0, {}, ranges);
}

// Rewrites `rec` with a copy of `data` as one more range, keeping its node,
// commit_seq and locks as they are now.
inline void AddRange(rvm::TransactionRecord* rec, rvm::RegionId region, uint64_t offset,
                     const std::vector<uint8_t>& data) {
  std::vector<rvm::RangeImage> images = ListOf(*rec);
  images.emplace_back(region, offset, base::ByteSpan(data));
  *rec = rvm::MakeTransaction(rec->node, rec->commit_seq, rec->locks, images);
}

}  // namespace testing_records

#endif  // TESTS_TESTING_RECORDS_H_
