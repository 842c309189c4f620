// Builds rvm::TransactionRecords from byte literals for tests. A record's
// ranges view the Buffer it holds, so a test cannot point them at
// temporaries; these helpers copy the given bytes into that Buffer once.
#ifndef TESTS_TESTING_RECORDS_H_
#define TESTS_TESTING_RECORDS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/rvm/types.h"

namespace testing_records {

// One range with the bytes it carries.
struct Range {
  rvm::RegionId region = 0;
  uint64_t offset = 0;
  std::vector<uint8_t> data;
};

inline rvm::TransactionRecord Record(rvm::NodeId node, uint64_t commit_seq,
                                     std::vector<rvm::LockRecord> locks,
                                     const std::vector<Range>& ranges) {
  rvm::TransactionRecord borrowed;
  borrowed.node = node;
  borrowed.commit_seq = commit_seq;
  borrowed.locks = std::move(locks);
  for (const Range& r : ranges) {
    borrowed.ranges.push_back(rvm::RangeImage{r.region, r.offset, r.data});
  }
  return borrowed.Own();
}

// Just the ranges (node 0, sequence 0, no locks).
inline rvm::TransactionRecord Ranges(const std::vector<Range>& ranges) {
  return Record(0, 0, {}, ranges);
}

// Appends a copy of `data` as one more range of `rec`.
inline void AddRange(rvm::TransactionRecord* rec, rvm::RegionId region, uint64_t offset,
                     const std::vector<uint8_t>& data) {
  rvm::TransactionRecord grown = *rec;
  grown.bytes = base::Buffer();
  grown.ranges.push_back(rvm::RangeImage{region, offset, data});
  *rec = grown.Own();
}

}  // namespace testing_records

#endif  // TESTS_TESTING_RECORDS_H_
