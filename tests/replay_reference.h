// Reference database files for replay tests, computed straight from
// MergeLogs output instead of through the replay engine the tests check:
// each region's pre-image with every merged redo range copied over it in
// order, and the checksum sidecar RewriteRegionChecksums lays out for it.
#ifndef TESTS_REPLAY_REFERENCE_H_
#define TESTS_REPLAY_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"
#include "src/store/mem_store.h"

namespace replay_reference {

// File name -> bytes.
using Files = std::map<std::string, std::vector<uint8_t>>;

inline std::vector<uint8_t> ReadWholeFile(store::DurableStore* store, const std::string& name) {
  auto file = store->Open(name, /*create=*/false);
  EXPECT_TRUE(file.ok()) << name << ": " << file.status().ToString();
  if (!file.ok()) {
    return {};
  }
  std::vector<uint8_t> bytes(*(*file)->Size());
  if (!bytes.empty()) {
    EXPECT_TRUE((*file)->ReadExact(0, bytes.data(), bytes.size()).ok()) << name;
  }
  return bytes;
}

// The current bytes of each of `regions`' database files that exists: the
// pre-images a replay starts from.
inline std::map<rvm::RegionId, std::vector<uint8_t>> CurrentImages(
    store::DurableStore* store, const std::vector<rvm::RegionId>& regions) {
  std::map<rvm::RegionId, std::vector<uint8_t>> images;
  for (rvm::RegionId region : regions) {
    if (*store->Exists(rvm::RegionFileName(region))) {
      images[region] = ReadWholeFile(store, rvm::RegionFileName(region));
    }
  }
  return images;
}

// The first `len` bytes of `image`, zero-filled past its end (a region file
// shorter than its mapping reads as zeros).
inline std::vector<uint8_t> Prefix(std::vector<uint8_t> image, size_t len) {
  image.resize(len, 0);
  return image;
}

// The region images a replay of `logs` (missing ones read as empty) over
// `preimages` must produce: every merged range copied over its region's
// image in merged order. A replay writes whole pages, so each image is
// grown to the end of the last page a range touched.
inline std::map<rvm::RegionId, std::vector<uint8_t>> ReferenceImages(
    store::DurableStore* store, const std::vector<std::string>& logs,
    std::map<rvm::RegionId, std::vector<uint8_t>> preimages = {}) {
  std::vector<std::string> present;
  for (const std::string& name : logs) {
    if (*store->Exists(name)) {
      present.push_back(name);
    }
  }
  std::map<rvm::RegionId, std::vector<uint8_t>> images = std::move(preimages);
  if (present.empty()) {
    return images;
  }
  auto merged = rvm::MergeLogs(store, present);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) {
    return images;
  }
  for (const rvm::TransactionRecord& txn : *merged) {
    for (const rvm::RangeImage& range : txn.ranges) {
      if (range.data.empty()) {
        continue;
      }
      std::vector<uint8_t>& image = images[range.region];
      const uint64_t end = range.offset + range.data.size();
      const uint64_t page_end = (end + rvm::kDbPageSize - 1) / rvm::kDbPageSize * rvm::kDbPageSize;
      image.resize(std::max<uint64_t>(image.size(), page_end), 0);
      std::memcpy(image.data() + range.offset, range.data.data(), range.data.size());
    }
  }
  return images;
}

// The sidecar bytes of a region file holding `image`, every page certified.
inline std::vector<uint8_t> ReferenceSidecar(rvm::RegionId region,
                                             const std::vector<uint8_t>& image) {
  store::MemStore scratch;
  auto file = scratch.Open(rvm::RegionFileName(region), /*create=*/true);
  EXPECT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Write(0, base::ByteSpan(image.data(), image.size())).ok());
  EXPECT_TRUE(rvm::RewriteRegionChecksums(&scratch, region).ok());
  return ReadWholeFile(&scratch, rvm::ChecksumFileName(region));
}

// Region files and sidecars for ReferenceImages(store, logs, preimages).
inline Files ReferenceFiles(store::DurableStore* store, const std::vector<std::string>& logs,
                            std::map<rvm::RegionId, std::vector<uint8_t>> preimages = {}) {
  Files files;
  for (auto& [region, image] : ReferenceImages(store, logs, std::move(preimages))) {
    files[rvm::ChecksumFileName(region)] = ReferenceSidecar(region, image);
    files[rvm::RegionFileName(region)] = std::move(image);
  }
  return files;
}

// Expects every file in `want` to hold exactly those bytes in `store`.
inline void ExpectFiles(store::DurableStore* store, const Files& want) {
  for (const auto& [name, bytes] : want) {
    EXPECT_EQ(bytes, ReadWholeFile(store, name)) << name;
  }
}

}  // namespace replay_reference

#endif  // TESTS_REPLAY_REFERENCE_H_
