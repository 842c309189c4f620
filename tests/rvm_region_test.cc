// Region mapping edge cases: database files shorter/longer than the mapped
// length, boundary set_ranges, zero-length operations, remapping.
#include <gtest/gtest.h>

#include <cstring>

#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;

TEST(RvmRegion, MapLoadsExistingFileContents) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open(rvm::RegionFileName(kRegion), true));
    ASSERT_TRUE(file->Write(0, base::AsBytes("seeded", 6)).ok());
  }
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  EXPECT_EQ(0, std::memcmp(region->data(), "seeded", 6));
  EXPECT_EQ(4096u, region->size());
  // Bytes past the file's end read as zeros.
  EXPECT_EQ(0, region->data()[100]);
}

TEST(RvmRegion, MapShorterThanFileTakesPrefix) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open(rvm::RegionFileName(kRegion), true));
    std::vector<uint8_t> big(1000, 7);
    ASSERT_TRUE(file->Write(0, base::ByteSpan(big.data(), big.size())).ok());
  }
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 100);
  EXPECT_EQ(100u, region->size());
  EXPECT_EQ(7, region->data()[99]);
}

TEST(RvmRegion, BoundarySetRanges) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 128);
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  // Exactly at the end: legal.
  EXPECT_TRUE(r->SetRange(txn, kRegion, 120, 8).ok());
  // One past: rejected.
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(txn, kRegion, 121, 8).code());
  // Whole region in one range: legal.
  EXPECT_TRUE(r->SetRange(txn, kRegion, 0, 128).ok());
  std::memset(region->data(), 3, 128);
  EXPECT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
}

TEST(RvmRegion, ZeroLengthSetRangeIsHarmless) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  (void)*r->MapRegion(kRegion, 64);
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kRestore);
  EXPECT_TRUE(r->SetRange(txn, kRegion, 10, 0).ok());
  EXPECT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
}

TEST(RvmRegion, RemapAfterUnmapReloadsFromFile) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  // Dirty the image without committing, then unmap: the in-memory edit is
  // discarded (the database file was never updated).
  region->data()[0] = 99;
  ASSERT_TRUE(r->UnmapRegion(kRegion).ok());
  rvm::Region* again = *r->MapRegion(kRegion, 64);
  EXPECT_EQ(0, again->data()[0]);
}

TEST(RvmRegion, SetRangeOnUnmappedRegionFails) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  (void)*r->MapRegion(kRegion, 64);
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->UnmapRegion(kRegion).ok());
  EXPECT_EQ(base::StatusCode::kNotFound, r->SetRange(txn, kRegion, 0, 8).code());
}

// A transaction that declared ranges in a region pins it until it ends:
// unmapping the region under it would leave its commit gathering from (or its
// abort restoring into) an image that is gone.
TEST(RvmRegion, UnmapIsRefusedWhileATransactionHasDeclaredRanges) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->UnmapRegion(kRegion).code());
  EXPECT_EQ(region, r->GetRegion(kRegion));
  std::memset(region->data(), 5, 8);
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  EXPECT_TRUE(r->UnmapRegion(kRegion).ok());
  EXPECT_EQ(nullptr, r->GetRegion(kRegion));
}

TEST(RvmRegion, RestoreAbortUndoesIntoARegionWhoseUnmapWasRefused) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetRange(txn, kRegion, 8, 8).ok());
  region->data()[8] = 9;
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->UnmapRegion(kRegion).code());
  ASSERT_TRUE(r->AbortTransaction(txn).ok());
  EXPECT_EQ(0, region->data()[8]);
  EXPECT_TRUE(r->UnmapRegion(kRegion).ok());
}

// A refused declaration takes no pin, and a region pinned by one transaction
// is still refused after another one that declared there ends.
TEST(RvmRegion, PinsCountOnlyDeclaringTransactions) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  (void)*r->MapRegion(kRegion, 64);
  rvm::TxnId refused = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(refused, kRegion, 60, 8).code());
  rvm::TxnId first = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  rvm::TxnId second = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(first, kRegion, 0, 8).ok());
  ASSERT_TRUE(r->SetRange(second, kRegion, 8, 8).ok());
  ASSERT_TRUE(r->EndTransaction(first, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->UnmapRegion(kRegion).code());
  ASSERT_TRUE(r->EndTransaction(second, rvm::CommitMode::kFlush).ok());
  EXPECT_TRUE(r->UnmapRegion(kRegion).ok());
  // The refused transaction has nothing to undo: a no-restore abort is fine.
  EXPECT_TRUE(r->AbortTransaction(refused).ok());
}

// Through a handle: every error of the id path comes back, the first call in
// a region included.
TEST(RvmRegion, HandleSetRangeReportsEveryError) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  (void)*r->MapRegion(kRegion, 64);
  EXPECT_EQ(base::StatusCode::kFailedPrecondition,
            r->SetRange(rvm::Rvm::TxnHandle(), kRegion, 0, 8).code());
  rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  EXPECT_EQ(base::StatusCode::kNotFound, r->SetRange(txn, kRegion + 1, 0, 8).code());
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(txn, kRegion, UINT64_MAX - 3, 8).code());
  ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
  // Now on the fast path: the bounds check still holds, overflow-safe.
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(txn, kRegion, 57, 8).code());
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(txn, kRegion, UINT64_MAX - 3, 8).code());
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(txn, kRegion, 8, UINT64_MAX).code());
  EXPECT_EQ(base::StatusCode::kNotFound, r->SetRange(txn, kRegion + 1, 0, 8).code());
  ASSERT_TRUE(r->SetRange(txn, kRegion, 56, 8).ok());
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(2u, r->stats().set_range_calls);
  // The id of an ended transaction names none.
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->SetRange(txn.id(), kRegion, 0, 8).code());
}

TEST(RvmRegion, GetRegionReturnsNullWhenUnmapped) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  EXPECT_EQ(nullptr, r->GetRegion(kRegion));
  (void)*r->MapRegion(kRegion, 64);
  EXPECT_NE(nullptr, r->GetRegion(kRegion));
}

}  // namespace
