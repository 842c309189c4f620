// RVM transaction semantics: set_range modes, commit, abort, flush modes,
// lock records, external updates, stats, truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "bench/harness.h"
#include "src/base/rng.h"
#include "src/lbc/wire_format.h"
#include "src/rvm/log_format.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

namespace {

constexpr rvm::RegionId kRegion = 1;

std::unique_ptr<rvm::Rvm> OpenRvm(store::MemStore* store, rvm::NodeId node = 1,
                                  rvm::RvmOptions opts = {}) {
  auto r = rvm::Rvm::Open(store, node, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(*r);
}

TEST(RvmTxn, SetRangeRequiresActiveTransaction) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  ASSERT_TRUE(r->MapRegion(kRegion, 1024).ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->SetRange(99, kRegion, 0, 8).code());
}

TEST(RvmTxn, SetRangeValidatesBounds) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  ASSERT_TRUE(r->MapRegion(kRegion, 1024).ok());
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(t, kRegion, 1020, 8).code());
  EXPECT_EQ(base::StatusCode::kNotFound, r->SetRange(t, 99, 0, 8).code());
  EXPECT_TRUE(r->SetRange(t, kRegion, 1016, 8).ok());
}

TEST(RvmTxn, MapRegionTwiceFails) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  ASSERT_TRUE(r->MapRegion(kRegion, 1024).ok());
  EXPECT_EQ(base::StatusCode::kAlreadyExists, r->MapRegion(kRegion, 1024).status().code());
  ASSERT_TRUE(r->UnmapRegion(kRegion).ok());
  EXPECT_TRUE(r->MapRegion(kRegion, 1024).ok());
}

TEST(RvmTxn, CommitIsDurableAbortIsNot) {
  store::MemStore store;
  {
    auto r = OpenRvm(&store);
    rvm::Region* region = *r->MapRegion(kRegion, 1024);

    rvm::TxnId committed = r->BeginTransaction(rvm::RestoreMode::kRestore);
    ASSERT_TRUE(r->SetRange(committed, kRegion, 0, 4).ok());
    std::memcpy(region->data(), "KEEP", 4);
    ASSERT_TRUE(r->EndTransaction(committed, rvm::CommitMode::kFlush).ok());

    rvm::TxnId aborted = r->BeginTransaction(rvm::RestoreMode::kRestore);
    ASSERT_TRUE(r->SetRange(aborted, kRegion, 8, 4).ok());
    std::memcpy(region->data() + 8, "DROP", 4);
    ASSERT_TRUE(r->AbortTransaction(aborted).ok());
    EXPECT_EQ(0, region->data()[8]);
  }
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r = OpenRvm(&store, 2);
  rvm::Region* region = *r->MapRegion(kRegion, 1024);
  EXPECT_EQ(0, std::memcmp(region->data(), "KEEP", 4));
  EXPECT_EQ(0, region->data()[8]);
}

TEST(RvmTxn, AbortOfNoRestoreWithUpdatesFails) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  ASSERT_TRUE(r->MapRegion(kRegion, 1024).ok());
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 4).ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->AbortTransaction(t).code());
}

TEST(RvmTxn, AbortRestoresOverlappingRangesInOrder) {
  store::MemStore store;
  auto r = OpenRvm(&store, 1, {.coalesce = rvm::CoalesceMode::kFullCoalesce});
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  std::memset(region->data(), 'a', 64);
  // Commit baseline so region file isn't relevant; we test in-memory undo.
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 16).ok());
  std::memset(region->data(), 'b', 16);
  ASSERT_TRUE(r->SetRange(t, kRegion, 8, 16).ok());  // overlaps, snapshots 'b's + 'a's
  std::memset(region->data() + 8, 'c', 16);
  ASSERT_TRUE(r->AbortTransaction(t).ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ('a', region->data()[i]) << i;
  }
}

TEST(RvmTxn, AbortRestoresGrownReRegistration) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  std::memset(region->data(), 'a', 64);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 8).ok());
  std::memset(region->data(), 'b', 8);
  // Same start, longer: bytes 8-15 are new to the transaction.
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 16).ok());
  std::memset(region->data(), 'c', 16);
  ASSERT_TRUE(r->AbortTransaction(t).ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ('a', region->data()[i]) << i;
  }
}

TEST(RvmTxn, NoFlushCommitNeedsExplicitFlush) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 4).ok());
  std::memcpy(region->data(), "LAZY", 4);
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kNoFlush).ok());
  EXPECT_EQ(0u, store.sync_count());
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(1u, store.sync_count());
}

TEST(RvmTxn, ReadOnlyTransactionWritesNoLogRecord) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  ASSERT_TRUE(r->MapRegion(kRegion, 64).ok());
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetLockId(t, 5, 1).ok());
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  auto txns = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  EXPECT_TRUE(txns.empty());
}

TEST(RvmTxn, LockRecordsAppearInLog) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetLockId(t, 17, 4).ok());
  ASSERT_TRUE(r->SetLockId(t, 21, 9).ok());
  ASSERT_TRUE(r->SetLockId(t, 17, 5).ok());  // re-set updates the sequence
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 1).ok());
  region->data()[0] = 1;
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());

  auto txns = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(1u, txns.size());
  ASSERT_EQ(2u, txns[0].locks.size());
  EXPECT_EQ((rvm::LockRecord{17, 5}), txns[0].locks[0]);
  EXPECT_EQ((rvm::LockRecord{21, 9}), txns[0].locks[1]);
}

TEST(RvmTxn, CommitHookSeesIoVectors) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TransactionRecord captured;
  std::vector<uint8_t> captured_bytes;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) {
    captured = rec;
    for (const auto& range : rec.ranges) {
      captured_bytes.insert(captured_bytes.end(), range.data.begin(), range.data.end());
    }
  });
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 4, 4).ok());
  std::memcpy(region->data() + 4, "HOOK", 4);
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  ASSERT_EQ(1u, captured.ranges.size());
  EXPECT_EQ(4u, testing_records::ListOf(captured)[0].offset);
  EXPECT_EQ(0, std::memcmp(captured_bytes.data(), "HOOK", 4));
}

TEST(RvmTxn, ExternalUpdateBypassesLog) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  ASSERT_TRUE(r->ApplyExternalRanges(testing_records::Ranges({{kRegion, 10, {1, 2, 3}}})).ok());
  EXPECT_EQ(2, region->data()[11]);
  auto txns = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  EXPECT_TRUE(txns.empty());
  EXPECT_EQ(base::StatusCode::kOutOfRange,
            r->ApplyExternalRanges(testing_records::Ranges({{kRegion, 62, {1, 2, 3}}})).code());
  EXPECT_EQ(base::StatusCode::kNotFound,
            r->ApplyExternalRanges(testing_records::Ranges({{99, 0, {1, 2, 3}}})).code());
}

TEST(RvmTxn, ExternalRangesApplyValidRangesInOrder) {
  // One record mixing valid ranges with one in an unmapped region and one
  // past the region end: exactly the valid ranges land, in record order
  // (the later write to byte 5 wins), and the first error is reported.
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* one = *r->MapRegion(kRegion, 64);
  rvm::Region* two = *r->MapRegion(2, 32);
  const rvm::TransactionRecord record = testing_records::Ranges({
      {kRegion, 4, {1, 1, 1}},
      {99, 0, {7, 7}},
      {kRegion, 62, {8, 8, 8}},
      {kRegion, 5, {2}},
      {kRegion, UINT64_MAX - 1, {9, 9, 9}},
      {2, 30, {3, 3}},
  });
  EXPECT_EQ(base::StatusCode::kNotFound, r->ApplyExternalRanges(record).code());

  std::vector<uint8_t> want_one(64, 0);
  want_one[4] = 1;
  want_one[5] = 2;
  want_one[6] = 1;
  std::vector<uint8_t> want_two(32, 0);
  want_two[30] = 3;
  want_two[31] = 3;
  EXPECT_EQ(want_one, std::vector<uint8_t>(one->data(), one->data() + one->size()));
  EXPECT_EQ(want_two, std::vector<uint8_t>(two->data(), two->data() + two->size()));
  EXPECT_EQ(3u, r->stats().external_updates_applied);
  EXPECT_EQ(6u, r->stats().external_bytes_applied);

  // The first error wins even when it is not a missing region.
  EXPECT_EQ(base::StatusCode::kOutOfRange,
            r->ApplyExternalRanges(
                 testing_records::Ranges({{kRegion, 63, {1, 1}}, {99, 0, {1}}}))
                .code());
  EXPECT_TRUE(r->ApplyExternalRanges(rvm::TransactionRecord{}).ok());
}

TEST(RvmTxn, SetRangeRejectsWrappingOffset) {
  // offset + len wraps uint64 here; an unguarded check would accept it and
  // the kRestore undo snapshot would read far outside the image.
  for (rvm::RestoreMode mode : {rvm::RestoreMode::kRestore, rvm::RestoreMode::kNoRestore}) {
    store::MemStore store;
    auto r = OpenRvm(&store);
    rvm::Region* region = *r->MapRegion(kRegion, 4096);
    rvm::TxnId t = r->BeginTransaction(mode);
    EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(t, kRegion, UINT64_MAX - 3, 8).code());
    EXPECT_EQ(base::StatusCode::kOutOfRange, r->SetRange(t, kRegion, 8, UINT64_MAX).code());
    // The transaction is still usable.
    ASSERT_TRUE(r->SetRange(t, kRegion, 4088, 8).ok());
    std::memcpy(region->data() + 4088, "LASTWORD", 8);
    ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
    auto txns = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
    ASSERT_EQ(1u, txns.size());
    ASSERT_EQ(1u, txns[0].ranges.size());
    EXPECT_EQ(4088u, testing_records::ListOf(txns[0])[0].offset);
  }
}

TEST(RvmTxn, StatsCountUpdates) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, 8192 * 4);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(r->SetRange(t, kRegion, i * 16, 8).ok());
    std::memset(region->data() + i * 16, i, 8);
  }
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 8).ok());  // redundant
  ASSERT_TRUE(r->SetRange(t, kRegion, 8192 * 3, 8).ok());
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  const rvm::RvmStats s = r->stats();
  EXPECT_EQ(12u, s.set_range_calls);
  EXPECT_EQ(1u, s.set_range_duplicates);
  EXPECT_EQ(11u, s.ranges_logged);
  EXPECT_EQ(11u * 8, s.bytes_logged);
  EXPECT_EQ(2u, s.pages_logged);  // page 0 and page 3
  EXPECT_EQ(1u, s.transactions_committed);
  EXPECT_GT(s.log_bytes_written, s.bytes_logged);
}

TEST(RvmTxn, PagesLoggedNotDoubleCountedAcrossCoalescedSpans) {
  store::MemStore store;
  rvm::RvmOptions opts;
  opts.adaptive_ranges_per_page = 2;
  auto r = OpenRvm(&store, 1, opts);
  ASSERT_TRUE(r->MapRegion(kRegion, 8192 * 3).ok());
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  // Three ranges start in page 0, so the adaptive hybrid collapses them
  // into one span [0, 17000) that extends across pages 1 and 2...
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 8).ok());
  ASSERT_TRUE(r->SetRange(t, kRegion, 16, 8).ok());
  ASSERT_TRUE(r->SetRange(t, kRegion, 24, 16976).ok());
  // ...and this range starts in page 1, which that span already covers.
  // Page-counting that only remembers the previous span's start page would
  // count pages 1 and 2 a second time here.
  ASSERT_TRUE(r->SetRange(t, kRegion, 9000, 8).ok());
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  const rvm::RvmStats s = r->stats();
  EXPECT_EQ(1u, s.adaptive_pages_coalesced);
  EXPECT_EQ(3u, s.pages_logged);  // pages 0..2, each exactly once
}

TEST(RvmTxn, DiskLoggingDisabledStillDrivesHook) {
  store::MemStore store;
  rvm::RvmOptions opts;
  opts.disk_logging = false;
  auto r = OpenRvm(&store, 1, opts);
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  int hook_calls = 0;
  r->SetCommitHook([&](const rvm::TransactionRecord&) { ++hook_calls; });
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 4).ok());
  std::memcpy(region->data(), "NOLG", 4);
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(1, hook_calls);
  EXPECT_EQ(0u, r->stats().log_bytes_written);
  auto size = store.Open(rvm::LogFileName(1), true);
  EXPECT_EQ(0u, *(*size)->Size());
}

TEST(RvmTxn, ReopenContinuesCommitSequence) {
  store::MemStore store;
  {
    auto r = OpenRvm(&store);
    rvm::Region* region = *r->MapRegion(kRegion, 64);
    for (int i = 0; i < 3; ++i) {
      rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
      ASSERT_TRUE(r->SetRange(t, kRegion, 0, 1).ok());
      region->data()[0] = static_cast<uint8_t>(i);
      ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
    }
    EXPECT_EQ(3u, r->commit_seq());
  }
  auto r = OpenRvm(&store);  // same node id, same log
  EXPECT_EQ(3u, r->commit_seq());
  rvm::Region* region = *r->MapRegion(kRegion, 64);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, kRegion, 0, 1).ok());
  region->data()[0] = 9;
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  auto txns = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(4u, txns.size());
  EXPECT_EQ(4u, txns.back().commit_seq);
}

TEST(RvmTxn, MultipleRegionsInOneTransaction) {
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* a = *r->MapRegion(1, 64);
  rvm::Region* b = *r->MapRegion(2, 64);
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(t, 1, 0, 2).ok());
  ASSERT_TRUE(r->SetRange(t, 2, 8, 2).ok());
  std::memcpy(a->data(), "AA", 2);
  std::memcpy(b->data() + 8, "BB", 2);
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  auto txns = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(1u, txns.size());
  ASSERT_EQ(2u, txns[0].ranges.size());
  EXPECT_EQ(1u, testing_records::ListOf(txns[0])[0].region);
  EXPECT_EQ(2u, testing_records::ListOf(txns[0])[1].region);
}

// The OO7 T2-B declaration sequence (43 740 eight-byte set_range calls over
// the paper-scale database, revisiting ranges out of address order) commits
// to the record that encodes the reference write set: each distinct offset
// once, with its largest length, in address order — in the log and on the
// wire.
TEST(RvmTxn, Oo7T2BRecordEncodesReferenceSet) {
  const oo7::Config config;
  const uint64_t size = oo7::Database::RequiredSize(config);
  store::MemStore store;
  auto r = OpenRvm(&store);
  rvm::Region* region = *r->MapRegion(kRegion, size);
  ASSERT_TRUE(oo7::Database::Build(region->data(), size, config).ok());
  bench::RecordingSink recorder;
  ASSERT_TRUE(oo7::RunT2(oo7::Database(region->data()), recorder, oo7::Variant::kB).status.ok());
  ASSERT_EQ(43740u, recorder.ranges().size());

  std::map<uint64_t, uint64_t> reference;
  for (const auto& [offset, len] : recorder.ranges()) {
    uint64_t& max_len = reference[offset];
    max_len = std::max(max_len, len);
  }
  ASSERT_LT(reference.size(), recorder.ranges().size());
  std::vector<rvm::RangeImage> images;
  for (const auto& [offset, len] : reference) {
    images.emplace_back(kRegion, offset, base::ByteSpan(region->data() + offset, len));
  }
  // A payload of its own, independent of the image.
  const rvm::TransactionRecord expected = rvm::MakeTransaction(1, 1, {}, images);

  std::vector<uint8_t> log_record;
  std::vector<uint8_t> wire_update;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) {
    log_record.assign(rec.bytes.begin(), rec.bytes.end());
    wire_update = lbc::EncodeUpdateRecord(rec, /*compress_headers=*/true);
  });
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (const auto& [offset, len] : recorder.ranges()) {
    ASSERT_TRUE(r->SetRange(t, kRegion, offset, len).ok());
  }
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
  EXPECT_TRUE(log_record == rvm::EncodeTransaction(expected));
  EXPECT_TRUE(wire_update == lbc::EncodeUpdateRecord(expected, /*compress_headers=*/true));
  auto logged = *rvm::ReadLogTransactions(&store, rvm::LogFileName(1));
  ASSERT_EQ(1u, logged.size());
  EXPECT_TRUE(logged[0] == expected);
}

// Property: a random sequence of committed transactions replays to exactly
// the in-memory image, regardless of where the crash cuts unsynced state.
class RvmRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RvmRecoveryPropertyTest, ReplayEqualsCommittedImage) {
  base::Rng rng(GetParam());
  store::MemStore store;
  std::vector<uint8_t> expected(512, 0);
  {
    auto r = OpenRvm(&store);
    rvm::Region* region = *r->MapRegion(kRegion, 512);
    for (int txn_i = 0; txn_i < 20; ++txn_i) {
      rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kRestore);
      int ops = 1 + static_cast<int>(rng.Uniform(5));
      std::vector<std::pair<uint64_t, std::vector<uint8_t>>> writes;
      for (int op = 0; op < ops; ++op) {
        uint64_t off = rng.Uniform(500);
        uint64_t len = 1 + rng.Uniform(12);
        ASSERT_TRUE(r->SetRange(t, kRegion, off, len).ok());
        std::vector<uint8_t> bytes(len);
        for (auto& x : bytes) {
          x = static_cast<uint8_t>(rng.Next());
        }
        std::memcpy(region->data() + off, bytes.data(), len);
        writes.emplace_back(off, std::move(bytes));
      }
      bool commit = rng.Chance(3, 4);
      if (commit) {
        ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());
        for (auto& [off, bytes] : writes) {
          std::memcpy(expected.data() + off, bytes.data(), bytes.size());
        }
      } else {
        ASSERT_TRUE(r->AbortTransaction(t).ok());
      }
    }
  }
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r = OpenRvm(&store, 2);
  rvm::Region* region = *r->MapRegion(kRegion, 512);
  EXPECT_EQ(0, std::memcmp(region->data(), expected.data(), expected.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RvmRecoveryPropertyTest, ::testing::Range<uint64_t>(0, 12));

}  // namespace
