// Adversarial-bytes tests for the untrusted decoders, pinning every find
// from the fuzzing campaign at the decoder level (the byte-exact inputs are
// also checked in under fuzz/crashes/ and replayed by fuzz_regression_test):
// truncation at every boundary, maximal length fields, dual encodings,
// wrapping arithmetic, trailing bytes, and zero-size edge cases.
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/buffer.h"
#include "src/lbc/wire_format.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

namespace {

using base::ByteSpan;

rvm::TransactionRecord SampleTxn() {
  return testing_records::Record(3, 9, {{7, 1}, {500, 2}},
                                 {{1, 4096, {0xAA, 0xBB, 0xCC, 0xDD, 0xEE}}});
}

// --- DecodeTransaction -------------------------------------------------------

TEST(AdversarialTransaction, TruncationAtEveryBoundaryRejects) {
  std::vector<uint8_t> full = rvm::EncodeTransaction(SampleTxn());
  rvm::TransactionRecord out;
  ASSERT_TRUE(rvm::DecodeTransaction(base::Buffer(full), &out).ok());
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer::Copy(ByteSpan(full.data(), len)), &out).ok())
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(AdversarialTransaction, MaximalCountFieldsReject) {
  // A huge n_locks / n_ranges must be rejected from the count alone —
  // before any allocation sized by it.
  for (uint64_t huge : {uint64_t{1} << 20, uint64_t{1} << 40, UINT64_MAX}) {
    {
      base::Writer w;
      w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
      w.WriteVarint(0);     // node
      w.WriteVarint(1);     // commit_seq
      w.WriteVarint(huge);  // n_locks
      std::vector<uint8_t> bytes = w.TakeBytes();
      rvm::TransactionRecord out;
      EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer(bytes), &out).ok());
    }
    {
      base::Writer w;
      w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
      w.WriteVarint(0);
      w.WriteVarint(1);
      w.WriteVarint(0);     // n_locks
      w.WriteVarint(huge);  // n_ranges
      std::vector<uint8_t> bytes = w.TakeBytes();
      rvm::TransactionRecord out;
      EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer(bytes), &out).ok());
    }
  }
}

TEST(AdversarialTransaction, MaximalRangeLengthRejects) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
  w.WriteVarint(0);
  w.WriteVarint(1);
  w.WriteVarint(0);           // n_locks
  w.WriteVarint(1);           // n_ranges
  w.WriteU8(0);               // absolute
  w.WriteVarint(1);           // region
  w.WriteVarint(0);           // offset
  w.WriteVarint(UINT64_MAX);  // len, far beyond the payload
  w.WriteU8(0x00);
  std::vector<uint8_t> bytes = w.TakeBytes();
  rvm::TransactionRecord out;
  EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer(bytes), &out).ok());
}

TEST(AdversarialTransaction, NonMinimalVarintRejects) {
  // 0x80 0x00 is a second spelling of node id 0: accepting it would break
  // byte-level dedup and re-encode identity (fuzz find, pinned).
  std::vector<uint8_t> canonical = rvm::EncodeTransaction(rvm::MakeTransaction(0, 0, {}, {}));
  std::vector<uint8_t> loose = {canonical[0], 0x80, 0x00};
  loose.insert(loose.end(), canonical.begin() + 2, canonical.end());
  rvm::TransactionRecord out;
  ASSERT_TRUE(rvm::DecodeTransaction(base::Buffer(canonical), &out).ok());
  EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer(loose), &out).ok());
}

TEST(AdversarialTransaction, NodeIdAboveU32Rejects) {
  // NodeId is uint32; a wider varint used to truncate silently through
  // static_cast, mis-attributing the record to another node (fuzz find).
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
  w.WriteVarint(uint64_t{1} << 40);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  std::vector<uint8_t> bytes = w.TakeBytes();
  rvm::TransactionRecord out;
  EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer(bytes), &out).ok());
}

TEST(AdversarialTransaction, RangeEndWrappingU64Rejects) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
  w.WriteVarint(0);
  w.WriteVarint(1);
  w.WriteVarint(0);           // n_locks
  w.WriteVarint(1);           // n_ranges
  w.WriteU8(0);               // absolute
  w.WriteVarint(1);           // region
  w.WriteVarint(UINT64_MAX);  // offset
  w.WriteVarint(1);           // len: end wraps to 0
  w.WriteU8(0xAA);
  std::vector<uint8_t> bytes = w.TakeBytes();
  rvm::TransactionRecord out;
  EXPECT_FALSE(rvm::DecodeTransaction(base::Buffer(bytes), &out).ok());
}

TEST(AdversarialTransaction, ZeroEverythingRoundTrips) {
  // The all-zero-counts record is valid and one-spelling canonical.
  const rvm::TransactionRecord empty = rvm::MakeTransaction(0, 0, {}, {});
  std::vector<uint8_t> bytes = rvm::EncodeTransaction(empty);
  rvm::TransactionRecord out;
  ASSERT_TRUE(rvm::DecodeTransaction(base::Buffer(bytes), &out).ok());
  EXPECT_EQ(out, empty);
  EXPECT_EQ(rvm::EncodeTransaction(out), bytes);
}

TEST(AdversarialTransaction, RetiredAbsoluteAddressLayoutIsDataLoss) {
  // The layout before the compressed range headers: kind 1, then ranges as
  // (region, absolute offset, len). Read under the new spelling its region
  // would pass for a tag, so the kind alone must reject it.
  base::Writer w;
  w.WriteU8(1);
  w.WriteVarint(0);  // node
  w.WriteVarint(1);  // commit_seq
  w.WriteVarint(0);  // n_locks
  w.WriteVarint(1);  // n_ranges
  w.WriteVarint(1);  // region
  w.WriteVarint(4096);
  w.WriteVarint(1);
  w.WriteU8(0xAA);
  std::vector<uint8_t> bytes = w.TakeBytes();
  rvm::TransactionRecord out;
  EXPECT_EQ(base::StatusCode::kDataLoss,
            rvm::DecodeTransaction(base::Buffer(bytes), &out).code());
  EXPECT_EQ(base::StatusCode::kDataLoss,
            rvm::PeekKind(ByteSpan(bytes.data(), bytes.size())).status().code());
}

TEST(AdversarialRecovery, CheckpointWithTrailingBytesRejects) {
  // A checkpoint record CLEARS the recovered prefix; the scan used to accept
  // one with trailing garbage, so a forged frame could silently truncate
  // recovery (fuzz find).
  store::MemStore store;
  auto file = store.Open("log_0.rvm", /*create=*/true);
  ASSERT_TRUE(file.ok());
  rvm::LogWriter writer(std::move(*file));
  std::vector<uint8_t> txn = rvm::EncodeTransaction(SampleTxn());
  ASSERT_TRUE(writer.Append(ByteSpan(txn.data(), txn.size()), false).ok());
  std::vector<uint8_t> loose_cp = {static_cast<uint8_t>(rvm::LogRecordKind::kCheckpoint),
                                   0xFF};
  ASSERT_TRUE(writer.Append(ByteSpan(loose_cp.data(), loose_cp.size()), false).ok());
  auto txns = rvm::ReadLogTransactions(&store, "log_0.rvm");
  EXPECT_FALSE(txns.ok());
}

// --- wire update -------------------------------------------------------------

TEST(AdversarialUpdate, TruncationAtEveryBoundaryRejects) {
  for (bool compress : {false, true}) {
    std::vector<uint8_t> full = lbc::EncodeUpdateRecord(SampleTxn(), compress);
    rvm::TransactionRecord out;
    ASSERT_TRUE(lbc::DecodeUpdate(ByteSpan(full.data(), full.size()), &out).ok());
    for (size_t len = 0; len < full.size(); ++len) {
      EXPECT_FALSE(lbc::DecodeUpdate(ByteSpan(full.data(), len), &out).ok())
          << (compress ? "compressed" : "uncompressed") << " prefix of " << len
          << " bytes accepted";
    }
  }
}

TEST(AdversarialUpdate, BadCompressionFlagRejects) {
  std::vector<uint8_t> bytes = lbc::EncodeUpdateRecord(SampleTxn(), true);
  bytes[1] = 0x37;  // flag must be exactly 0 or 1 (fuzz find)
  rvm::TransactionRecord out;
  EXPECT_FALSE(lbc::DecodeUpdate(ByteSpan(bytes.data(), bytes.size()), &out).ok());
}

TEST(AdversarialUpdate, NonzeroReservedPaddingRejects) {
  const rvm::TransactionRecord txn =
      testing_records::Record(0, 1, {}, {{1, 0, {0x11, 0x22, 0x33, 0x44}}});
  std::vector<uint8_t> bytes = lbc::EncodeUpdateRecord(txn, false);
  rvm::TransactionRecord out;
  ASSERT_TRUE(lbc::DecodeUpdate(ByteSpan(bytes.data(), bytes.size()), &out).ok());
  // Byte 7+21 is the first reserved-padding byte of the emulated RVM header
  // (seven one-byte header fields precede the range); the decoder used to
  // Skip() it unread — 83 bytes a forgery could ride in while re-encode
  // comparison saw nothing (fuzz find).
  bytes[7 + 21] = 0x42;
  EXPECT_FALSE(lbc::DecodeUpdate(ByteSpan(bytes.data(), bytes.size()), &out).ok());
}

// The delta rules live in the transaction payload, which a compressed
// update carries as it is: each forgery below is built as a log payload and
// must be rejected by the transaction decoder and, wrapped in an update
// message, by the update decoder, while the same payload with the one rule
// kept decodes through both.

// A compressed update message around `payload`.
std::vector<uint8_t> UpdateAround(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> message = {static_cast<uint8_t>(lbc::MsgType::kUpdate), 1, 0};
  message.insert(message.end(), payload.begin(), payload.end());
  return message;
}

// Decodes `payload` alone and inside an update message; both must agree.
bool PayloadAccepted(const std::vector<uint8_t>& payload) {
  rvm::TransactionRecord out;
  const bool log_ok = rvm::DecodeTransaction(base::Buffer(payload), &out).ok();
  const std::vector<uint8_t> message = UpdateAround(payload);
  const bool wire_ok =
      lbc::DecodeUpdate(ByteSpan(message.data(), message.size()), &out).ok();
  EXPECT_EQ(log_ok, wire_ok);
  return log_ok && wire_ok;
}

// A payload with no locks and two empty ranges in region 1: the first
// absolute at `first`, the second spelled with `tag` and `address`.
std::vector<uint8_t> TwoRangePayload(uint64_t first, uint8_t tag, uint64_t address) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
  w.WriteVarint(0);  // node
  w.WriteVarint(1);  // commit_seq
  w.WriteVarint(0);  // n_locks
  w.WriteVarint(2);  // n_ranges
  w.WriteU8(0);      // absolute
  w.WriteVarint(1);
  w.WriteVarint(first);
  w.WriteVarint(0);  // len
  w.WriteU8(tag);
  w.WriteVarint(1);
  w.WriteVarint(address);
  w.WriteVarint(0);
  return w.TakeBytes();
}

TEST(AdversarialUpdate, DeltaOffsetWrappingU64Rejects) {
  // A delta of 2 from UINT64_MAX - 2 stays in range; 100 wraps (fuzz find).
  EXPECT_TRUE(PayloadAccepted(TwoRangePayload(UINT64_MAX - 2, rvm::kRangeDelta, 2)));
  EXPECT_FALSE(PayloadAccepted(TwoRangePayload(UINT64_MAX - 2, rvm::kRangeDelta, 100)));
}

TEST(AdversarialUpdate, DeltaWithNoPredecessorRejects) {
  auto one_range = [](uint8_t tag) {
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
    w.WriteVarint(0);
    w.WriteVarint(1);
    w.WriteVarint(0);  // n_locks
    w.WriteVarint(1);  // n_ranges
    w.WriteU8(tag);    // on the FIRST range
    w.WriteVarint(1);
    w.WriteVarint(5);
    w.WriteVarint(0);
    return w.TakeBytes();
  };
  EXPECT_TRUE(PayloadAccepted(one_range(0)));
  EXPECT_FALSE(PayloadAccepted(one_range(rvm::kRangeDelta)));
}

TEST(AdversarialUpdate, AbsoluteAddressWhereEncoderEmitsDeltaRejects) {
  // Two spellings of the same range list would defeat byte-level dedup; the
  // decoder requires the delta form exactly when the encoder would emit it.
  // The second range's gap, 100, is below kNearRangeBound: the encoder
  // uses a delta.
  const rvm::TransactionRecord txn =
      testing_records::Record(0, 1, {}, {{1, 100, {}}, {1, 200, {}}});
  const std::vector<uint8_t> canonical = TwoRangePayload(100, rvm::kRangeDelta, 100);
  EXPECT_EQ(rvm::EncodeTransaction(txn), canonical);
  EXPECT_TRUE(PayloadAccepted(canonical));
  EXPECT_FALSE(PayloadAccepted(TwoRangePayload(100, 0, 200)));
  // Past the bound the absolute spelling is the only one.
  EXPECT_TRUE(PayloadAccepted(TwoRangePayload(100, 0, 100 + rvm::kNearRangeBound)));
  EXPECT_FALSE(PayloadAccepted(
      TwoRangePayload(100, rvm::kRangeDelta, rvm::kNearRangeBound)));
}

// --- lock messages -----------------------------------------------------------

// The durable watermark (a varint after commit_seq) is cut inside its bytes
// or overflows 64 bits: both reject, and the decoder reads nothing past the
// message.
TEST(AdversarialUpdate, TruncatedWatermarkRejects) {
  // 1'000'000 takes three varint bytes: cut after each of the first two.
  std::vector<uint8_t> full = lbc::EncodeUpdateRecord(SampleTxn(), true, 1'000'000);
  uint64_t watermark = 0;
  rvm::TransactionRecord out;
  ASSERT_TRUE(lbc::DecodeUpdate(ByteSpan(full.data(), full.size()), &out, &watermark).ok());
  EXPECT_EQ(1'000'000u, watermark);
  // type, flag: the watermark starts at byte 2.
  for (size_t len : {size_t{3}, size_t{4}}) {
    EXPECT_FALSE(lbc::DecodeUpdate(ByteSpan(full.data(), len), &out).ok())
        << "cut inside the watermark at " << len << " bytes accepted";
  }
}

TEST(AdversarialUpdate, OverflowingWatermarkRejects) {
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(lbc::MsgType::kUpdate));
  w.WriteU8(1);  // compressed
  for (int i = 0; i < 9; ++i) {
    w.WriteU8(0xFF);  // 63 value bits so far, continuation set
  }
  w.WriteU8(0x7F);  // a tenth byte with bits past 2^64
  const std::vector<uint8_t> payload = rvm::EncodeTransaction(SampleTxn());
  w.WriteBytes(ByteSpan(payload.data(), payload.size()));
  std::vector<uint8_t> bytes = w.TakeBytes();
  rvm::TransactionRecord out;
  EXPECT_FALSE(lbc::DecodeUpdate(ByteSpan(bytes.data(), bytes.size()), &out).ok());
}

TEST(AdversarialLockMessages, TokenWatermarkTruncatedOrOverflowingRejects) {
  const lbc::LockTokenMsg token{
      .lock = 1, .token_seq = 2, .epoch = 0, .holder = 4, .durable_seq = 1'000'000};
  std::vector<uint8_t> full = lbc::EncodeLockToken(token, true);
  lbc::LockTokenMsg out;
  ASSERT_TRUE(lbc::DecodeLockToken(base::Buffer(full), &out).ok());
  EXPECT_EQ(token, out);
  // type, lock, token_seq, epoch, holder: the watermark starts at byte 5.
  for (size_t len : {size_t{5}, size_t{6}, size_t{7}}) {
    std::vector<uint8_t> cut(full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(lbc::DecodeLockToken(base::Buffer(cut), &out).ok())
        << "cut at " << len << " bytes accepted";
  }
  base::Writer w;
  w.WriteU8(static_cast<uint8_t>(lbc::MsgType::kLockToken));
  w.WriteVarint(1);  // lock
  w.WriteVarint(2);  // token_seq
  w.WriteVarint(0);  // epoch
  w.WriteVarint(4);  // holder
  for (int i = 0; i < 9; ++i) {
    w.WriteU8(0xFF);
  }
  w.WriteU8(0x7F);   // watermark past 2^64
  w.WriteVarint(0);  // no piggyback
  EXPECT_FALSE(lbc::DecodeLockToken(base::Buffer(w.TakeBytes()), &out).ok());
}

TEST(AdversarialLockMessages, TrailingBytesReject) {
  // Every lock decoder used to ignore unconsumed bytes (fuzz find).
  {
    std::vector<uint8_t> b = lbc::EncodeLockRequest({.lock = 1, .requester = 2});
    b.push_back(0);
    lbc::LockRequestMsg out;
    EXPECT_FALSE(lbc::DecodeLockRequest(ByteSpan(b.data(), b.size()), &out).ok());
  }
  {
    std::vector<uint8_t> b = lbc::EncodeLockForward({.lock = 1, .requester = 2});
    b.push_back(0);
    lbc::LockForwardMsg out;
    EXPECT_FALSE(lbc::DecodeLockForward(ByteSpan(b.data(), b.size()), &out).ok());
  }
  {
    std::vector<uint8_t> b = lbc::EncodeLockRevoke({.lock = 1, .epoch = 2, .manager = 0});
    b.push_back(0);
    lbc::LockRevokeMsg out;
    EXPECT_FALSE(lbc::DecodeLockRevoke(ByteSpan(b.data(), b.size()), &out).ok());
  }
  {
    std::vector<uint8_t> b = lbc::EncodeLockRevokeReply({.lock = 1, .epoch = 2, .node = 3});
    b.push_back(0);
    lbc::LockRevokeReplyMsg out;
    EXPECT_FALSE(lbc::DecodeLockRevokeReply(ByteSpan(b.data(), b.size()), &out).ok());
  }
  {
    std::vector<uint8_t> b = lbc::EncodeLockToken({.lock = 1, .token_seq = 2}, true);
    b.push_back(0);
    lbc::LockTokenMsg out;
    EXPECT_FALSE(lbc::DecodeLockToken(base::Buffer(b), &out).ok());
  }
}

TEST(AdversarialLockMessages, UndefinedRevokeReplyFlagBitRejects) {
  std::vector<uint8_t> b = lbc::EncodeLockRevokeReply(
      {.lock = 1, .epoch = 1, .node = 1, .holding = false, .had_token = true,
       .token_seq = 1, .applied_seq = 1});
  b[b.size() - 3] |= 0x80;  // flags byte holds only bits 0 and 1
  lbc::LockRevokeReplyMsg out;
  EXPECT_FALSE(lbc::DecodeLockRevokeReply(ByteSpan(b.data(), b.size()), &out).ok());
}

// --- checksum sidecar --------------------------------------------------------

class AdversarialSidecar : public ::testing::Test {
 protected:
  // Writes raw bytes as region 1's sidecar (and an empty database file).
  void WriteSidecarBytes(const std::vector<uint8_t>& bytes) {
    auto db = store_.Open(rvm::RegionFileName(1), /*create=*/true);
    ASSERT_TRUE(db.ok());
    auto sc = store_.Open(rvm::ChecksumFileName(1), /*create=*/true);
    ASSERT_TRUE(sc.ok());
    // Truncate first: callers re-write the same file with shorter images.
    ASSERT_TRUE((*sc)->Truncate(0).ok());
    ASSERT_TRUE((*sc)->Write(0, ByteSpan(bytes.data(), bytes.size())).ok());
  }

  store::MemStore store_;
};

TEST_F(AdversarialSidecar, TruncationAtEveryHeaderBoundaryIsVacuous) {
  // A sidecar shorter than its 16-byte header (any tear point) must degrade
  // to "no believable entries" — never a crash, never a wrong verdict.
  std::vector<uint8_t> header = {0x52, 0x56, 0x53, 0x4D,  // magic "RVSM"
                                 0x01, 0x00, 0x00, 0x00,  // version
                                 0x00, 0x20, 0x00, 0x00,  // page size 8192
                                 0x00, 0x00, 0x00, 0x00};
  for (size_t len = 0; len <= header.size(); ++len) {
    WriteSidecarBytes(std::vector<uint8_t>(header.begin(), header.begin() + len));
    auto sidecar = rvm::ChecksumSidecar::Open(&store_, 1, /*create=*/false);
    ASSERT_TRUE(sidecar.ok()) << "tear at " << len;
    auto entry = (*sidecar)->ReadEntry(0);
    ASSERT_TRUE(entry.ok()) << "tear at " << len;
    // Only the full, valid header may carry entries — and byte-for-byte
    // prefix tears have none anyway (no entry bytes present).
    EXPECT_FALSE(entry->has_value()) << "tear at " << len;
  }
}

TEST_F(AdversarialSidecar, EntryOffsetOverflowReadsAsNoEntry) {
  // page * 8 + 16 used to wrap uint64 for huge page indices and alias a low
  // entry — a wrong verdict from pure arithmetic (fuzz find).
  std::vector<uint8_t> db(rvm::kDbPageSize, 0x5A);
  {
    auto file = store_.Open(rvm::RegionFileName(1), /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(0, ByteSpan(db.data(), db.size())).ok());
  }
  ASSERT_TRUE(rvm::RewriteRegionChecksums(&store_, 1).ok());
  auto sidecar = rvm::ChecksumSidecar::Open(&store_, 1, /*create=*/false);
  ASSERT_TRUE(sidecar.ok());
  auto low = (*sidecar)->ReadEntry(0);
  ASSERT_TRUE(low.ok());
  EXPECT_TRUE(low->has_value());
  for (uint64_t page : {UINT64_MAX / rvm::kChecksumEntrySize,
                        UINT64_MAX / rvm::kChecksumEntrySize + 1, UINT64_MAX}) {
    auto entry = (*sidecar)->ReadEntry(page);
    ASSERT_TRUE(entry.ok());
    EXPECT_FALSE(entry->has_value()) << "page " << page << " aliased a low entry";
  }
}

TEST_F(AdversarialSidecar, ZeroPageDatabaseVerifiesClean) {
  auto db = store_.Open(rvm::RegionFileName(1), /*create=*/true);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(rvm::RewriteRegionChecksums(&store_, 1).ok());
  auto bad = rvm::VerifyImagePages(&store_, 1, nullptr, 0, 0);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->empty());
}

TEST_F(AdversarialSidecar, GarbageEntriesDegradeToUnverified) {
  // Garbage entry bytes fail the per-entry guard and read as "no entry":
  // verification passes vacuously rather than flagging healthy data.
  std::vector<uint8_t> bytes = {0x52, 0x56, 0x53, 0x4D, 0x01, 0x00, 0x00, 0x00,
                                0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  for (int i = 0; i < 16; ++i) {
    bytes.push_back(static_cast<uint8_t>(0xC3 + i));
  }
  WriteSidecarBytes(bytes);
  std::vector<uint8_t> db(2 * rvm::kDbPageSize, 0x77);
  {
    auto file = store_.Open(rvm::RegionFileName(1), /*create=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(0, ByteSpan(db.data(), db.size())).ok());
  }
  auto bad = rvm::VerifyImagePages(&store_, 1, db.data(), db.size(), db.size());
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->empty());
}

TEST_F(AdversarialSidecar, RangedReadAgreesWithEntryReadsAtEveryTruncation) {
  // A valid sidecar for four pages, with entry 2 rotten, torn at every byte.
  // The one-read ranged entry read must give each page exactly the verdict
  // a single-entry read gives: rotten, short and guard-failing entries (and
  // everything behind a torn header) read as "no entry".
  std::vector<uint8_t> db(4 * rvm::kDbPageSize);
  for (size_t i = 0; i < db.size(); ++i) {
    db[i] = static_cast<uint8_t>(i * 7);
  }
  {
    auto file = store_.Open(rvm::RegionFileName(1), /*create=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(0, ByteSpan(db.data(), db.size())).ok());
  }
  ASSERT_TRUE(rvm::RewriteRegionChecksums(&store_, 1).ok());
  std::vector<uint8_t> full;
  {
    auto sc = store_.Open(rvm::ChecksumFileName(1), /*create=*/false);
    ASSERT_TRUE(sc.ok());
    full.resize(*(*sc)->Size());
    ASSERT_TRUE((*sc)->ReadExact(0, full.data(), full.size()).ok());
  }
  ASSERT_EQ(rvm::kChecksumHeaderSize + 4 * rvm::kChecksumEntrySize, full.size());
  full[rvm::kChecksumHeaderSize + 2 * rvm::kChecksumEntrySize + 1] ^= 0x10;

  for (size_t len = 0; len <= full.size(); ++len) {
    WriteSidecarBytes(std::vector<uint8_t>(full.begin(), full.begin() + len));
    auto ranged = rvm::ChecksumSidecar::Open(&store_, 1, /*create=*/false);
    ASSERT_TRUE(ranged.ok()) << "tear at " << len;
    // Pages 0..5: four real entries and two past the end of the file.
    auto entries = (*ranged)->ReadEntries(0, 6);
    ASSERT_TRUE(entries.ok()) << "tear at " << len;
    ASSERT_EQ(6u, entries->size());
    for (uint64_t page = 0; page < 6; ++page) {
      auto single = rvm::ChecksumSidecar::Open(&store_, 1, /*create=*/false);
      ASSERT_TRUE(single.ok());
      auto entry = (*single)->ReadEntry(page);
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(*entry, (*entries)[page]) << "tear at " << len << ", page " << page;
      const bool whole = len >= rvm::kChecksumHeaderSize + (page + 1) * rvm::kChecksumEntrySize;
      EXPECT_EQ(whole && page != 2, (*entries)[page].has_value())
          << "tear at " << len << ", page " << page;
    }
    // A span starting past the header reads after the (now known) header;
    // it must agree with the span read from offset zero.
    auto tail = (*ranged)->ReadEntries(1, 3);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(std::vector<std::optional<uint32_t>>(entries->begin() + 1, entries->begin() + 4),
              *tail)
        << "tear at " << len;
  }

  // Spans that reach the offset-overflow boundary read as "no entry" there
  // instead of wrapping onto a low entry.
  WriteSidecarBytes(full);
  auto sidecar = rvm::ChecksumSidecar::Open(&store_, 1, /*create=*/false);
  ASSERT_TRUE(sidecar.ok());
  for (uint64_t first : {UINT64_MAX / rvm::kChecksumEntrySize - 3,
                         UINT64_MAX / rvm::kChecksumEntrySize, UINT64_MAX - 1}) {
    auto entries = (*sidecar)->ReadEntries(first, 2);
    ASSERT_TRUE(entries.ok());
    for (const auto& entry : *entries) {
      EXPECT_FALSE(entry.has_value()) << "span at " << first << " aliased a low entry";
    }
  }
}

}  // namespace
