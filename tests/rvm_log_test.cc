// Log record encoding and framed log I/O, including torn-tail handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "bench/harness.h"
#include "src/base/rng.h"
#include "src/lbc/wire_format.h"
#include "src/oo7/database.h"
#include "src/oo7/traversals.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

namespace {

rvm::TransactionRecord MakeRecord(uint64_t seq) {
  return testing_records::Record(3, seq, {{7, seq}, {9, seq + 100}},
                                 {{1, 64, {1, 2, 3, 4}}, {1, 4096, {9, 8, 7}}});
}

TEST(LogFormat, TransactionRoundTrip) {
  rvm::TransactionRecord txn = MakeRecord(5);
  std::vector<uint8_t> payload = rvm::EncodeTransaction(txn);
  rvm::TransactionRecord out;
  ASSERT_TRUE(rvm::DecodeTransaction(base::Buffer(payload), &out).ok());
  EXPECT_EQ(txn.node, out.node);
  EXPECT_EQ(txn.commit_seq, out.commit_seq);
  EXPECT_EQ(txn.locks, out.locks);
  EXPECT_EQ(txn.ranges, out.ranges);
}

TEST(LogFormat, CommittedRecordMatchesOwnedEncoding) {
  // The commit path's one-pass encoding of borrowed ranges (two regions,
  // including a zero-length range) must byte-match the owned-record
  // encoding the merge utility rewrites logs with, and the commit hook's
  // record must be exactly the logged payload.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 3, rvm::RvmOptions{}));
  rvm::Region* one = *r->MapRegion(1, 256);
  rvm::Region* two = *r->MapRegion(2, 200);
  base::Buffer hooked;
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) { hooked = rec.bytes; });
  rvm::TxnId t = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetLockId(t, 7, 5).ok());
  ASSERT_TRUE(r->SetRange(t, 2, 190, 4).ok());
  ASSERT_TRUE(r->SetRange(t, 1, 200, 3).ok());
  ASSERT_TRUE(r->SetRange(t, 1, 16, 0).ok());
  std::memcpy(one->data() + 200, "abc", 3);
  std::memcpy(two->data() + 190, "WXYZ", 4);
  ASSERT_TRUE(r->EndTransaction(t, rvm::CommitMode::kFlush).ok());

  auto file = std::move(*store.Open(rvm::LogFileName(3), /*create=*/false));
  rvm::LogReader reader(file.get());
  base::ByteSpan view;
  bool at_end = false;
  ASSERT_TRUE(reader.ReadNext(&view, &at_end).ok());
  ASSERT_FALSE(at_end);
  const std::vector<uint8_t> payload(view.begin(), view.end());

  const rvm::TransactionRecord want = testing_records::Record(
      3, 1, {{7, 5}}, {{1, 16, {}}, {1, 200, {'a', 'b', 'c'}}, {2, 190, {'W', 'X', 'Y', 'Z'}}});
  EXPECT_EQ(rvm::EncodeTransaction(want), payload);
  EXPECT_EQ(hooked, payload);
  rvm::TransactionRecord decoded;
  ASSERT_TRUE(rvm::DecodeTransaction(view, reader.block(), &decoded).ok());
  EXPECT_EQ(want, decoded);
}

TEST(LogFormat, PeekKindDistinguishes) {
  auto txn = rvm::EncodeTransaction(MakeRecord(1));
  auto ckpt = rvm::EncodeCheckpoint();
  EXPECT_EQ(rvm::LogRecordKind::kTransaction,
            *rvm::PeekKind(base::ByteSpan(txn.data(), txn.size())));
  EXPECT_EQ(rvm::LogRecordKind::kCheckpoint,
            *rvm::PeekKind(base::ByteSpan(ckpt.data(), ckpt.size())));
  uint8_t junk = 0x77;
  EXPECT_FALSE(rvm::PeekKind(base::ByteSpan(&junk, 1)).ok());
}

TEST(LogFormat, DecodeRejectsTrailingGarbage) {
  auto payload = rvm::EncodeTransaction(MakeRecord(1));
  payload.push_back(0xFF);
  rvm::TransactionRecord out;
  EXPECT_EQ(base::StatusCode::kDataLoss,
            rvm::DecodeTransaction(base::Buffer(std::move(payload)), &out).code());
}

TEST(LogIo, WriteReadMultipleRecords) {
  store::MemStore store;
  auto file = std::move(*store.Open("log", true));
  rvm::LogWriter writer(std::move(file));
  for (uint64_t i = 0; i < 10; ++i) {
    auto payload = rvm::EncodeTransaction(MakeRecord(i));
    ASSERT_TRUE(
        writer.Append(base::ByteSpan(payload.data(), payload.size()), i % 2 == 0).ok());
  }
  EXPECT_EQ(10u, writer.records_written());

  auto rfile = std::move(*store.Open("log", false));
  rvm::LogReader reader(rfile.get());
  base::ByteSpan payload;
  bool at_end = false;
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
    ASSERT_FALSE(at_end);
    rvm::TransactionRecord txn;
    ASSERT_TRUE(rvm::DecodeTransaction(payload, reader.block(), &txn).ok());
    EXPECT_EQ(i, txn.commit_seq);
  }
  ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
  EXPECT_TRUE(at_end);
  EXPECT_FALSE(reader.tail_was_torn());
}

TEST(LogIo, BatchAppendEqualsSingleAppends) {
  // A group-commit batch frames each payload exactly as separate appends
  // would: the batch changes the write count, never the log bytes.
  store::MemStore store;
  auto p1 = rvm::EncodeTransaction(MakeRecord(3));
  auto p2 = rvm::EncodeTransaction(MakeRecord(4));
  {
    rvm::LogWriter w(std::move(*store.Open("a", true)));
    ASSERT_TRUE(w.Append(base::ByteSpan(p1.data(), p1.size()), false).ok());
    ASSERT_TRUE(w.Append(base::ByteSpan(p2.data(), p2.size()), true).ok());
  }
  {
    rvm::LogWriter w(std::move(*store.Open("b", true)));
    ASSERT_TRUE(w.AppendBatch({base::ByteSpan(p1.data(), p1.size()),
                               base::ByteSpan(p2.data(), p2.size())},
                              true)
                    .ok());
    EXPECT_EQ(2u, w.records_written());
  }
  auto fa = std::move(*store.Open("a", false));
  auto fb = std::move(*store.Open("b", false));
  ASSERT_EQ(*fa->Size(), *fb->Size());
  std::vector<uint8_t> a(*fa->Size()), b(*fb->Size());
  ASSERT_TRUE(fa->ReadExact(0, a.data(), a.size()).ok());
  ASSERT_TRUE(fb->ReadExact(0, b.data(), b.size()).ok());
  EXPECT_EQ(a, b);
}

// Property: cutting the log at ANY byte boundary yields a clean prefix of
// complete records — never garbage, never a crash.
class TornTailTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TornTailTest, TruncatedLogReadsCleanPrefix) {
  store::MemStore store;
  std::vector<uint64_t> frame_ends;
  {
    auto file = std::move(*store.Open("log", true));
    rvm::LogWriter writer(std::move(file));
    for (uint64_t i = 0; i < 6; ++i) {
      auto payload = rvm::EncodeTransaction(MakeRecord(i));
      ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size()), false).ok());
      frame_ends.push_back(writer.bytes_written());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  uint64_t total = frame_ends.back();
  // Cut at a pseudo-random position derived from the seed parameter.
  base::Rng rng(GetParam());
  uint64_t cut = rng.Uniform(total + 1);
  {
    auto file = std::move(*store.Open("log", false));
    ASSERT_TRUE(file->Truncate(cut).ok());
  }
  auto file = std::move(*store.Open("log", false));
  rvm::LogReader reader(file.get());
  base::ByteSpan payload;
  bool at_end = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
    if (at_end) {
      break;
    }
    rvm::TransactionRecord txn;
    ASSERT_TRUE(rvm::DecodeTransaction(payload, reader.block(), &txn).ok());
    EXPECT_EQ(records, txn.commit_seq);
    ++records;
  }
  // Exactly the complete frames before the cut survive.
  uint64_t expect = 0;
  for (uint64_t end : frame_ends) {
    if (end <= cut) {
      ++expect;
    }
  }
  EXPECT_EQ(expect, records);
  // Torn flag set iff the cut left a partial frame behind.
  uint64_t prefix_end = expect == 0 ? 0 : frame_ends[expect - 1];
  EXPECT_EQ(cut > prefix_end, reader.tail_was_torn());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, TornTailTest, ::testing::Range<uint64_t>(0, 24));

TEST(LogIo, ReadAheadCrossesChunkBoundaries) {
  // The reader fetches the log in 64 KiB chunks. Frames of mixed sizes — a
  // few bytes up to one larger than a chunk — must come back byte for byte
  // wherever they straddle a chunk edge, and a frame torn past the first
  // chunk still ends the log cleanly.
  store::MemStore store;
  std::vector<std::vector<uint8_t>> payloads;
  base::Rng rng(17);
  for (int i = 0; i < 120; ++i) {
    const size_t len = i == 40 ? 100 * 1024 : 1 + rng.Uniform(4000);
    std::vector<uint8_t> p(len);
    for (auto& b : p) {
      b = static_cast<uint8_t>(rng.Next());
    }
    payloads.push_back(std::move(p));
  }
  uint64_t end_before_last = 0;
  {
    auto file = std::move(*store.Open("log", true));
    rvm::LogWriter writer(std::move(file));
    for (const auto& p : payloads) {
      end_before_last = writer.bytes_written();
      ASSERT_TRUE(writer.Append(base::ByteSpan(p.data(), p.size()), false).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_GT(writer.bytes_written(), 3u * 64 * 1024);
  }
  auto read_all = [&](uint64_t* end, bool* torn) {
    auto file = std::move(*store.Open("log", false));
    rvm::LogReader reader(file.get());
    std::vector<std::vector<uint8_t>> got;
    base::ByteSpan payload;
    bool at_end = false;
    while (true) {
      EXPECT_TRUE(reader.ReadNext(&payload, &at_end).ok());
      if (at_end) {
        break;
      }
      got.emplace_back(payload.begin(), payload.end());
    }
    *end = reader.offset();
    *torn = reader.tail_was_torn();
    return got;
  };
  uint64_t end = 0;
  bool torn = false;
  EXPECT_EQ(payloads, read_all(&end, &torn));
  EXPECT_FALSE(torn);

  // Tear the last frame: every earlier frame survives, the reader stops at
  // the torn one's start.
  {
    auto file = std::move(*store.Open("log", false));
    ASSERT_TRUE(file->Truncate(end_before_last + rvm::kFrameHeaderSize + 1).ok());
  }
  std::vector<std::vector<uint8_t>> prefix(payloads.begin(), payloads.end() - 1);
  EXPECT_EQ(prefix, read_all(&end, &torn));
  EXPECT_EQ(end_before_last, end);
  EXPECT_TRUE(torn);
}

TEST(LogIo, CorruptedPayloadStopsRead) {
  store::MemStore store;
  {
    auto file = std::move(*store.Open("log", true));
    rvm::LogWriter writer(std::move(file));
    auto payload = rvm::EncodeTransaction(MakeRecord(0));
    ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size()), true).ok());
  }
  {
    // Flip one payload byte: the CRC must catch it.
    auto file = std::move(*store.Open("log", false));
    uint8_t b;
    ASSERT_TRUE(file->ReadExact(rvm::kFrameHeaderSize + 2, &b, 1).ok());
    b ^= 0x40;
    ASSERT_TRUE(file->Write(rvm::kFrameHeaderSize + 2, base::ByteSpan(&b, 1)).ok());
  }
  auto file = std::move(*store.Open("log", false));
  rvm::LogReader reader(file.get());
  base::ByteSpan payload;
  bool at_end = false;
  ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
  EXPECT_TRUE(at_end);
  EXPECT_TRUE(reader.tail_was_torn());
}

// Counts the Reads a reader issues and the bytes they ask for.
class CountingFile : public store::DurableFile {
 public:
  explicit CountingFile(std::unique_ptr<store::DurableFile> base) : base_(std::move(base)) {}
  base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
    ++reads;
    bytes_asked += len;
    return base_->Read(offset, buf, len);
  }
  base::Status Write(uint64_t offset, base::ByteSpan data) override {
    return base_->Write(offset, data);
  }
  base::Result<uint64_t> Append(base::ByteSpan data) override { return base_->Append(data); }
  base::Status Sync() override { return base_->Sync(); }
  base::Result<uint64_t> Size() const override { return base_->Size(); }
  base::Status Truncate(uint64_t size) override { return base_->Truncate(size); }

  int reads = 0;
  uint64_t bytes_asked = 0;

 private:
  std::unique_ptr<store::DurableFile> base_;
};

TEST(LogIo, CorruptLengthEndsTheLogWithoutReadingPastIt) {
  // A length field that runs past the end of the file marks a torn frame.
  // Once the frame's header is buffered, the reader must see that from the
  // file size alone: a bad length early in a long log reads none of the
  // log behind it.
  store::MemStore store;
  const std::vector<uint8_t> payload(4000, 0x5A);
  uint64_t third = 0;
  {
    rvm::LogWriter writer(std::move(*store.Open("log", true)));
    for (int i = 0; i < 200; ++i) {
      if (i == 2) {
        third = writer.bytes_written();
      }
      ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size()), false).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  {
    auto file = std::move(*store.Open("log", false));
    const uint32_t len = 0x40000000;
    ASSERT_TRUE(file->Write(third + 4, base::ByteSpan(reinterpret_cast<const uint8_t*>(&len),
                                                      sizeof(len)))
                    .ok());
  }
  CountingFile file(std::move(*store.Open("log", false)));
  ASSERT_GT(*file.Size(), 10u * 64 * 1024);
  rvm::LogReader reader(&file);
  base::ByteSpan got;
  bool at_end = false;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(reader.ReadNext(&got, &at_end).ok());
    ASSERT_FALSE(at_end);
    EXPECT_EQ(payload.size(), got.size());
  }
  const int reads_before = file.reads;
  ASSERT_TRUE(reader.ReadNext(&got, &at_end).ok());
  EXPECT_TRUE(at_end);
  EXPECT_TRUE(reader.tail_was_torn());
  EXPECT_EQ(third, reader.offset());
  // The two good frames and the bad header came in the first read-ahead.
  EXPECT_EQ(1, reads_before);
  EXPECT_EQ(reads_before, file.reads);
  EXPECT_EQ(64u * 1024, file.bytes_asked);
}

TEST(LogIo, ResetEmptiesLog) {
  store::MemStore store;
  auto file = std::move(*store.Open("log", true));
  rvm::LogWriter writer(std::move(file));
  auto payload = rvm::EncodeCheckpoint();
  ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size()), true).ok());
  ASSERT_TRUE(writer.Reset().ok());
  EXPECT_EQ(0u, writer.bytes_written());
  auto rfile = std::move(*store.Open("log", false));
  EXPECT_EQ(0u, *rfile->Size());
}

// --- the commit payload is the record ---------------------------------------
//
// Every record the commit hook sees carries its log payload, written in one
// pass from the sorted write set: decoding that payload, or the update
// message that copies it, gives the record back, and the range-by-range
// writer gives the same bytes.

void ExpectPayloadIsTheRecord(const rvm::TransactionRecord& rec) {
  ASSERT_FALSE(rec.payload.empty());
  EXPECT_EQ(rec.bytes.data(), rec.payload.data());
  EXPECT_EQ(rec.bytes.size(), rec.payload.size());
  rvm::TransactionRecord decoded;
  ASSERT_TRUE(rvm::DecodeTransaction(rec.payload, rec.bytes, &decoded).ok());
  EXPECT_EQ(rec, decoded);
  EXPECT_TRUE(std::ranges::equal(
      rvm::MakeTransaction(rec.node, rec.commit_seq, rec.locks, testing_records::ListOf(rec))
          .payload,
      rec.payload));
  rvm::TransactionRecord received;
  uint64_t durable_seq = 0;
  ASSERT_TRUE(lbc::DecodeUpdate(base::Buffer(lbc::EncodeUpdateRecord(rec, true, 7)), &received,
                                &durable_seq)
                  .ok());
  EXPECT_EQ(rec, received);
  EXPECT_EQ(7u, durable_seq);
  EXPECT_TRUE(std::ranges::equal(received.payload, rec.payload));
}

// An Rvm whose commit hook keeps every record it sees.
struct HookedRvm {
  HookedRvm(store::MemStore* store, rvm::NodeId node, const rvm::RvmOptions& options)
      : rvm(std::move(*rvm::Rvm::Open(store, node, options))) {
    rvm->SetCommitHook([this](const rvm::TransactionRecord& rec) { seen.push_back(rec); });
  }
  std::unique_ptr<rvm::Rvm> rvm;
  std::vector<rvm::TransactionRecord> seen;
};

TEST(CommitPayload, Oo7T2BRecordDecodesToItself) {
  store::MemStore store;
  HookedRvm h(&store, 1, rvm::RvmOptions{});
  const oo7::Config config;
  const uint64_t size = oo7::Database::RequiredSize(config);
  rvm::Region* region = *h.rvm->MapRegion(1, size);
  ASSERT_TRUE(oo7::Database::Build(region->data(), size, config).ok());
  bench::RecordingSink recorder;
  ASSERT_TRUE(oo7::RunT2(oo7::Database(region->data()), recorder, oo7::Variant::kB).status.ok());
  rvm::Rvm::TxnHandle txn = h.rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (const auto& [offset, len] : recorder.ranges()) {
    ASSERT_TRUE(h.rvm->SetRange(txn, 1, offset, len).ok());
  }
  ASSERT_TRUE(h.rvm->SetLockId(txn, 4, 1).ok());
  ASSERT_TRUE(h.rvm->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
  ASSERT_EQ(1u, h.seen.size());
  EXPECT_GT(h.seen[0].ranges.size(), 7000u);
  ExpectPayloadIsTheRecord(h.seen[0]);
}

TEST(CommitPayload, TwoRegionRecordDecodesToItself) {
  // Region 2's first range starts below region 1's last, so its header is
  // absolute; the ranges after each first one are deltas.
  store::MemStore store;
  HookedRvm h(&store, 1, rvm::RvmOptions{});
  rvm::Region* one = *h.rvm->MapRegion(1, 65536);
  rvm::Region* two = *h.rvm->MapRegion(2, 65536);
  rvm::Rvm::TxnHandle txn = h.rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (auto [region, offset] : {std::pair<rvm::Region*, uint64_t>{two, 60000},
                                {one, 50000}, {two, 100}, {one, 40}}) {
    ASSERT_TRUE(h.rvm->SetRange(txn, region->id(), offset, 16).ok());
    std::memset(region->data() + offset, static_cast<int>(offset & 0xFF), 16);
  }
  ASSERT_TRUE(h.rvm->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  ASSERT_EQ(1u, h.seen.size());
  const rvm::TransactionRecord& rec = h.seen[0];
  std::vector<std::pair<rvm::RegionId, uint64_t>> starts;
  for (const rvm::RangeImage& range : rec.ranges) {
    starts.emplace_back(range.region, range.offset);
  }
  EXPECT_EQ((std::vector<std::pair<rvm::RegionId, uint64_t>>{{1, 40}, {1, 50000}, {2, 100},
                                                             {2, 60000}}),
            starts);
  ExpectPayloadIsTheRecord(rec);
}

TEST(CommitPayload, AdaptiveSpanRecordDecodesToItself) {
  // Page 0 has four ranges (more than the threshold of two): one span
  // covers them. Page 1 has two, which stay.
  store::MemStore store;
  rvm::RvmOptions options;
  options.adaptive_ranges_per_page = 2;
  HookedRvm h(&store, 1, options);
  rvm::Region* region = *h.rvm->MapRegion(1, 4 * 8192);
  rvm::Rvm::TxnHandle txn = h.rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (uint64_t offset : {8192 + 512, 64, 8192 + 16, 0, 4000, 128}) {
    ASSERT_TRUE(h.rvm->SetRange(txn, 1, offset, 8).ok());
    std::memset(region->data() + offset, 0x5A, 8);
  }
  ASSERT_TRUE(h.rvm->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(1u, h.rvm->stats().adaptive_pages_coalesced);
  ASSERT_EQ(1u, h.seen.size());
  const rvm::TransactionRecord& rec = h.seen[0];
  const std::vector<rvm::RangeImage> ranges = testing_records::ListOf(rec);
  ASSERT_EQ(3u, ranges.size());
  EXPECT_EQ(0u, ranges[0].offset);
  EXPECT_EQ(4008u, ranges[0].data.size());
  EXPECT_EQ(8192u + 16, ranges[1].offset);
  ExpectPayloadIsTheRecord(rec);
}

TEST(CommitPayload, CarriedCopyIsLoggedAsTheWriterLoggedIt) {
  // Node 2 applies node 1's record from its update message and commits
  // after it: node 2's log holds node 1's payload byte for byte, ahead of
  // its own record, and both decode to the records the hooks saw.
  store::MemStore store;
  HookedRvm writer(&store, 1, rvm::RvmOptions{});
  HookedRvm successor(&store, 2, rvm::RvmOptions{});
  ASSERT_TRUE(writer.rvm->MapRegion(1, 8192).ok());
  ASSERT_TRUE(successor.rvm->MapRegion(1, 8192).ok());
  auto commit = [](rvm::Rvm* r, uint64_t offset, uint64_t seq) {
    rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    EXPECT_TRUE(r->SetRange(txn, 1, offset, 8).ok());
    std::memset(r->GetRegion(1)->data() + offset, static_cast<int>(seq), 8);
    EXPECT_TRUE(r->SetLockId(txn, 4, seq).ok());
    EXPECT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  };
  commit(writer.rvm.get(), 0, 1);
  ASSERT_EQ(1u, writer.seen.size());
  const rvm::TransactionRecord& first = writer.seen[0];
  ExpectPayloadIsTheRecord(first);

  rvm::TransactionRecord received;
  ASSERT_TRUE(lbc::DecodeUpdate(base::Buffer(lbc::EncodeUpdateRecord(first, true)), &received)
                  .ok());
  ASSERT_TRUE(successor.rvm->ApplyExternalRanges(received).ok());
  successor.rvm->Carry(received);
  ASSERT_EQ(1u, successor.rvm->CarriedCount());
  commit(successor.rvm.get(), 8, 2);
  ASSERT_EQ(1u, successor.seen.size());
  ExpectPayloadIsTheRecord(successor.seen[0]);
  EXPECT_EQ(1u, successor.rvm->stats().carried_written);

  auto file = std::move(*store.Open(rvm::LogFileName(2), /*create=*/false));
  rvm::LogReader reader(file.get());
  base::ByteSpan payload;
  bool at_end = false;
  ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
  ASSERT_FALSE(at_end);
  EXPECT_TRUE(std::ranges::equal(first.payload, payload));
  ASSERT_TRUE(reader.ReadNext(&payload, &at_end).ok());
  ASSERT_FALSE(at_end);
  EXPECT_TRUE(std::ranges::equal(successor.seen[0].payload, payload));
  auto logged = rvm::ReadLogTransactions(&store, rvm::LogFileName(2));
  ASSERT_TRUE(logged.ok());
  EXPECT_EQ((std::vector<rvm::TransactionRecord>{first, successor.seen[0]}), *logged);
}

}  // namespace
