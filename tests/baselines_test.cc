// DSM baselines: copy/compare twin-diff collection and the page-locking
// write-invalidate protocol.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/baselines/cpycmp.h"
#include "src/baselines/page_dsm.h"

namespace {

// --- Cpy/Cmp -----------------------------------------------------------------

TEST(CpyCmp, DiffFindsExactModifiedBytes) {
  std::vector<uint8_t> buf(16384, 0);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(100, 8);
  std::memset(buf.data() + 100, 0xAA, 8);
  engine.NoteWrite(9000, 4);
  std::memset(buf.data() + 9000, 0xBB, 4);

  auto diffs = engine.CollectDiffs(/*region=*/1);
  ASSERT_EQ(2u, diffs.size());
  EXPECT_EQ(100u, diffs[0].offset);
  EXPECT_EQ(8u, diffs[0].data.size());
  EXPECT_EQ(9000u, diffs[1].offset);
  EXPECT_EQ(4u, diffs[1].data.size());
  EXPECT_EQ(0xAA, diffs[0].data[0]);
}

TEST(CpyCmp, OnlyFirstTouchTwinsAPage) {
  std::vector<uint8_t> buf(8192, 0);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(0, 8);
  engine.NoteWrite(64, 8);
  engine.NoteWrite(128, 8);
  EXPECT_EQ(1u, engine.metrics().write_faults.value());
  EXPECT_EQ(1u, engine.dirty_pages());
}

TEST(CpyCmp, WriteSpanningPagesTwinsBoth) {
  std::vector<uint8_t> buf(16384, 0);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(8190, 4);
  EXPECT_EQ(2u, engine.metrics().write_faults.value());
}

TEST(CpyCmp, UnmodifiedTwinnedPageProducesNoDiff) {
  std::vector<uint8_t> buf(8192, 7);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(0, 8);  // declared but never actually changed
  auto diffs = engine.CollectDiffs(1);
  EXPECT_TRUE(diffs.empty());
  EXPECT_EQ(1u, engine.metrics().pages_compared.value());
  EXPECT_EQ(0u, engine.metrics().diff_bytes.value());
}

TEST(CpyCmp, AdjacentChangesCoalesceIntoOneHunk) {
  std::vector<uint8_t> buf(8192, 0);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(0, 64);
  std::memset(buf.data() + 10, 1, 20);  // contiguous modified run
  auto diffs = engine.CollectDiffs(1);
  ASSERT_EQ(1u, diffs.size());
  EXPECT_EQ(10u, diffs[0].offset);
  EXPECT_EQ(20u, diffs[0].data.size());
}

TEST(CpyCmp, CollectResetsForNextInterval) {
  std::vector<uint8_t> buf(8192, 0);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(0, 8);
  buf[0] = 1;
  EXPECT_EQ(1u, engine.CollectDiffs(1).size());
  // New interval: page must fault/twin again to be collected.
  buf[1] = 2;
  EXPECT_TRUE(engine.CollectDiffs(1).empty());
  engine.NoteWrite(0, 8);
  buf[2] = 3;
  auto diffs = engine.CollectDiffs(1);
  ASSERT_EQ(1u, diffs.size());
  EXPECT_EQ(2u, diffs[0].offset);
}

TEST(CpyCmp, TailPageShorterThanPageSize) {
  std::vector<uint8_t> buf(10000, 0);  // 8192 + 1808
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  engine.NoteWrite(9990, 10);
  buf[9999] = 1;
  auto diffs = engine.CollectDiffs(1);
  ASSERT_EQ(1u, diffs.size());
  EXPECT_EQ(9999u, diffs[0].offset);
}

// --- Page DSM ------------------------------------------------------------------

struct PageDsmFixture {
  explicit PageDsmFixture(int n_nodes, uint64_t len = 32768) {
    for (int i = 0; i < n_nodes; ++i) {
      nodes.push_back(std::make_unique<baselines::PageDsmNode>(&fabric, i + 1,
                                                               /*manager=*/1, len));
    }
  }
  netsim::Fabric fabric;
  std::vector<std::unique_ptr<baselines::PageDsmNode>> nodes;
};

TEST(PageDsm, ManagerStartsWithAllPagesWritable) {
  PageDsmFixture fx(2);
  EXPECT_EQ(baselines::PageAccess::kWrite, fx.nodes[0]->AccessOf(0));
  EXPECT_EQ(baselines::PageAccess::kInvalid, fx.nodes[1]->AccessOf(0));
}

TEST(PageDsm, ReadFetchesPageContents) {
  PageDsmFixture fx(2);
  ASSERT_TRUE(fx.nodes[0]->StartWrite(0).ok());
  std::memcpy(fx.nodes[0]->data(), "PAGE", 4);
  ASSERT_TRUE(fx.nodes[1]->StartRead(0).ok());
  EXPECT_EQ(0, std::memcmp(fx.nodes[1]->data(), "PAGE", 4));
  EXPECT_EQ(baselines::PageAccess::kRead, fx.nodes[1]->AccessOf(0));
  // The owner was demoted to a shared copy.
  EXPECT_EQ(baselines::PageAccess::kRead, fx.nodes[0]->AccessOf(0));
}

TEST(PageDsm, WriteInvalidatesReaders) {
  PageDsmFixture fx(3);
  ASSERT_TRUE(fx.nodes[1]->StartRead(0).ok());
  ASSERT_TRUE(fx.nodes[2]->StartRead(0).ok());
  ASSERT_TRUE(fx.nodes[1]->StartWrite(0).ok());
  std::memcpy(fx.nodes[1]->data(), "NEWV", 4);
  // Node 3's copy must be gone.
  EXPECT_EQ(baselines::PageAccess::kInvalid, fx.nodes[2]->AccessOf(0));
  EXPECT_GE(fx.nodes[2]->metrics().invalidations_received.value(), 1u);
  // Re-reading fetches the new data from the new owner.
  ASSERT_TRUE(fx.nodes[2]->StartRead(0).ok());
  EXPECT_EQ(0, std::memcmp(fx.nodes[2]->data(), "NEWV", 4));
}

TEST(PageDsm, WholePageTravels) {
  PageDsmFixture fx(2);
  ASSERT_TRUE(fx.nodes[0]->StartWrite(8192).ok());
  fx.nodes[0]->data()[8192] = 42;
  ASSERT_TRUE(fx.nodes[1]->StartRead(8192).ok());
  EXPECT_EQ(8192u, fx.nodes[0]->metrics().page_bytes_sent.value());
  EXPECT_EQ(1u, fx.nodes[0]->metrics().pages_sent.value());
}

TEST(PageDsm, PingPongOwnership) {
  PageDsmFixture fx(2);
  for (int round = 0; round < 10; ++round) {
    int writer = round % 2;
    ASSERT_TRUE(fx.nodes[writer]->StartWrite(0).ok());
    fx.nodes[writer]->data()[0] = static_cast<uint8_t>(round);
  }
  ASSERT_TRUE(fx.nodes[0]->StartRead(0).ok());
  EXPECT_EQ(9, fx.nodes[0]->data()[0]);
}

TEST(PageDsm, IndependentPagesDoNotInterfere) {
  PageDsmFixture fx(2);
  ASSERT_TRUE(fx.nodes[1]->StartWrite(0).ok());
  fx.nodes[1]->data()[0] = 1;
  ASSERT_TRUE(fx.nodes[0]->StartWrite(8192).ok());
  fx.nodes[0]->data()[8192] = 2;
  // Node 1 still owns page 0 exclusively.
  EXPECT_EQ(baselines::PageAccess::kWrite, fx.nodes[1]->AccessOf(0));
  EXPECT_EQ(baselines::PageAccess::kWrite, fx.nodes[0]->AccessOf(1));
}

TEST(PageDsm, OutOfRangeFaults) {
  PageDsmFixture fx(1, 8192);
  EXPECT_EQ(base::StatusCode::kOutOfRange, fx.nodes[0]->StartRead(9000).code());
}

TEST(PageDsm, ConcurrentWritersSerialize) {
  PageDsmFixture fx(3);
  constexpr int kRounds = 20;
  auto writer = [&](int idx) {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(fx.nodes[idx]->StartWrite(0).ok());
      // Increment under exclusive access; races would lose counts.
      uint32_t v;
      std::memcpy(&v, fx.nodes[idx]->data(), 4);
      ++v;
      std::memcpy(fx.nodes[idx]->data(), &v, 4);
    }
  };
  std::thread t1(writer, 0), t2(writer, 1), t3(writer, 2);
  t1.join();
  t2.join();
  t3.join();
  ASSERT_TRUE(fx.nodes[0]->StartRead(0).ok());
  uint32_t v;
  std::memcpy(&v, fx.nodes[0]->data(), 4);
  // Single-writer protocol can still interleave read-modify-write at the
  // application level, but every increment ran under exclusive page access
  // here because StartWrite was held across it... it is not (protocol only
  // guarantees access rights at fault time). The strong guarantee we CAN
  // assert: the final value never exceeds the total and at least one
  // increment from the last holder survives.
  EXPECT_GT(v, 0u);
  EXPECT_LE(v, static_cast<uint32_t>(3 * kRounds));
}

}  // namespace
