// Multi-log merge (§3.4): ordering by lock sequence numbers, intra-node
// order preservation, failure on inconsistent inputs, and the offline merge
// utility + recovery path.
#include <gtest/gtest.h>

#include <map>

#include "src/base/rng.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_index.h"
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

namespace {

rvm::TransactionRecord Txn(rvm::NodeId node, uint64_t commit_seq,
                           std::vector<rvm::LockRecord> locks,
                           const std::vector<testing_records::Range>& ranges = {}) {
  return testing_records::Record(node, commit_seq, std::move(locks), ranges);
}

TEST(LogMerge, OrdersByLockSequence) {
  // Node 1 held lock 5 at sequences 2 and 3; node 2 at sequence 1.
  std::vector<std::vector<rvm::TransactionRecord>> logs(2);
  logs[0] = {Txn(1, 1, {{5, 2}}), Txn(1, 2, {{5, 3}})};
  logs[1] = {Txn(2, 1, {{5, 1}})};
  auto merged = *rvm::MergeTransactionLists(std::move(logs));
  ASSERT_EQ(3u, merged.size());
  EXPECT_EQ(2u, merged[0].node);
  EXPECT_EQ(1u, merged[1].node);
  EXPECT_EQ(1u, merged[1].commit_seq);
  EXPECT_EQ(2u, merged[2].commit_seq);
}

TEST(LogMerge, PreservesIntraNodeOrderForUnrelatedLocks) {
  std::vector<std::vector<rvm::TransactionRecord>> logs(1);
  logs[0] = {Txn(1, 1, {{5, 1}}), Txn(1, 2, {{6, 1}}), Txn(1, 3, {{5, 2}})};
  auto merged = *rvm::MergeTransactionLists(std::move(logs));
  ASSERT_EQ(3u, merged.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(i + 1, merged[i].commit_seq);
  }
}

TEST(LogMerge, InterleavesTwoWritersOnOneLock) {
  // Alternating ownership: seqs 1,3 at node 1; 2,4 at node 2.
  std::vector<std::vector<rvm::TransactionRecord>> logs(2);
  logs[0] = {Txn(1, 1, {{9, 1}}), Txn(1, 2, {{9, 3}})};
  logs[1] = {Txn(2, 1, {{9, 2}}), Txn(2, 2, {{9, 4}})};
  auto merged = *rvm::MergeTransactionLists(std::move(logs));
  ASSERT_EQ(4u, merged.size());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(i + 1, merged[i].locks[0].sequence);
  }
}

TEST(LogMerge, MultiLockTransactionsRespectAllConstraints) {
  // T_a holds (L1,1)(L2,2); T_b holds (L2,1): T_b must precede T_a.
  std::vector<std::vector<rvm::TransactionRecord>> logs(2);
  logs[0] = {Txn(1, 1, {{1, 1}, {2, 2}})};
  logs[1] = {Txn(2, 1, {{2, 1}})};
  auto merged = *rvm::MergeTransactionLists(std::move(logs));
  ASSERT_EQ(2u, merged.size());
  EXPECT_EQ(2u, merged[0].node);
}

TEST(LogMerge, NoLockTransactionsAreFreelyOrdered) {
  std::vector<std::vector<rvm::TransactionRecord>> logs(2);
  logs[0] = {Txn(1, 1, {})};
  logs[1] = {Txn(2, 1, {})};
  auto merged = *rvm::MergeTransactionLists(std::move(logs));
  EXPECT_EQ(2u, merged.size());
}

TEST(LogMerge, DetectsImpossibleOrder) {
  // Cross dependency: node1 has (L1,1)(L2,2) then nothing; node2 has
  // (L2,1)(L1,2) in ONE transaction — cycle.
  std::vector<std::vector<rvm::TransactionRecord>> logs(2);
  logs[0] = {Txn(1, 1, {{1, 2}, {2, 1}})};
  logs[1] = {Txn(2, 1, {{1, 1}, {2, 2}})};
  auto merged = rvm::MergeTransactionLists(std::move(logs));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(base::StatusCode::kFailedPrecondition, merged.status().code());
}

TEST(LogMerge, CarriedCopyAheadOfEarlierWriterRecordMergesAndIndexesOnce) {
  // Writer 2 committed (2,5) under lock 1, then (2,6) under lock 2. Node 1
  // acquired lock 2 next and carried (2,6) into its own batch, ahead of its
  // own (1,1). In node 1's log the copy comes first; (2,5) sits only in
  // writer 2's log, behind nothing that node 1's log holds.
  const auto early = Txn(2, 5, {{1, 1}}, {{1, 0, {0x05, 0x05}}});
  const auto late = Txn(2, 6, {{2, 1}}, {{1, 0, {0x06}}});
  const auto own = Txn(1, 1, {{2, 2}}, {{1, 8, {0x11}}});
  std::vector<std::vector<rvm::TransactionRecord>> logs = {{late, own}, {early, late}};
  auto merged = *rvm::MergeTransactionLists(logs);
  // Each transaction once, the writer's commit order kept: (2,5)'s bytes
  // must not land after (2,6)'s.
  ASSERT_EQ(3u, merged.size());
  EXPECT_EQ(early, merged[0]);
  EXPECT_EQ(late, merged[1]);
  EXPECT_EQ(own, merged[2]);

  // The index built from node 1's log alone, then extended with writer 2's
  // log (a dead-client merge reaching it later), indexes (2,5) — which a
  // per-node maximum would have mistaken for a duplicate of (2,6) — and
  // (2,6) only once.
  rvm::LogIndex index = rvm::LogIndex::FromMerged(*rvm::MergeTransactionLists({{late, own}}));
  index.Extend(*rvm::MergeTransactionLists({{early, late}}));
  std::map<std::pair<rvm::NodeId, uint64_t>, int> indexed;
  for (const auto& txn : index.transactions()) {
    ++indexed[{txn.node, txn.commit_seq}];
  }
  EXPECT_EQ((std::map<std::pair<rvm::NodeId, uint64_t>, int>{{{1, 1}, 1}, {{2, 5}, 1}, {{2, 6}, 1}}),
            indexed);
  // Page 0 of region 1 lists each record's range once.
  const auto* slices = index.SlicesFor(1, 0);
  ASSERT_NE(nullptr, slices);
  EXPECT_EQ(3u, slices->size());
}

TEST(LogMerge, ReorderedOwnRecordsFollowCommitOrder) {
  // A retried commit lands after a later batch: the log holds (1,2) before
  // (1,1). The merge orders a writer's records by commit_seq, not log order.
  std::vector<std::vector<rvm::TransactionRecord>> logs = {
      {Txn(1, 2, {{5, 2}}), Txn(1, 1, {{5, 1}})}};
  auto merged = *rvm::MergeTransactionLists(std::move(logs));
  ASSERT_EQ(2u, merged.size());
  EXPECT_EQ(1u, merged[0].commit_seq);
  EXPECT_EQ(2u, merged[1].commit_seq);
}

TEST(LogMerge, EmptyInputs) {
  auto merged = *rvm::MergeTransactionLists({});
  EXPECT_TRUE(merged.empty());
  auto merged2 = *rvm::MergeTransactionLists({{}, {}});
  EXPECT_TRUE(merged2.empty());
}

// Property: merging randomly interleaved per-lock histories always yields
// an order where every lock's sequence numbers appear ascending.
class MergePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergePropertyTest, MergedLockSequencesAscend) {
  base::Rng rng(GetParam());
  constexpr int kNodes = 4;
  constexpr int kLocks = 3;
  uint64_t next_seq[kLocks] = {0, 0, 0};
  std::vector<std::vector<rvm::TransactionRecord>> logs(kNodes);
  uint64_t commit_seq[kNodes] = {0, 0, 0, 0};
  // Simulate strict 2PL: each new transaction grabs 1-2 locks and receives
  // each lock's next global sequence number.
  for (int i = 0; i < 60; ++i) {
    int node = static_cast<int>(rng.Uniform(kNodes));
    int first_lock = static_cast<int>(rng.Uniform(kLocks));
    std::vector<rvm::LockRecord> locks = {{static_cast<uint64_t>(first_lock),
                                           ++next_seq[first_lock]}};
    if (rng.Chance(1, 3)) {
      int second = (first_lock + 1) % kLocks;
      locks.push_back({static_cast<uint64_t>(second), ++next_seq[second]});
    }
    logs[node].push_back(Txn(node + 1, ++commit_seq[node], std::move(locks)));
  }
  auto merged = rvm::MergeTransactionLists(std::move(logs));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  std::map<uint64_t, uint64_t> last_seen;
  std::map<rvm::NodeId, uint64_t> last_commit;
  for (const auto& txn : *merged) {
    for (const auto& lock : txn.locks) {
      EXPECT_GT(lock.sequence, last_seen[lock.lock_id]);
      last_seen[lock.lock_id] = lock.sequence;
    }
    EXPECT_GT(txn.commit_seq, last_commit[txn.node]);
    last_commit[txn.node] = txn.commit_seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest, ::testing::Range<uint64_t>(0, 12));

TEST(LogMerge, WriteMergedLogIsReplayable) {
  store::MemStore store;
  // Two nodes write interleaved updates to the same byte under one lock.
  auto write_log = [&](rvm::NodeId node, std::vector<rvm::TransactionRecord> txns) {
    auto file = std::move(*store.Open(rvm::LogFileName(node), true));
    rvm::LogWriter writer(std::move(file));
    for (const auto& t : txns) {
      auto payload = rvm::EncodeTransaction(t);
      ASSERT_TRUE(writer.Append(base::ByteSpan(payload.data(), payload.size()), true).ok());
    }
  };
  write_log(1, {Txn(1, 1, {{5, 1}}, {{1, 0, {10}}}), Txn(1, 2, {{5, 3}}, {{1, 0, {30}}})});
  write_log(2, {Txn(2, 1, {{5, 2}}, {{1, 0, {20}}}), Txn(2, 2, {{5, 4}}, {{1, 0, {40}}})});

  ASSERT_TRUE(
      rvm::WriteMergedLog(&store, {rvm::LogFileName(1), rvm::LogFileName(2)}, "merged.rvm")
          .ok());
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {"merged.rvm"}).ok());

  auto db = std::move(*store.Open(rvm::RegionFileName(1), false));
  uint8_t value = 0;
  ASSERT_TRUE(db->ReadExact(0, &value, 1).ok());
  EXPECT_EQ(40, value);  // the lock-sequence-last write wins
}

TEST(Recovery, CheckpointRecordResetsReplay) {
  store::MemStore store;
  auto file = std::move(*store.Open("log", true));
  rvm::LogWriter writer(std::move(file));
  auto t1 = rvm::EncodeTransaction(Txn(1, 1, {}, {{1, 0, {111}}}));
  auto ckpt = rvm::EncodeCheckpoint();
  auto t2 = rvm::EncodeTransaction(Txn(1, 2, {}, {{1, 1, {222}}}));
  ASSERT_TRUE(writer.Append(base::ByteSpan(t1.data(), t1.size()), false).ok());
  ASSERT_TRUE(writer.Append(base::ByteSpan(ckpt.data(), ckpt.size()), false).ok());
  ASSERT_TRUE(writer.Append(base::ByteSpan(t2.data(), t2.size()), true).ok());

  auto txns = *rvm::ReadLogTransactions(&store, "log");
  ASSERT_EQ(1u, txns.size());
  EXPECT_EQ(2u, txns[0].commit_seq);
}

TEST(Recovery, ReplayIsIdempotent) {
  store::MemStore store;
  auto file = std::move(*store.Open(rvm::LogFileName(1), true));
  rvm::LogWriter writer(std::move(file));
  auto t1 = rvm::EncodeTransaction(Txn(1, 1, {}, {{1, 4, {7, 8, 9}}}));
  ASSERT_TRUE(writer.Append(base::ByteSpan(t1.data(), t1.size()), true).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  }
  auto db = std::move(*store.Open(rvm::RegionFileName(1), false));
  uint8_t buf[3];
  ASSERT_TRUE(db->ReadExact(4, buf, 3).ok());
  EXPECT_EQ(7, buf[0]);
  EXPECT_EQ(9, buf[2]);
}

TEST(Recovery, MissingLogIsError) {
  store::MemStore store;
  auto r = rvm::ReadLogTransactions(&store, "absent");
  EXPECT_FALSE(r.ok());
}

}  // namespace
