// Lifetime of the bytes a record's ranges view. A decoded record holds the
// Buffer it was parsed from (a received message, or the log reader's block
// its payload lies in, which the records read from it share) and nothing
// else does once the source is gone, so every place that keeps a record —
// the held set of the §3.4 interlock, the lazy retained deque, the server
// record cache, a token piggyback — must read the right bytes long after
// the message, the log reader and the store file have been dropped. Under
// `scripts/check.sh --asan` a dangling view is a reported error.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/lbc/client.h"
#include "src/lbc/wire_format.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;

std::string BytesOf(base::ByteSpan data) { return std::string(data.begin(), data.end()); }

std::string ImageAt(lbc::Client* client, uint64_t offset, size_t len) {
  const uint8_t* image = client->GetRegion(kRegion)->data() + offset;
  return std::string(image, image + len);
}

// Node 2's committed history under kLock, read back from its log after the
// store holding that log is destroyed: seq 1 writes "AAAAAAAA" at 0, seq 2
// writes "BBBBBBBB" at 4. Applied in order the image reads "AAAABBBBBBBB".
// The log is small, so both records are read from one block of it.
std::vector<rvm::TransactionRecord> LogReadHistory() {
  auto store = std::make_unique<store::MemStore>();
  {
    auto rvm = std::move(*rvm::Rvm::Open(store.get(), 2, rvm::RvmOptions{}));
    rvm::Region* region = *rvm->MapRegion(kRegion, 8192);
    const char* fills[] = {"AAAAAAAA", "BBBBBBBB"};
    for (uint64_t seq = 1; seq <= 2; ++seq) {
      rvm::TxnId t = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
      EXPECT_TRUE(rvm->SetLockId(t, kLock, seq).ok());
      const uint64_t offset = (seq - 1) * 4;
      EXPECT_TRUE(rvm->SetRange(t, kRegion, offset, 8).ok());
      std::memcpy(region->data() + offset, fills[seq - 1], 8);
      EXPECT_TRUE(rvm->EndTransaction(t, rvm::CommitMode::kFlush).ok());
    }
  }
  const uint64_t log_bytes = *(*store->Open(rvm::LogFileName(2), /*create=*/false))->Size();
  auto records = rvm::ReadLogTransactions(store.get(), rvm::LogFileName(2));
  EXPECT_TRUE(records.ok());
  store.reset();  // the reader is gone with the call; now the file is too
  EXPECT_EQ(2u, records->size());
  for (const auto& rec : *records) {
    // The records share the block they were read from, which holds the log
    // bytes the scan read and no more, and are its only owners.
    EXPECT_EQ(records->front().bytes.data(), rec.bytes.data());
    EXPECT_EQ(log_bytes, rec.bytes.size());
    EXPECT_EQ(static_cast<long>(records->size()), rec.bytes.use_count());
  }
  return std::move(*records);
}

TEST(RecordLifetime, DecodedUpdateHoldsItsMessageBuffer) {
  base::Buffer message = lbc::EncodeUpdateRecord(
      testing_records::Record(2, 1, {{kLock, 1}}, {{kRegion, 0, {'h', 'i'}}, {kRegion, 64, {'!'}}}),
      true);
  rvm::TransactionRecord rec;
  ASSERT_TRUE(lbc::DecodeUpdate(message, &rec).ok());
  EXPECT_EQ(2, message.use_count());
  message = base::Buffer();
  EXPECT_EQ(1, rec.bytes.use_count());

  // Copies share the bytes; moves of records (a growing vector) keep the
  // views valid, because they point into the Buffer, not the record.
  std::vector<rvm::TransactionRecord> copies;
  for (int i = 0; i < 64; ++i) {
    copies.push_back(rec);
  }
  EXPECT_EQ(65, rec.bytes.use_count());
  EXPECT_EQ(rec.payload.data(), copies.back().payload.data());
  rec = rvm::TransactionRecord();
  for (const auto& copy : copies) {
    const std::vector<rvm::RangeImage> ranges = testing_records::ListOf(copy);
    ASSERT_EQ(2u, ranges.size());
    EXPECT_EQ("hi", BytesOf(ranges[0].data));
    EXPECT_EQ("!", BytesOf(ranges[1].data));
  }
}

TEST(RecordLifetime, LogReadRecordOutlivesReaderAndStore) {
  std::vector<rvm::TransactionRecord> history = LogReadHistory();
  ASSERT_EQ(2u, history.size());
  EXPECT_EQ(1u, history[0].SequenceOf(kLock));
  EXPECT_EQ("AAAAAAAA", BytesOf(testing_records::ListOf(history[0])[0].data));
  EXPECT_EQ("BBBBBBBB", BytesOf(testing_records::ListOf(history[1])[0].data));
}

TEST(RecordLifetime, LogReadBlockLivesUntilItsLastRecordDrops) {
  std::vector<rvm::TransactionRecord> history = LogReadHistory();
  ASSERT_EQ(2u, history.size());
  rvm::TransactionRecord last = history[1];
  EXPECT_EQ(3, last.bytes.use_count());
  // Dropping the other records leaves this one the block's only owner: the
  // block goes when it does, and until then its view is intact.
  history.clear();
  EXPECT_EQ(1, last.bytes.use_count());
  EXPECT_EQ(2u, last.SequenceOf(kLock));
  EXPECT_EQ("BBBBBBBB", BytesOf(testing_records::ListOf(last)[0].data));
}

TEST(RecordLifetime, HeldUpdatesApplyAfterTheirMessagesAreGone) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  auto client = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(client->MapRegion(kRegion, 8192).ok());
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);

  // Seqs 3 and 2 arrive first and are held; each message Buffer is a
  // temporary, so the held record is its only owner when seq 1 arrives.
  for (uint64_t seq : {3, 2, 1}) {
    const std::vector<uint8_t> fill(4, static_cast<uint8_t>('0' + seq));
    ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(
                                  testing_records::Record(2, seq, {{kLock, seq}},
                                                          {{kRegion, (seq - 1) * 2, fill}}),
                                  true))
                    .ok());
  }
  ASSERT_TRUE(client->WaitForAppliedSeq(kLock, 3, 5000));
  EXPECT_EQ("11223333", ImageAt(client.get(), 0, 8));
  EXPECT_EQ(2u, client->stats().updates_held);

  // The same under a second lock, each message multicast as ONE Buffer to
  // this client and node 3: the two peers' held records share it, and once
  // the sender's handle is gone they are its only owners; either peer may
  // apply and drop its copy while the other still holds one.
  constexpr rvm::LockId kShared = 11;
  constexpr rvm::RegionId kSharedRegion = 2;
  cluster.DefineLock(kShared, kSharedRegion, 1);
  auto other = std::move(*lbc::Client::Create(&cluster, 3, {}));
  ASSERT_TRUE(client->MapRegion(kSharedRegion, 8192).ok());
  ASSERT_TRUE(other->MapRegion(kSharedRegion, 8192).ok());
  for (uint64_t seq : {3, 2, 1}) {
    const std::vector<uint8_t> fill(4, static_cast<uint8_t>('a' + seq));
    base::Buffer message = lbc::EncodeUpdateRecord(
        testing_records::Record(2, 10 + seq, {{kShared, seq}},
                                {{kSharedRegion, (seq - 1) * 2, fill}}),
        true);
    ASSERT_TRUE(peer->Multicast({1, 3}, std::move(message)).ok());
  }
  for (lbc::Client* receiver : {client.get(), other.get()}) {
    ASSERT_TRUE(receiver->WaitForAppliedSeq(kShared, 3, 5000));
    const uint8_t* image = receiver->GetRegion(kSharedRegion)->data();
    EXPECT_EQ("bbccdddd", std::string(image, image + 8));
  }
  EXPECT_EQ(4u, client->stats().updates_held);
  EXPECT_EQ(2u, other->stats().updates_held);
}

TEST(RecordLifetime, RecordCacheHoldsRecordsPastTheirSources) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  // Seqs 1 and 2 from a destroyed log; seq 3 from a dropped message.
  for (const auto& rec : LogReadHistory()) {
    cluster.CacheRecords(kLock, rec);
  }
  {
    rvm::TransactionRecord decoded;
    ASSERT_TRUE(lbc::DecodeUpdate(
                    base::Buffer(lbc::EncodeUpdateRecord(
                        testing_records::Record(3, 1, {{kLock, 3}}, {{kRegion, 16, {'C'}}}),
                        true)),
                    &decoded)
                    .ok());
    cluster.CacheRecords(kLock, decoded);
  }
  std::vector<rvm::TransactionRecord> fetched = cluster.FetchRecordsSince(kLock, 0);
  ASSERT_EQ(3u, fetched.size());
  EXPECT_EQ("AAAAAAAA", BytesOf(testing_records::ListOf(fetched[0])[0].data));
  EXPECT_EQ("BBBBBBBB", BytesOf(testing_records::ListOf(fetched[1])[0].data));
  EXPECT_EQ("C", BytesOf(testing_records::ListOf(fetched[2])[0].data));
}

TEST(RecordLifetime, DeadClientRecoveryCachesOnlyItsRecordsBytes) {
  // Dead-client recovery reads the dead node's whole log and keeps only the
  // records no recovery merged yet, for the record cache. Those records
  // must hold their own payloads, not the log block they shared with the
  // records the filter dropped.
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 2);
  auto victim = std::move(*lbc::Client::Create(&cluster, 2, {}));
  ASSERT_TRUE(victim->MapRegion(kRegion, 8192).ok());
  auto commit = [&](uint8_t fill) {
    lbc::Transaction txn = victim->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 8).ok());
    std::memset(victim->GetRegion(kRegion)->data(), fill, 8);
    ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
  };
  commit('A');
  commit('B');
  // Boot recovery merges seqs 1 and 2; seqs 3 and 4 follow in the same log.
  cluster.KillServer();
  ASSERT_TRUE(cluster.RestartServer().ok());
  ASSERT_TRUE(victim->RejoinServer().ok());
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  commit('C');
  commit('D');
  victim->Disconnect();
  victim.reset();

  ASSERT_TRUE(cluster.RecoverDeadClient(2).ok());
  ASSERT_TRUE(cluster.DrainRecovery().ok());
  std::vector<rvm::TransactionRecord> fetched = cluster.FetchRecordsSince(kLock, 2);
  ASSERT_EQ(2u, fetched.size());
  const char* fills[] = {"CCCCCCCC", "DDDDDDDD"};
  for (size_t i = 0; i < fetched.size(); ++i) {
    const rvm::TransactionRecord& rec = fetched[i];
    EXPECT_EQ(3 + i, rec.SequenceOf(kLock));
    EXPECT_EQ(rec.payload.data(), rec.bytes.data());
    EXPECT_EQ(rec.payload.size(), rec.bytes.size());
    EXPECT_EQ(fills[i], BytesOf(testing_records::ListOf(rec)[0].data));
  }
}

TEST(RecordLifetime, TokenPiggybackCarriesLogReadRecords) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, /*manager=*/2);
  auto client = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(client->MapRegion(kRegion, 8192).ok());
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);

  // Out of order on purpose: seq 2 is held until seq 1, behind it in the
  // same token, applies. Once sent, the token message holds the only copy.
  lbc::LockTokenMsg token;
  token.lock = kLock;
  token.token_seq = 2;
  {
    std::vector<rvm::TransactionRecord> history = LogReadHistory();
    token.piggyback = {history[1], history[0]};
  }
  base::Buffer message = lbc::EncodeLockToken(token, true);
  token = lbc::LockTokenMsg();
  lbc::LockTokenMsg decoded;
  ASSERT_TRUE(lbc::DecodeLockToken(message, &decoded).ok());
  ASSERT_EQ(2u, decoded.piggyback.size());
  EXPECT_EQ(message.data(), decoded.piggyback[0].bytes.data());  // views, not copies
  ASSERT_TRUE(peer->Send(1, std::move(message)).ok());
  decoded = lbc::LockTokenMsg();

  ASSERT_TRUE(client->WaitForAppliedSeq(kLock, 2, 5000));
  EXPECT_EQ("AAAABBBBBBBB", ImageAt(client.get(), 0, 12));
}

// The lazy writer retains its commit record until a peer's acquire ships
// it. With logging on the record holds the encoded log payload; with it off
// the commit hook copies the live ranges. Either way, scribbling on the
// writer's image after the commit must not reach the peer.
class LazyRetention : public ::testing::TestWithParam<bool> {};

TEST_P(LazyRetention, RetainedRecordKeepsItsCommittedBytes) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  lbc::ClientOptions opts;
  opts.policy = lbc::PropagationPolicy::kLazy;
  opts.rvm.disk_logging = GetParam();
  auto writer = std::move(*lbc::Client::Create(&cluster, 1, opts));
  auto reader = std::move(*lbc::Client::Create(&cluster, 2, opts));
  ASSERT_TRUE(writer->MapRegion(kRegion, 8192).ok());
  ASSERT_TRUE(reader->MapRegion(kRegion, 8192).ok());
  {
    lbc::Transaction txn = writer->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 4).ok());
    std::memcpy(writer->GetRegion(kRegion)->data(), "AAAA", 4);
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_EQ(1u, writer->RetainedCount(kLock));
  std::memcpy(writer->GetRegion(kRegion)->data(), "ZZZZ", 4);  // outside any txn

  lbc::Transaction txn = reader->Begin();
  ASSERT_TRUE(txn.Acquire(kLock).ok());  // the token carries the retained record
  EXPECT_EQ("AAAA", ImageAt(reader.get(), 0, 4));
  ASSERT_TRUE(txn.Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(DiskLogging, LazyRetention, ::testing::Bool());

}  // namespace
