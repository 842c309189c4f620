// Robustness: corrupt and adversarial message handling. Decoders must fail
// cleanly (no crash, no partial state) on arbitrary bytes, and a live
// client's receiver thread must survive garbage traffic.
#include <gtest/gtest.h>

#include <thread>

#include <cstring>

#include "src/base/rng.h"
#include "src/lbc/client.h"
#include "src/lbc/wire_format.h"
#include "src/store/mem_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;
constexpr rvm::LockId kLock = 10;

// Property: decoding random bytes never crashes and either fails or yields
// a structurally sane record.
class FuzzDecodeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  base::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.Uniform(200);
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Next());
    }
    base::ByteSpan span(junk.data(), junk.size());
    (void)lbc::PeekMsgType(span);
    rvm::TransactionRecord rec;
    (void)lbc::DecodeUpdate(span, &rec);
    lbc::LockRequestMsg req;
    (void)lbc::DecodeLockRequest(span, &req);
    lbc::LockForwardMsg fwd;
    (void)lbc::DecodeLockForward(span, &fwd);
    lbc::LockTokenMsg token;
    (void)lbc::DecodeLockToken(span, &token);
    lbc::LockRevokeMsg revoke;
    (void)lbc::DecodeLockRevoke(span, &revoke);
    lbc::LockRevokeReplyMsg reply;
    (void)lbc::DecodeLockRevokeReply(span, &reply);
  }
}

TEST_P(FuzzDecodeTest, MutatedValidUpdatesNeverCrash) {
  base::Rng rng(GetParam());
  rvm::TransactionRecord txn;
  txn.node = 1;
  txn.commit_seq = 1;
  txn.locks = {{1, 1}};
  for (int i = 0; i < 5; ++i) {
    txn.ranges.push_back({1, static_cast<uint64_t>(i) * 1000,
                          std::vector<uint8_t>(32, static_cast<uint8_t>(i))});
  }
  std::vector<uint8_t> valid = lbc::EncodeUpdateRecord(txn, true);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> mutated = valid;
    // Flip a few random bytes and/or truncate.
    for (int flips = 0; flips < 3; ++flips) {
      mutated[rng.Uniform(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    if (rng.Chance(1, 3)) {
      mutated.resize(rng.Uniform(mutated.size() + 1));
    }
    rvm::TransactionRecord out;
    (void)lbc::DecodeUpdate(base::ByteSpan(mutated.data(), mutated.size()), &out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest, ::testing::Range<uint64_t>(0, 6));

// Property: encode -> decode is the identity for every wire message type,
// across randomized field values (including the varint edge values around
// 2^7k and the compressed/uncompressed header modes).
class RoundTripTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Values that stress every varint width.
  uint64_t AnyU64(base::Rng& rng) {
    switch (rng.Uniform(4)) {
      case 0: return rng.Uniform(2);                      // 0 / 1
      case 1: return 120 + rng.Uniform(16);               // 1-2 byte boundary
      case 2: return rng.Uniform(1u << 20);               // mid-size
      default: return rng.Next();                         // full 64-bit
    }
  }

  rvm::TransactionRecord AnyRecord(base::Rng& rng) {
    rvm::TransactionRecord rec;
    rec.node = 1 + rng.Uniform(100);
    rec.commit_seq = AnyU64(rng);
    size_t nlocks = 1 + rng.Uniform(3);
    for (size_t i = 0; i < nlocks; ++i) {
      rec.locks.push_back({1 + rng.Uniform(50), AnyU64(rng)});
    }
    // Ranges sorted by (region, offset), as the commit path produces them:
    // exercises both delta and absolute address headers.
    uint64_t offset = rng.Uniform(1 << 16);
    size_t nranges = rng.Uniform(5);
    for (size_t i = 0; i < nranges; ++i) {
      rvm::RangeImage img;
      img.region = 1;
      img.offset = offset;
      img.data.resize(1 + rng.Uniform(rng.Chance(1, 4) ? 8192 : 64));
      for (auto& b : img.data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      rec.ranges.push_back(std::move(img));
      // Sometimes jump past the 256 KB near-range bound to force an
      // absolute header mid-message.
      offset += rec.ranges.back().data.size() +
                (rng.Chance(1, 3) ? lbc::kNearRangeBound + 1 : 1 + rng.Uniform(4096));
    }
    return rec;
  }
};

TEST_P(RoundTripTest, UpdateRecord) {
  base::Rng rng(GetParam() * 0x9E3779B9u + 1);
  for (int i = 0; i < 50; ++i) {
    rvm::TransactionRecord rec = AnyRecord(rng);
    for (bool compress : {true, false}) {
      auto payload = lbc::EncodeUpdateRecord(rec, compress);
      auto type = lbc::PeekMsgType(base::ByteSpan(payload.data(), payload.size()));
      ASSERT_TRUE(type.ok());
      EXPECT_EQ(lbc::MsgType::kUpdate, *type);
      rvm::TransactionRecord out;
      ASSERT_TRUE(
          lbc::DecodeUpdate(base::ByteSpan(payload.data(), payload.size()), &out).ok());
      EXPECT_EQ(rec.node, out.node);
      EXPECT_EQ(rec.commit_seq, out.commit_seq);
      EXPECT_EQ(rec.locks, out.locks);
      EXPECT_EQ(rec.ranges, out.ranges);
    }
  }
}

TEST_P(RoundTripTest, LockRequest) {
  base::Rng rng(GetParam() * 0x9E3779B9u + 2);
  for (int i = 0; i < 200; ++i) {
    lbc::LockRequestMsg msg{1 + rng.Uniform(50),
                            static_cast<rvm::NodeId>(1 + rng.Uniform(100)), AnyU64(rng),
                            AnyU64(rng)};
    auto payload = lbc::EncodeLockRequest(msg);
    lbc::LockRequestMsg out;
    ASSERT_TRUE(
        lbc::DecodeLockRequest(base::ByteSpan(payload.data(), payload.size()), &out).ok());
    EXPECT_EQ(msg, out);
  }
}

TEST_P(RoundTripTest, LockForward) {
  base::Rng rng(GetParam() * 0x9E3779B9u + 3);
  for (int i = 0; i < 200; ++i) {
    lbc::LockForwardMsg msg{1 + rng.Uniform(50),
                            static_cast<rvm::NodeId>(1 + rng.Uniform(100)), AnyU64(rng),
                            AnyU64(rng)};
    auto payload = lbc::EncodeLockForward(msg);
    lbc::LockForwardMsg out;
    ASSERT_TRUE(
        lbc::DecodeLockForward(base::ByteSpan(payload.data(), payload.size()), &out).ok());
    EXPECT_EQ(msg, out);
  }
}

TEST_P(RoundTripTest, LockTokenWithPiggyback) {
  base::Rng rng(GetParam() * 0x9E3779B9u + 4);
  for (int i = 0; i < 30; ++i) {
    lbc::LockTokenMsg msg;
    msg.lock = 1 + rng.Uniform(50);
    msg.token_seq = AnyU64(rng);
    msg.epoch = AnyU64(rng);
    size_t npiggy = rng.Uniform(4);
    for (size_t p = 0; p < npiggy; ++p) {
      msg.piggyback.push_back(AnyRecord(rng));
    }
    for (bool compress : {true, false}) {
      auto payload = lbc::EncodeLockToken(msg, compress);
      lbc::LockTokenMsg out;
      ASSERT_TRUE(
          lbc::DecodeLockToken(base::ByteSpan(payload.data(), payload.size()), &out).ok());
      EXPECT_EQ(msg.lock, out.lock);
      EXPECT_EQ(msg.token_seq, out.token_seq);
      EXPECT_EQ(msg.epoch, out.epoch);
      ASSERT_EQ(msg.piggyback.size(), out.piggyback.size());
      for (size_t p = 0; p < npiggy; ++p) {
        EXPECT_EQ(msg.piggyback[p].node, out.piggyback[p].node);
        EXPECT_EQ(msg.piggyback[p].commit_seq, out.piggyback[p].commit_seq);
        EXPECT_EQ(msg.piggyback[p].locks, out.piggyback[p].locks);
        EXPECT_EQ(msg.piggyback[p].ranges, out.piggyback[p].ranges);
      }
    }
  }
}

TEST_P(RoundTripTest, LockRevoke) {
  base::Rng rng(GetParam() * 0x9E3779B9u + 5);
  for (int i = 0; i < 200; ++i) {
    lbc::LockRevokeMsg msg{1 + rng.Uniform(50), AnyU64(rng),
                           static_cast<rvm::NodeId>(1 + rng.Uniform(100))};
    auto payload = lbc::EncodeLockRevoke(msg);
    lbc::LockRevokeMsg out;
    ASSERT_TRUE(
        lbc::DecodeLockRevoke(base::ByteSpan(payload.data(), payload.size()), &out).ok());
    EXPECT_EQ(msg, out);
  }
}

TEST_P(RoundTripTest, LockRevokeReply) {
  base::Rng rng(GetParam() * 0x9E3779B9u + 6);
  for (int i = 0; i < 200; ++i) {
    lbc::LockRevokeReplyMsg msg;
    msg.lock = 1 + rng.Uniform(50);
    msg.epoch = AnyU64(rng);
    msg.node = 1 + rng.Uniform(100);
    msg.holding = rng.Chance(1, 2);
    msg.had_token = rng.Chance(1, 2);
    msg.token_seq = AnyU64(rng);
    msg.applied_seq = AnyU64(rng);
    auto payload = lbc::EncodeLockRevokeReply(msg);
    lbc::LockRevokeReplyMsg out;
    ASSERT_TRUE(
        lbc::DecodeLockRevokeReply(base::ByteSpan(payload.data(), payload.size()), &out)
            .ok());
    EXPECT_EQ(msg, out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest, ::testing::Range<uint64_t>(0, 4));

TEST(Robustness, LiveClientSurvivesGarbageTraffic) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  auto b = std::move(*lbc::Client::Create(&cluster, 2, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());
  ASSERT_TRUE(b->MapRegion(kRegion, 8192).ok());

  // A rogue endpoint floods client B with junk of every flavor.
  netsim::Endpoint* rogue = cluster.fabric()->AddNode(99);
  base::Rng rng(0xBAD);
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> junk(rng.Uniform(64));
    for (auto& byte : junk) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(rogue->Send(2, std::move(junk)).ok());
  }

  // The protocol still works end to end.
  {
    lbc::Transaction txn = a->Begin();
    ASSERT_TRUE(txn.Acquire(kLock).ok());
    ASSERT_TRUE(txn.SetRange(kRegion, 0, 5).ok());
    std::memcpy(a->GetRegion(kRegion)->data(), "alive", 5);
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(b->WaitForAppliedSeq(kLock, 1, 5000));
  EXPECT_EQ(0, std::memcmp(b->GetRegion(kRegion)->data(), "alive", 5));
}

TEST(Robustness, UpdateForUnknownLockIsTolerated) {
  // An update naming an undefined lock must not wedge the receiver: the
  // lock's region cannot be resolved, so the dimension is ignored.
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());

  rvm::TransactionRecord rec;
  rec.node = 2;
  rec.commit_seq = 1;
  rec.locks = {{9999, 5}};  // undefined lock
  rec.ranges.push_back({kRegion, 0, {42}});
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);
  ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(rec, true)).ok());

  // The range still applies (last-writer-wins for unsynchronized data).
  // Poll the receive counter, not the bytes (polling the bytes is a data
  // race). The counter is a lock-free read, so it does not order the apply
  // by itself: the receiver bumps it and then applies, both under the
  // client mutex. Taking that mutex afterwards (AppliedSeq does) waits for
  // the apply to finish and orders it before the check below.
  for (int i = 0; i < 1000 && a->stats().updates_received == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(1u, a->stats().updates_received);
  (void)a->AppliedSeq(kLock);
  EXPECT_EQ(42, a->GetRegion(kRegion)->data()[0]);
}

TEST(Robustness, UpdateForUnmappedRegionDropsBytesOnly) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());

  rvm::TransactionRecord rec;
  rec.node = 2;
  rec.commit_seq = 1;
  rec.locks = {{kLock, 1}};
  rec.ranges.push_back({/*region=*/77, 0, {1, 2, 3}});  // not mapped at A
  rec.ranges.push_back({kRegion, 10, {9}});
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);
  ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(rec, true)).ok());

  ASSERT_TRUE(a->WaitForAppliedSeq(kLock, 1, 5000));
  EXPECT_EQ(9, a->GetRegion(kRegion)->data()[10]);
}

TEST(Robustness, DuplicateUpdateIsIdempotent) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());

  rvm::TransactionRecord rec;
  rec.node = 2;
  rec.commit_seq = 1;
  rec.locks = {{kLock, 1}};
  rec.ranges.push_back({kRegion, 0, {5}});
  auto payload = lbc::EncodeUpdateRecord(rec, true);
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);
  ASSERT_TRUE(peer->Send(1, payload).ok());
  ASSERT_TRUE(peer->Send(1, payload).ok());  // retransmission

  ASSERT_TRUE(a->WaitForAppliedSeq(kLock, 1, 5000));
  for (int i = 0; i < 200 && a->stats().updates_duplicate == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(1u, a->stats().updates_applied);
  EXPECT_EQ(1u, a->stats().updates_duplicate);
  EXPECT_EQ(1u, a->AppliedSeq(kLock));
}

}  // namespace
