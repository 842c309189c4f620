// Robustness: corrupt and adversarial message handling. Decoders must fail
// cleanly (no crash, no partial state) on arbitrary bytes, and a live
// client's receiver thread must survive garbage traffic.
#include <gtest/gtest.h>

#include <thread>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/lbc/client.h"
#include "src/lbc/wire_format.h"
#include "src/store/mem_store.h"
#include "tests/testing_records.h"

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
    (void)lbc::DecodeLockToken(base::Buffer::Copy(span), &token);
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
    testing_records::AddRange(&txn, 1, static_cast<uint64_t>(i) * 1000,
                              std::vector<uint8_t>(32, static_cast<uint8_t>(i)));
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
    std::vector<testing_records::Range> ranges;
    for (size_t i = 0; i < nranges; ++i) {
      testing_records::Range img;
      img.region = 1;
      img.offset = offset;
      img.data.resize(1 + rng.Uniform(rng.Chance(1, 4) ? 8192 : 64));
      for (auto& b : img.data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ranges.push_back(std::move(img));
      // Sometimes jump past the 256 KB near-range bound to force an
      // absolute header mid-message.
      offset += ranges.back().data.size() +
                (rng.Chance(1, 3) ? lbc::kNearRangeBound + 1 : 1 + rng.Uniform(4096));
    }
    return testing_records::Record(rec.node, rec.commit_seq, rec.locks, ranges);
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
      ASSERT_TRUE(lbc::DecodeLockToken(base::Buffer(payload), &out).ok());
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
  testing_records::AddRange(&rec, kRegion, 0, {42});
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
  testing_records::AddRange(&rec, /*region=*/77, 0, {1, 2, 3});  // not mapped at A
  testing_records::AddRange(&rec, kRegion, 10, {9});
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
  testing_records::AddRange(&rec, kRegion, 0, {5});
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

// Sends a one-lock update from `peer` (node 2) as a raw message: seq `seq`
// of kLock writing `ranges`.
void SendUpdate(netsim::Endpoint* peer, uint64_t seq,
                const std::vector<testing_records::Range>& ranges) {
  ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(
                                testing_records::Record(2, seq, {{kLock, seq}}, ranges), true))
                  .ok());
}

void WaitForReceived(lbc::Client* client, uint64_t n) {
  for (int i = 0; i < 5000 && client->stats().updates_received < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(n, client->stats().updates_received);
}

// The two-pass receive: the whole payload is validated before the apply
// walk writes its first byte. A message whose range k (of 8) is corrupt
// must leave the peer exactly as it was: no byte of ranges 0..k-1 lands,
// the lock's applied sequence stays, and the durable watermark it carries
// does not release the writer's carried record.
TEST(Robustness, PayloadRejectedAtRangeKAppliesNothing) {
  constexpr size_t kRanges = 8;
  constexpr size_t kBad = 5;
  constexpr rvm::LockId kProbe = 11;
  constexpr rvm::RegionId kProbeRegion = 2;
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  cluster.DefineLock(kProbe, kProbeRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());
  ASSERT_TRUE(a->MapRegion(kProbeRegion, 8192).ok());
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);

  // Node 2's seq 1 applies and is carried (its message said nothing is
  // durable yet).
  SendUpdate(peer, 1, {{kRegion, 1000, {'o', 'k'}}});
  ASSERT_TRUE(a->WaitForAppliedSeq(kLock, 1, 5000));
  auto carries_seq_1 = [&] {
    for (const rvm::TransactionRecord& rec : a->rvm()->CarriedFrom(2)) {
      if (rec.commit_seq == 1) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(carries_seq_1());
  const uint8_t* image = a->GetRegion(kRegion)->data();
  const std::vector<uint8_t> before(image, image + 8192);

  // Seq 2: eight delta-coded ranges 64 bytes apart, with a watermark that
  // would release seq 1. Each range header is tag, region, delta, length:
  // one byte each here.
  std::vector<testing_records::Range> ranges;
  for (size_t i = 0; i < kRanges; ++i) {
    ranges.push_back({kRegion, 64 * i, std::vector<uint8_t>(8, static_cast<uint8_t>(0xA0 + i))});
  }
  const rvm::TransactionRecord rec = testing_records::Record(2, 2, {{kLock, 2}}, ranges);
  const std::vector<uint8_t> good = lbc::EncodeUpdateRecord(rec, true, /*durable_seq=*/1);
  auto it = rec.ranges.begin();
  for (size_t i = 0; i < kBad; ++i) {
    ++it;
  }
  const size_t header = (good.size() - rec.payload.size()) + (it.header() - rec.payload.data());
  ASSERT_EQ(0x01, good[header]);  // a delta tag
  ASSERT_EQ(64, good[header + 2]);
  ASSERT_EQ(8, good[header + 3]);

  struct Fault {
    const char* name;
    std::vector<uint8_t> message;
  };
  std::vector<Fault> faults;
  auto with = [&](const char* name, auto edit) {
    std::vector<uint8_t> bad = good;
    edit(bad);
    faults.push_back({name, std::move(bad)});
  };
  with("bad tag", [&](std::vector<uint8_t>& m) { m[header] = 0x02; });
  with("non-minimal varint", [&](std::vector<uint8_t>& m) {
    m[header + 3] = 0x88;  // the length 8 spelled in two bytes
    m.insert(m.begin() + static_cast<std::ptrdiff_t>(header) + 4, 0x00);
  });
  with("out-of-bounds delta", [&](std::vector<uint8_t>& m) {
    base::Writer delta;
    delta.WriteVarint(rvm::kNearRangeBound);
    const std::vector<uint8_t> bytes = delta.TakeBytes();
    m.erase(m.begin() + static_cast<std::ptrdiff_t>(header) + 2);
    m.insert(m.begin() + static_cast<std::ptrdiff_t>(header) + 2, bytes.begin(), bytes.end());
  });
  with("trailing byte", [&](std::vector<uint8_t>& m) { m.push_back(0x00); });

  uint64_t probes = 0;
  for (const Fault& fault : faults) {
    SCOPED_TRACE(fault.name);
    rvm::TransactionRecord decoded;
    ASSERT_FALSE(lbc::DecodeUpdate(base::ByteSpan(fault.message), &decoded).ok());
    ASSERT_TRUE(peer->Send(1, fault.message).ok());
    // A probe behind it on the same FIFO link, on another lock and region,
    // with no watermark: once it applies, the corrupt message was handled.
    ++probes;
    ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(
                                  testing_records::Record(2, 100 + probes, {{kProbe, probes}},
                                                          {{kProbeRegion, 0, {'p'}}}),
                                  true))
                    .ok());
    ASSERT_TRUE(a->WaitForAppliedSeq(kProbe, probes, 5000));
    EXPECT_EQ(1u, a->AppliedSeq(kLock));
    EXPECT_EQ(before, std::vector<uint8_t>(image, image + 8192));
    EXPECT_TRUE(carries_seq_1());
  }
  EXPECT_EQ(1 + probes, a->stats().updates_received);

  // The uncorrupted message then applies every range and moves the
  // watermark.
  ASSERT_TRUE(peer->Send(1, good).ok());
  ASSERT_TRUE(a->WaitForAppliedSeq(kLock, 2, 5000));
  for (size_t i = 0; i < kRanges; ++i) {
    EXPECT_EQ(0xA0 + i, image[64 * i]);
  }
  EXPECT_FALSE(carries_seq_1());
}

TEST(Robustness, ReverseOrderedChainAppliesInSequence) {
  // 2000 single-lock updates arrive newest first: every one but the last
  // to arrive is held (§3.4), and each apply must wake exactly its
  // successor. Record i writes i into its own slot, and into slot 0 and
  // slot 1 + i % 16 shared with others, so applying any two out of sequence
  // leaves a shared slot different from the writer's image.
  constexpr uint64_t kCount = 2000;
  constexpr uint64_t kSlot = 8;
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  const uint64_t size = (kCount + 17) * kSlot;
  ASSERT_TRUE(a->MapRegion(kRegion, size).ok());
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);

  std::vector<uint8_t> writer(size, 0);
  auto ranges_of = [&](uint64_t i) {
    std::vector<uint8_t> value(kSlot);
    std::memcpy(value.data(), &i, kSlot);
    return std::vector<testing_records::Range>{{kRegion, 0, value},
                                               {kRegion, (1 + i % 16) * kSlot, value},
                                               {kRegion, (16 + i) * kSlot, value}};
  };
  for (uint64_t i = 1; i <= kCount; ++i) {
    for (const auto& r : ranges_of(i)) {
      std::memcpy(writer.data() + r.offset, r.data.data(), r.data.size());
    }
  }
  for (uint64_t i = kCount; i >= 2; --i) {
    SendUpdate(peer, i, ranges_of(i));
  }
  WaitForReceived(a.get(), kCount - 1);
  EXPECT_EQ(0u, a->AppliedSeq(kLock));
  SendUpdate(peer, 1, ranges_of(1));

  ASSERT_TRUE(a->WaitForAppliedSeq(kLock, kCount, 10000));
  const uint8_t* image = a->GetRegion(kRegion)->data();
  EXPECT_EQ(writer, std::vector<uint8_t>(image, image + size));
  EXPECT_EQ(kCount, a->stats().updates_applied);
  EXPECT_EQ(kCount - 1, a->stats().updates_held);
}

TEST(Robustness, VersionedReadsAcceptAppliesBufferedUpdatesInOrder) {
  // Under versioned reads, updates wait in the version buffer until
  // Accept; their message Buffers are gone by then, and the buffered
  // records arrive out of order, so Accept holds seq 3 until seq 2 applies.
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  lbc::ClientOptions opts;
  opts.versioned_reads = true;
  auto a = std::move(*lbc::Client::Create(&cluster, 1, opts));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);
  SendUpdate(peer, 3, {{kRegion, 4, {'3', '3', '3', '3'}}});
  SendUpdate(peer, 1, {{kRegion, 0, {'1', '1', '1', '1'}}});
  SendUpdate(peer, 2, {{kRegion, 2, {'2', '2', '2', '2'}}});
  WaitForReceived(a.get(), 3);

  const uint8_t* image = a->GetRegion(kRegion)->data();
  EXPECT_EQ(0u, a->AppliedSeq(kLock));  // takes the client mutex: orders the read below
  EXPECT_EQ(std::string(8, '\0'), std::string(image, image + 8));
  ASSERT_TRUE(a->Accept().ok());
  EXPECT_EQ(3u, a->AppliedSeq(kLock));
  EXPECT_EQ("11223333", std::string(image, image + 8));
  EXPECT_EQ(3u, a->stats().updates_applied);
}

TEST(Robustness, UnmapReleasesRecordsHeldOnItsLocks) {
  // A record is held on a lock whose region this node then unmaps: that
  // lock no longer gates anything here, so the record must still apply and
  // advance its other lock, or every later update on that lock waits
  // behind it forever.
  constexpr rvm::RegionId kOther = 2;
  constexpr rvm::LockId kOtherLock = 20;
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(kLock, kRegion, 1);
  cluster.DefineLock(kOtherLock, kOther, 1);
  auto a = std::move(*lbc::Client::Create(&cluster, 1, {}));
  ASSERT_TRUE(a->MapRegion(kRegion, 8192).ok());
  ASSERT_TRUE(a->MapRegion(kOther, 8192).ok());
  netsim::Endpoint* peer = cluster.fabric()->AddNode(2);

  // kLock seq 2 (its predecessor never comes) and kOtherLock seq 1.
  ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(
                                testing_records::Record(2, 1, {{kLock, 2}, {kOtherLock, 1}},
                                                        {{kOther, 0, {'x'}}}),
                                true))
                  .ok());
  WaitForReceived(a.get(), 1);
  EXPECT_EQ(0u, a->AppliedSeq(kOtherLock));
  ASSERT_TRUE(a->UnmapRegion(kRegion).ok());
  ASSERT_TRUE(peer->Send(1, lbc::EncodeUpdateRecord(
                                testing_records::Record(2, 2, {{kOtherLock, 2}},
                                                        {{kOther, 1, {'y'}}}),
                                true))
                  .ok());
  ASSERT_TRUE(a->WaitForAppliedSeq(kOtherLock, 2, 5000));
  const uint8_t* image = a->GetRegion(kOther)->data();
  EXPECT_EQ("xy", std::string(image, image + 2));
}

}  // namespace
