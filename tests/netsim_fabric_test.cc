// Fabric semantics: per-pair FIFO, cross-sender freedom, hold/release,
// stats, shutdown.
#include "src/netsim/fabric.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return std::vector<uint8_t>(b); }

TEST(Fabric, DeliversPointToPoint) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  ASSERT_TRUE(a->Send(2, Bytes({42})).ok());
  auto msg = b->Receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(1u, msg->from);
  EXPECT_EQ(2u, msg->to);
  EXPECT_EQ(42, msg->payload[0]);
}

TEST(Fabric, SendToUnknownNodeFails) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  EXPECT_EQ(base::StatusCode::kNotFound, a->Send(99, Bytes({1})).code());
}

TEST(Fabric, SelfSendWorks) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  ASSERT_TRUE(a->Send(1, Bytes({7})).ok());
  auto msg = a->Receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(7, msg->payload[0]);
}

TEST(Fabric, PerPairFifoOrder) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  for (uint8_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(a->Send(2, Bytes({i})).ok());
  }
  for (uint8_t i = 0; i < 100; ++i) {
    auto msg = b->Receive();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(i, msg->payload[0]);
  }
}

TEST(Fabric, AddNodeIsIdempotent) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  EXPECT_EQ(a, fabric.AddNode(1));
  EXPECT_EQ(a, fabric.GetNode(1));
  EXPECT_EQ(nullptr, fabric.GetNode(2));
}

TEST(Fabric, HoldLinkBuffersUntilRelease) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  auto* c = fabric.AddNode(3);
  fabric.HoldLink(1, 3);
  ASSERT_TRUE(a->Send(3, Bytes({1})).ok());  // held
  ASSERT_TRUE(a->Send(2, Bytes({2})).ok());  // unaffected link
  ASSERT_TRUE(b->Send(3, Bytes({3})).ok());  // other sender unaffected

  auto via_b = b->Receive();
  ASSERT_TRUE(via_b.has_value());
  auto from_b = c->Receive();
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(3, from_b->payload[0]);  // b's message overtakes a's held one

  fabric.ReleaseLink(1, 3);
  auto released = c->Receive();
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(1, released->payload[0]);
}

TEST(Fabric, ReleaseKeepsHeldOrder) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  fabric.HoldLink(1, 2);
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(a->Send(2, Bytes({i})).ok());
  }
  fabric.ReleaseLink(1, 2);
  for (uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(i, b->Receive()->payload[0]);
  }
}

TEST(Fabric, ReleaseUnheldLinkIsNoop) {
  netsim::Fabric fabric;
  fabric.AddNode(1);
  fabric.ReleaseLink(1, 1);  // must not crash
}

TEST(Fabric, StatsCountTraffic) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  ASSERT_TRUE(a->Send(2, Bytes({1, 2, 3})).ok());
  ASSERT_TRUE(a->Send(2, Bytes({4})).ok());
  b->Receive();
  b->Receive();
  netsim::EndpointStats sa = a->stats();
  netsim::EndpointStats sb = b->stats();
  EXPECT_EQ(2u, sa.messages_sent);
  EXPECT_EQ(4u, sa.bytes_sent);
  EXPECT_EQ(2u, sb.messages_received);
  EXPECT_EQ(4u, sb.bytes_received);
  // Counters never reset: a phase is the difference of two readings.
  const uint64_t sent_before = a->stats().messages_sent;
  EXPECT_EQ(0u, a->stats().messages_sent - sent_before);
  ASSERT_TRUE(a->Send(2, Bytes({5})).ok());
  EXPECT_EQ(1u, a->stats().messages_sent - sent_before);
}

TEST(Fabric, ReceiverThreadDrainsInbox) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  std::atomic<int> sum{0};
  b->StartReceiver([&](netsim::Message&& msg) { sum += msg.payload[0]; });
  for (uint8_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(a->Send(2, Bytes({i})).ok());
  }
  // Delivery is asynchronous: wait on the receiver thread with a deadline
  // rather than a spin count, which a busy host can exhaust.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sum != 55 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(55, sum);
  b->StopReceiver();
}

TEST(Fabric, ShutdownStopsSendsAndReceivers) {
  netsim::Fabric fabric;
  auto* a = fabric.AddNode(1);
  auto* b = fabric.AddNode(2);
  b->StartReceiver([](netsim::Message&&) {});
  fabric.Shutdown();
  EXPECT_EQ(base::StatusCode::kUnavailable, a->Send(2, Bytes({1})).code());
  fabric.Shutdown();  // idempotent
}

TEST(Fabric, ConcurrentSendersAllDelivered) {
  netsim::Fabric fabric;
  auto* sink = fabric.AddNode(99);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 250;
  for (int s = 0; s < kSenders; ++s) {
    fabric.AddNode(s + 1);
  }
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&fabric, s] {
      auto* ep = fabric.GetNode(s + 1);
      for (int i = 0; i < kPerSender; ++i) {
        ep->Send(99, std::vector<uint8_t>{static_cast<uint8_t>(s)}).ok();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int counts[kSenders] = {0};
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    auto msg = sink->Receive();
    ASSERT_TRUE(msg.has_value());
    ++counts[msg->payload[0]];
  }
  for (int s = 0; s < kSenders; ++s) {
    EXPECT_EQ(kPerSender, counts[s]);
  }
}

}  // namespace
