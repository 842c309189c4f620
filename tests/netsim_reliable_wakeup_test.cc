// Regression test for the retransmit thread's wakeup handling.
//
// Every Send() notifies the retransmit thread's condition variable. The old
// loop treated a notified wait (cv_status::no_timeout) as "new state, nothing
// due yet" and skipped the due-frame scan, so under a steady stream of sends
// — each one waking the thread just before the pending deadline — frames that
// were already due kept being postponed. Any spurious wakeup has the same
// signature, which is why the fix ignores the wait's return reason entirely
// and always re-derives due work from the unacked-frame state.
//
// The test forces that exact notify storm: one frame is stuck behind a
// one-way partition while a fast stream of further sends hammers the CV.
// Retransmissions of the stuck frame must keep firing *during* the storm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/netsim/fabric.h"
#include "src/netsim/reliable.h"

namespace {

TEST(ReliableChannelWakeup, NotifyStormDoesNotStarveRetransmits) {
  netsim::Fabric fabric;
  netsim::Endpoint* a = fabric.AddNode(1);
  netsim::Endpoint* b = fabric.AddNode(2);
  netsim::ReliableChannelOptions opts;
  opts.retransmit_initial_ms = 5;
  opts.retransmit_max_ms = 10;
  opts.max_retransmits = 0;  // never abandon: the partition outlives 50 tries
  netsim::ReliableChannel sender(a, opts);
  netsim::ReliableChannel receiver(b, opts);
  std::atomic<uint32_t> got{0};
  receiver.StartReceiver([&](netsim::Message&&) { got.fetch_add(1); });
  sender.StartReceiver([](netsim::Message&&) {});  // drains ACKs

  // DATA frames 1 -> 2 vanish silently; the reverse direction stays up.
  fabric.PartitionOneWay(1, 2);
  ASSERT_TRUE(sender.Send(2, {0x01}).ok());

  // Notify storm: each Send pokes the retransmit CV, so nearly every
  // wait_until in the retransmit thread returns as "notified" rather than
  // "timed out". With ~400 ms of storm and a 5-10 ms backoff, dozens of
  // retransmissions are due along the way.
  uint32_t storm_sends = 0;
  auto storm_end = std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < storm_end) {
    ASSERT_TRUE(sender.Send(2, {0x02}).ok());
    ++storm_sends;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(storm_sends, 20u);
  // The heart of the regression: due frames were rescanned and re-sent even
  // though every wakeup looked like a notify. A starved scan would sit at 0.
  EXPECT_GT(sender.metrics().retransmits.value(), 10u);
  EXPECT_EQ(0u, got.load());  // partition really dropped everything

  // Heal: retransmission repairs the backlog end to end, exactly once each.
  fabric.HealOneWay(1, 2);
  uint32_t total = 1 + storm_sends;
  for (int spin = 0; spin < 30000; ++spin) {
    if (got.load() >= total && sender.AllAcked()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(total, got.load());
  EXPECT_TRUE(sender.AllAcked());
  EXPECT_EQ(0u, sender.metrics().frames_abandoned.value());
  sender.Shutdown();
  receiver.Shutdown();
}

}  // namespace
