// Reliable exactly-once FIFO delivery over a faulty Fabric.
//
// The fabric's fault layer (fabric.h) turns links into IP-like datagram
// channels: messages may be dropped, duplicated or reordered. lbc::Client
// assumes TCP semantics — reliable FIFO per (sender, receiver) pair — so
// this layer restores them the way TCP does:
//
//   * every DATA frame on a (sender, receiver) link carries a per-link
//     sequence number;
//   * the receiver acknowledges cumulatively, delivers in sequence order,
//     buffers out-of-order arrivals, and drops duplicates;
//   * the sender retransmits unacknowledged frames on a timeout with capped
//     exponential backoff, abandoning a frame after max_retransmits (the
//     peer is presumed dead — see DESIGN.md "Failure model").
//
// Channel framing rides in Message::header (a one-byte tag >= 0xA0 plus a
// varint sequence number), leaving Message::payload untouched: the payload
// is the application's refcounted base::Buffer end to end, shared between
// the sender's retransmit queue, every fan-out recipient, and the receive
// handler — no copies anywhere on the path. Messages with an empty header
// (tests, rogue senders injecting straight into an endpoint) pass through
// verbatim; lbc's own message-type tags live in the payload and are < 0x10.
//
// Fast-path cost when no faults are injected: a few header bytes per DATA
// frame plus one small ACK message back per frame — no copies, no timer
// wakeups (the retransmit thread sleeps while nothing is unacknowledged,
// and immediate ACKs keep it that way).
#ifndef SRC_NETSIM_RELIABLE_H_
#define SRC_NETSIM_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/netsim/fabric.h"

namespace netsim {

struct ReliableChannelOptions {
  uint64_t retransmit_initial_ms = 20;  // first retransmission timeout
  uint64_t retransmit_max_ms = 320;     // exponential backoff cap
  // After this many retransmissions a frame is abandoned (its link stalls
  // until ForgetPeer; the peer is presumed dead). 0 retries forever.
  uint32_t max_retransmits = 50;
};

// Wraps an Endpoint with per-peer sequencing/ACK/retransmit state. The
// channel owns the endpoint's receiver thread: install the application
// handler with StartReceiver and send with Send; ACK frames never reach the
// handler, and DATA frames arrive exactly once, in per-sender order.
// Thread-safe.
class ReliableChannel {
 public:
  explicit ReliableChannel(Endpoint* endpoint, const ReliableChannelOptions& options = {});
  ~ReliableChannel();
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  Endpoint* endpoint() { return endpoint_; }

  // Frames and sends `payload` to `to` with at-least-once retransmission;
  // the peer's channel dedups to exactly-once. The payload bytes are shared
  // (refcounted) with the retransmit queue, never copied: one committed-tail
  // buffer can be Sent to N peers and retransmitted arbitrarily while
  // costing one allocation total.
  base::Status Send(NodeId to, base::Buffer payload);

  // Starts the endpoint receiver with the reliable-delivery filter in
  // front of `handler`. Message::payload handed to the handler is the
  // original un-framed payload.
  void StartReceiver(std::function<void(Message&&)> handler);

  // Stops the receiver and the retransmit thread (idempotent).
  void Shutdown();

  // Drops all state for a dead peer: unacknowledged frames to it and
  // receive-side sequencing from it.
  void ForgetPeer(NodeId node);

  // True when every frame sent so far has been acknowledged or abandoned.
  bool AllAcked() const;

  // One instrument per fact, attached at construction as
  // netsim.n<endpoint id>.<name>.
  struct Metrics {
    obs::Counter data_frames_sent;  // first transmissions only
    obs::Counter retransmits;
    obs::Counter acks_sent;
    obs::Counter frames_delivered;    // in-order deliveries to the handler
    obs::Counter duplicates_dropped;  // frames at or below the cumulative ack
    obs::Counter out_of_order_buffered;
    obs::Counter frames_abandoned;  // gave up after max_retransmits
    obs::Counter raw_passthrough;   // un-framed messages handed through
  };
  const Metrics& metrics() const { return m_; }

 private:
  struct UnackedFrame {
    std::vector<uint8_t> header;  // DATA tag + varint seq (per-peer framing)
    base::Buffer payload;         // shared with the original Send caller
    std::chrono::steady_clock::time_point next_resend;
    uint64_t backoff_ms = 0;
    uint32_t attempts = 0;  // retransmissions so far
  };

  struct PeerSendState {
    uint64_t next_seq = 1;
    std::map<uint64_t, UnackedFrame> unacked;  // keyed by sequence number
  };

  struct PeerRecvState {
    uint64_t delivered = 0;  // cumulative: all seqs <= this are delivered
    std::map<uint64_t, base::Buffer> buffered;  // out-of-order payloads
  };

  void OnMessage(Message&& msg);
  void RetransmitThreadMain();

  Endpoint* endpoint_;
  ReliableChannelOptions options_;
  Metrics m_;
  obs::Attachment attached_;

  mutable base::Mutex mu_{"netsim.reliable", base::LockRank::kReliable};
  base::CondVar retransmit_cv_;
  std::function<void(Message&&)> handler_ LBC_GUARDED_BY(mu_);
  std::map<NodeId, PeerSendState> send_state_ LBC_GUARDED_BY(mu_);
  std::map<NodeId, PeerRecvState> recv_state_ LBC_GUARDED_BY(mu_);
  std::thread retransmit_thread_;
  bool retransmit_thread_running_ LBC_GUARDED_BY(mu_) = false;
  bool shutdown_ LBC_GUARDED_BY(mu_) = false;
};

}  // namespace netsim

#endif  // SRC_NETSIM_RELIABLE_H_
