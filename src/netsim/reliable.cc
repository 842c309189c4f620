#include "src/netsim/reliable.h"

#include <algorithm>

#include "src/base/buffer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace netsim {
namespace {

// Frame tags, disjoint from lbc::MsgType (< 0x10) so raw traffic injected
// straight into an endpoint still parses as itself at the application.
constexpr uint8_t kDataTag = 0xD1;
constexpr uint8_t kAckTag = 0xA1;

// Headers carry only the channel's own framing; the application payload
// stays in Message::payload, untouched and refcount-shared.
std::vector<uint8_t> EncodeDataHeader(uint64_t seq) {
  base::Writer w;
  w.WriteU8(kDataTag);
  w.WriteVarint(seq);
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeAckHeader(uint64_t cumulative_seq) {
  base::Writer w;
  w.WriteU8(kAckTag);
  w.WriteVarint(cumulative_seq);
  return w.TakeBytes();
}

}  // namespace

ReliableChannel::ReliableChannel(Endpoint* endpoint, const ReliableChannelOptions& options)
    : endpoint_(endpoint),
      options_(options),
      attached_(obs::MetricsRegistry::Global(), obs::NodeMetricName("netsim", endpoint->id(), ""),
                {{"data_frames_sent", &m_.data_frames_sent},
                 {"retransmits", &m_.retransmits},
                 {"acks_sent", &m_.acks_sent},
                 {"frames_delivered", &m_.frames_delivered},
                 {"duplicates_dropped", &m_.duplicates_dropped},
                 {"out_of_order_buffered", &m_.out_of_order_buffered},
                 {"frames_abandoned", &m_.frames_abandoned},
                 {"raw_passthrough", &m_.raw_passthrough}}) {}

ReliableChannel::~ReliableChannel() { Shutdown(); }

base::Status ReliableChannel::Send(NodeId to, base::Buffer payload) {
  base::MutexLock lock(mu_);
  if (shutdown_) {
    return base::Unavailable("reliable channel shut down");
  }
  PeerSendState& peer = send_state_[to];
  uint64_t seq = peer.next_seq++;
  std::vector<uint8_t> header = EncodeDataHeader(seq);
  UnackedFrame entry;
  entry.header = header;
  entry.payload = payload;  // refcount bump; the bytes are shared, not copied
  entry.backoff_ms = options_.retransmit_initial_ms;
  entry.next_resend =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(entry.backoff_ms);
  peer.unacked.emplace(seq, std::move(entry));
  m_.data_frames_sent.Increment();
  if (!retransmit_thread_running_) {
    retransmit_thread_running_ = true;
    retransmit_thread_ = std::thread([this] { RetransmitThreadMain(); });
  }
  retransmit_cv_.NotifyOne();
  // Fabric sends never block on the receiver, so holding mu_ here only
  // orders channel state ahead of the wire (fabric locks are leaves).
  base::Status st = endpoint_->Send(to, std::move(header), std::move(payload));
  if (st.code() == base::StatusCode::kNotFound) {
    // Unknown destination will never ACK; don't retransmit into the void.
    peer.unacked.erase(seq);
  }
  return st;
}

void ReliableChannel::StartReceiver(std::function<void(Message&&)> handler) {
  {
    base::MutexLock lock(mu_);
    handler_ = std::move(handler);
  }
  endpoint_->StartReceiver([this](Message&& msg) { OnMessage(std::move(msg)); });
}

void ReliableChannel::OnMessage(Message&& msg) {
  if (msg.header.empty()) {
    // No channel framing: raw traffic injected straight into the endpoint
    // (tests, rogue senders) passes through verbatim.
    if (msg.payload.empty()) {
      return;
    }
    m_.raw_passthrough.Increment();
    std::function<void(Message&&)> handler;
    {
      base::MutexLock lock(mu_);
      handler = handler_;
    }
    if (handler) {
      handler(std::move(msg));
    }
    return;
  }

  base::Reader r(base::ByteSpan(msg.header.data(), msg.header.size()));
  uint8_t tag = 0;
  uint64_t seq = 0;
  if (!r.ReadU8(&tag).ok() || !r.ReadVarint(&seq).ok() ||
      (tag != kDataTag && tag != kAckTag)) {
    return;  // corrupt frame: drop; the sender will retransmit DATA
  }

  if (tag == kAckTag) {
    base::MutexLock lock(mu_);
    auto it = send_state_.find(msg.from);
    if (it != send_state_.end()) {
      auto& unacked = it->second.unacked;
      unacked.erase(unacked.begin(), unacked.upper_bound(seq));
    }
    return;
  }

  // DATA frame: the payload Buffer is handed to the application as-is
  // (refcount move), still sharing bytes with the sender's retransmit queue.
  std::vector<Message> deliver;
  uint64_t ack = 0;
  std::function<void(Message&&)> handler;
  {
    base::MutexLock lock(mu_);
    handler = handler_;
    PeerRecvState& peer = recv_state_[msg.from];
    if (seq <= peer.delivered) {
      m_.duplicates_dropped.Increment();  // retransmission of something delivered
    } else if (seq == peer.delivered + 1) {
      deliver.push_back(Message{msg.from, msg.to, {}, std::move(msg.payload)});
      peer.delivered = seq;
      // Drain any buffered successors that are now in order.
      auto it = peer.buffered.begin();
      while (it != peer.buffered.end() && it->first == peer.delivered + 1) {
        deliver.push_back(Message{msg.from, msg.to, {}, std::move(it->second)});
        peer.delivered = it->first;
        it = peer.buffered.erase(it);
      }
      m_.frames_delivered.Add(deliver.size());
    } else if (peer.buffered.emplace(seq, std::move(msg.payload)).second) {
      m_.out_of_order_buffered.Increment();
    } else {
      m_.duplicates_dropped.Increment();  // duplicate of an already-buffered frame
    }
    ack = peer.delivered;
  }
  m_.acks_sent.Increment();
  // Cumulative ACK: also re-acks duplicates, repairing lost ACKs. ACKs are
  // header-only messages (empty payload).
  base::IgnoreError(endpoint_->Send(msg.from, EncodeAckHeader(ack), base::Buffer()));
  if (handler) {
    for (auto& m : deliver) {
      handler(std::move(m));  // single receiver thread: order preserved
    }
  }
}

void ReliableChannel::RetransmitThreadMain() {
  base::MutexLock lock(mu_);
  while (!shutdown_) {
    // Earliest pending deadline across all peers.
    bool any = false;
    auto next = std::chrono::steady_clock::time_point::max();
    for (const auto& [node, peer] : send_state_) {
      for (const auto& [seq, frame] : peer.unacked) {
        any = true;
        next = std::min(next, frame.next_resend);
      }
    }
    if (!any) {
      retransmit_cv_.Wait(lock);
      continue;
    }
    // Sleep until the earliest deadline. The wait's return reason is
    // deliberately ignored: a spurious wakeup is indistinguishable from a
    // notify, and under a steady stream of Send() notifies, treating
    // no_timeout as "nothing due yet" would starve the scan below and stall
    // due frames for an extra backoff period. Instead, always re-derive what
    // is due from the state; frames whose deadline has not arrived are
    // skipped cheaply.
    retransmit_cv_.WaitUntil(lock, next);
    if (shutdown_) {
      break;
    }
    auto now = std::chrono::steady_clock::now();
    for (auto& [node, peer] : send_state_) {
      for (auto it = peer.unacked.begin(); it != peer.unacked.end();) {
        UnackedFrame& f = it->second;
        if (f.next_resend > now) {
          ++it;
          continue;
        }
        size_t frame_bytes = f.header.size() + f.payload.size();
        if (options_.max_retransmits != 0 && f.attempts >= options_.max_retransmits) {
          m_.frames_abandoned.Increment();
          obs::TraceRing::Global()->Emit(endpoint_->id(), obs::TraceType::kFrameAbandoned,
                                         /*lock=*/0, it->first, frame_bytes);
          it = peer.unacked.erase(it);
          continue;
        }
        ++f.attempts;
        m_.retransmits.Increment();
        obs::TraceRing::Global()->Emit(endpoint_->id(), obs::TraceType::kRetransmit,
                                       /*lock=*/0, it->first, frame_bytes);
        f.backoff_ms = std::min(f.backoff_ms * 2, options_.retransmit_max_ms);
        f.next_resend = now + std::chrono::milliseconds(f.backoff_ms);
        // Retransmit = header copy + payload refcount bump; the payload
        // bytes were allocated once, at the original Send.
        base::IgnoreError(
            endpoint_->Send(node, std::vector<uint8_t>(f.header), f.payload));
        ++it;
      }
    }
  }
}

void ReliableChannel::Shutdown() {
  {
    base::MutexLock lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  retransmit_cv_.NotifyAll();
  if (retransmit_thread_.joinable()) {
    retransmit_thread_.join();
  }
  endpoint_->StopReceiver();
}

void ReliableChannel::ForgetPeer(NodeId node) {
  base::MutexLock lock(mu_);
  send_state_.erase(node);
  recv_state_.erase(node);
}

bool ReliableChannel::AllAcked() const {
  base::MutexLock lock(mu_);
  for (const auto& [node, peer] : send_state_) {
    if (!peer.unacked.empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace netsim
