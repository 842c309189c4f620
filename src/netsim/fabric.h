// In-process message fabric standing in for the prototype's TCP/IP links.
//
// By default, semantics match what log-based coherency assumes of TCP:
// reliable, FIFO-ordered delivery per (sender, receiver) pair, with *no*
// ordering across different senders — which is precisely what makes the
// §3.4 sequence-number interlock necessary. Tests reproduce the paper's
// A->B->C token race deterministically with HoldLink/ReleaseLink.
//
// The fabric can also be made adversarial (an IP-like datagram network):
// per-link fault policies inject probabilistic message drop, duplication
// and extra delay (which reorders), and links can be partitioned outright.
// Fault decisions are drawn from per-link deterministic RNG streams seeded
// by SeedFaults, so a chaos run replays the same per-link loss pattern.
// ReliableChannel (reliable.h) restores exactly-once FIFO delivery on top.
//
// Every endpoint counts the bytes and messages it sends and receives; the
// Table 3 "Message Bytes" column is read off these counters.
#ifndef SRC_NETSIM_FABRIC_H_
#define SRC_NETSIM_FABRIC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <chrono>
#include <optional>
#include <queue>
#include <set>
#include <thread>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/obs/metrics.h"

namespace netsim {

using NodeId = uint32_t;

// A message is a small per-destination `header` (transport framing — e.g.
// the ReliableChannel seq prefix, which differs per peer) plus a refcounted
// immutable `payload` shared by every copy of the message: fan-out,
// duplication faults, and retransmits bump a refcount instead of copying
// the (potentially large) committed-tail bytes. An empty header means the
// payload is the whole wire image (raw messages).
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  std::vector<uint8_t> header;
  base::Buffer payload;

  size_t wire_size() const { return header.size() + payload.size(); }
};

// Everything an Endpoint counts. The Endpoint owns an
// EndpointCounts<obs::Counter>, exported as netsim.n<id>.<field>.
template <typename Count>
struct EndpointCounts {
  Count messages_sent{};
  Count bytes_sent{};
  Count messages_received{};
  Count bytes_received{};
  Count send_nanos{};  // wall time spent in Send ("Network I/O")
};

// Value snapshot that Endpoint::stats() fills from the instruments. It goes
// away once the benchmark reads the instruments directly.
struct EndpointStats : EndpointCounts<uint64_t> {};

// Probabilistic fault policy for one directed link (or the whole fabric,
// via SetDefaultFaults). All probabilities are in [0, 1].
struct LinkFaults {
  double drop_probability = 0.0;       // message silently vanishes
  double duplicate_probability = 0.0;  // delivered twice (back to back)
  // With delay_probability, a message takes an extra uniform delay in
  // [delay_min_micros, delay_max_micros] — and, unlike SetLinkDelay, is NOT
  // held behind earlier messages on the link, so delayed messages reorder.
  double delay_probability = 0.0;
  uint64_t delay_min_micros = 0;
  uint64_t delay_max_micros = 0;

  bool any() const {
    return drop_probability > 0 || duplicate_probability > 0 || delay_probability > 0;
  }
};

class Fabric;

// One node's attachment to the fabric. Thread-safe.
class Endpoint {
 public:
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId id() const { return id_; }

  // Reliable FIFO send. Fails if the destination does not exist or the
  // fabric is shut down. The payload is shared (refcounted), never copied;
  // std::vector arguments convert implicitly, adopting their storage.
  base::Status Send(NodeId to, base::Buffer payload);

  // Framed send: `header` carries per-destination transport bytes ahead of
  // the shared payload (see Message). Byte accounting covers both parts.
  base::Status Send(NodeId to, std::vector<uint8_t> header, base::Buffer payload);

  // Hardware-multicast model (§4.3.1): delivers `payload` to every node in
  // `to`, but the sender is charged for ONE message and one payload's bytes
  // — the cost structure of a multicast-capable network, in contrast to the
  // prototype's per-peer writev loop. Fan-out is a refcount bump per
  // recipient, not a copy. Per-pair FIFO ordering holds for each
  // recipient. Unknown recipients are skipped (counted in the result).
  base::Status Multicast(const std::vector<NodeId>& to, base::Buffer payload);

  // Blocking receive from any sender; empty after Shutdown.
  std::optional<Message> Receive();

  // Spawns a receiver thread that invokes `handler` for each message until
  // shutdown. At most one receiver thread per endpoint.
  void StartReceiver(std::function<void(Message&&)> handler);

  // Stops the receiver thread (idempotent). Queued messages stay queued.
  void StopReceiver();

  // Reads this endpoint's instruments (no lock taken).
  EndpointStats stats() const;

 private:
  friend class Fabric;
  Endpoint(Fabric* fabric, NodeId id);

  void Enqueue(Message&& msg);

  Fabric* fabric_;
  NodeId id_;

  mutable base::Mutex mu_{"netsim.endpoint", base::LockRank::kEndpoint};
  base::CondVar cv_;
  std::deque<Message> inbox_ LBC_GUARDED_BY(mu_);
  bool shutdown_ LBC_GUARDED_BY(mu_) = false;
  std::thread receiver_;
  bool receiver_running_ LBC_GUARDED_BY(mu_) = false;

  EndpointCounts<obs::Counter> m_;
  obs::Attachment attached_;
};

class Fabric {
 public:
  Fabric();
  ~Fabric() { Shutdown(); }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Creates an endpoint for `id`. The pointer stays valid for the fabric's
  // lifetime.
  Endpoint* AddNode(NodeId id);
  Endpoint* GetNode(NodeId id);
  std::vector<NodeId> Nodes() const;

  // --- fault / ordering injection ---------------------------------------

  // Buffers all messages on the (from, to) link until ReleaseLink. Used to
  // reproduce cross-sender races (e.g. the lock token overtaking an update).
  void HoldLink(NodeId from, NodeId to);
  // Delivers all held messages on the link, in order, and stops holding.
  void ReleaseLink(NodeId from, NodeId to);

  // Adds a fixed delivery latency to the (from, to) link. Per-link FIFO
  // order is preserved (a later message is never delivered before an
  // earlier one on the same link). 0 restores immediate delivery. Used to
  // model slow links and widen race windows without losing determinism of
  // ordering.
  void SetLinkDelay(NodeId from, NodeId to, uint64_t delay_micros);

  // Gray-failure injection: degrades the (from, to) link to a latency of
  // mean ± jitter microseconds per message (uniform, drawn from the link's
  // seeded fault RNG stream — see SeedFaults). Unlike the LinkFaults delay,
  // per-link FIFO order is preserved: the link is *slow*, not lossy or
  // reordering — the signature of a congested NIC or an overloaded switch
  // queue, which a failure detector must distinguish from a dead peer.
  // mean 0 with jitter 0 restores immediate delivery; jitter 0 is exactly
  // SetLinkDelay.
  void DegradeLink(NodeId from, NodeId to, uint64_t mean_micros,
                   uint64_t jitter_micros);

  // Installs a probabilistic fault policy on the (from, to) link,
  // overriding the fabric-wide default for that link. A default-constructed
  // LinkFaults clears the per-link policy (the default applies again).
  void SetLinkFaults(NodeId from, NodeId to, const LinkFaults& faults);

  // Fault policy for every link without a per-link override.
  void SetDefaultFaults(const LinkFaults& faults);

  // Reseeds the deterministic fault RNG streams. Each link draws from its
  // own stream (derived from `seed` and the link's node ids), so the
  // decision sequence on a link depends only on the messages sent over it —
  // chaos runs with a fixed seed and per-link send order replay exactly.
  void SeedFaults(uint64_t seed);

  // Partitions: messages on a partitioned directed link are silently
  // dropped (the sender's Send still succeeds, as with IP). Partition/Heal
  // affect both directions; the OneWay forms affect only (from, to).
  void Partition(NodeId a, NodeId b);
  void PartitionOneWay(NodeId from, NodeId to);
  void Heal(NodeId a, NodeId b);
  void HealOneWay(NodeId from, NodeId to);
  void HealAll();
  bool IsPartitioned(NodeId from, NodeId to) const;

  // Fault-injection outcomes, attached as netsim.fabric.<name>.
  struct FaultMetrics {
    obs::Counter dropped;      // messages lost to drop_probability
    obs::Counter duplicated;   // extra copies injected
    obs::Counter delayed;      // messages routed through the fault delay path
    obs::Counter partitioned;  // messages lost to a partition
    obs::Counter degraded;     // messages slowed by DegradeLink jitter
  };
  const FaultMetrics& fault_metrics() const { return fault_metrics_; }

  // Unblocks all receivers and joins receiver threads.
  void Shutdown();

 private:
  friend class Endpoint;

  base::Status Deliver(Message msg);
  void DelayThreadMain();
  // Queues msg on the delay thread for delivery at `deliver_at`; lazily
  // starts the thread.
  void ScheduleDelayedLocked(std::chrono::steady_clock::time_point deliver_at,
                             Message&& msg) LBC_REQUIRES(mu_);
  // The (possibly default) fault policy for a link.
  const LinkFaults& FaultsForLocked(NodeId from, NodeId to) const LBC_REQUIRES(mu_);
  base::Rng& FaultRngLocked(NodeId from, NodeId to) LBC_REQUIRES(mu_);

  mutable base::Mutex mu_{"netsim.fabric", base::LockRank::kFabric};
  std::map<NodeId, std::unique_ptr<Endpoint>> nodes_ LBC_GUARDED_BY(mu_);
  std::map<std::pair<NodeId, NodeId>, std::deque<Message>> held_ LBC_GUARDED_BY(mu_);
  bool shutdown_ LBC_GUARDED_BY(mu_) = false;

  // --- fault injection ----------------------------------------------------
  std::map<std::pair<NodeId, NodeId>, LinkFaults> link_faults_ LBC_GUARDED_BY(mu_);
  LinkFaults default_faults_ LBC_GUARDED_BY(mu_);
  uint64_t fault_seed_ LBC_GUARDED_BY(mu_) = 0;
  // One RNG stream per directed link, created on first use from fault_seed_.
  std::map<std::pair<NodeId, NodeId>, base::Rng> fault_rngs_ LBC_GUARDED_BY(mu_);
  std::set<std::pair<NodeId, NodeId>> partitions_ LBC_GUARDED_BY(mu_);
  FaultMetrics fault_metrics_;
  obs::Attachment attached_;

  // --- delayed delivery ---------------------------------------------------
  struct DelayedMessage {
    std::chrono::steady_clock::time_point deliver_at;
    uint64_t seq;  // tie-breaker preserving submission order
    Message msg;
    bool operator>(const DelayedMessage& other) const {
      return deliver_at != other.deliver_at ? deliver_at > other.deliver_at
                                            : seq > other.seq;
    }
  };
  // Fixed (SetLinkDelay) or jittered (DegradeLink) per-link latency.
  struct LinkDelay {
    uint64_t mean_us = 0;
    uint64_t jitter_us = 0;  // > 0 marks the link gray-degraded
  };
  std::map<std::pair<NodeId, NodeId>, LinkDelay> link_delay_us_ LBC_GUARDED_BY(mu_);
  // Last scheduled delivery per link, so FIFO survives delay changes.
  std::map<std::pair<NodeId, NodeId>, std::chrono::steady_clock::time_point>
      link_last_delivery_ LBC_GUARDED_BY(mu_);
  std::priority_queue<DelayedMessage, std::vector<DelayedMessage>,
                      std::greater<DelayedMessage>>
      delayed_ LBC_GUARDED_BY(mu_);
  uint64_t delay_seq_ LBC_GUARDED_BY(mu_) = 0;
  base::CondVar delay_cv_;
  std::thread delay_thread_;
  bool delay_thread_running_ LBC_GUARDED_BY(mu_) = false;
};

}  // namespace netsim

#endif  // SRC_NETSIM_FABRIC_H_
