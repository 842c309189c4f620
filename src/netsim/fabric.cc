#include "src/netsim/fabric.h"

namespace netsim {

Endpoint::Endpoint(Fabric* fabric, NodeId id)
    : fabric_(fabric),
      id_(id),
      attached_(obs::MetricsRegistry::Global(), obs::NodeMetricName("netsim", id, ""),
                {{"messages_sent", &m_.messages_sent},
                 {"bytes_sent", &m_.bytes_sent},
                 {"messages_received", &m_.messages_received},
                 {"bytes_received", &m_.bytes_received},
                 {"send_nanos", &m_.send_nanos}}) {}

Endpoint::~Endpoint() { StopReceiver(); }

base::Status Endpoint::Send(NodeId to, base::Buffer payload) {
  return Send(to, std::vector<uint8_t>(), std::move(payload));
}

base::Status Endpoint::Send(NodeId to, std::vector<uint8_t> header,
                            base::Buffer payload) {
  obs::ScopedTimer timer(&m_.send_nanos);
  size_t bytes = header.size() + payload.size();
  RETURN_IF_ERROR(
      fabric_->Deliver(Message{id_, to, std::move(header), std::move(payload)}));
  timer.StopNanos();
  m_.messages_sent.Increment();
  m_.bytes_sent.Add(bytes);
  return base::OkStatus();
}

base::Status Endpoint::Multicast(const std::vector<NodeId>& to,
                                 base::Buffer payload) {
  obs::ScopedTimer timer(&m_.send_nanos);
  size_t bytes = payload.size();
  for (NodeId node : to) {
    // Refcount bump per recipient — every copy of the message shares the
    // one payload; the accounting below still charges one send.
    base::Status st = fabric_->Deliver(Message{id_, node, {}, payload});
    if (!st.ok() && st.code() != base::StatusCode::kNotFound) {
      return st;
    }
  }
  timer.StopNanos();
  m_.messages_sent.Increment();
  m_.bytes_sent.Add(bytes);
  return base::OkStatus();
}

std::optional<Message> Endpoint::Receive() {
  base::MutexLock lock(mu_);
  while (inbox_.empty() && !shutdown_) {
    cv_.Wait(lock);
  }
  if (inbox_.empty()) {
    return std::nullopt;
  }
  Message msg = std::move(inbox_.front());
  inbox_.pop_front();
  m_.messages_received.Increment();
  m_.bytes_received.Add(msg.wire_size());
  return msg;
}

void Endpoint::StartReceiver(std::function<void(Message&&)> handler) {
  {
    base::MutexLock lock(mu_);
    if (receiver_running_) {
      return;
    }
    receiver_running_ = true;
  }
  receiver_ = std::thread([this, handler = std::move(handler)] {
    while (auto msg = Receive()) {
      handler(std::move(*msg));
    }
  });
}

void Endpoint::StopReceiver() {
  {
    base::MutexLock lock(mu_);
    if (!receiver_running_) {
      return;
    }
    shutdown_ = true;
  }
  cv_.NotifyAll();
  if (receiver_.joinable()) {
    receiver_.join();
  }
  base::MutexLock lock(mu_);
  receiver_running_ = false;
  shutdown_ = false;  // endpoint stays usable for polling receives
}

EndpointStats Endpoint::stats() const {
  EndpointStats s;
  s.messages_sent = m_.messages_sent.value();
  s.bytes_sent = m_.bytes_sent.value();
  s.messages_received = m_.messages_received.value();
  s.bytes_received = m_.bytes_received.value();
  s.send_nanos = m_.send_nanos.value();
  return s;
}

void Endpoint::Enqueue(Message&& msg) {
  {
    base::MutexLock lock(mu_);
    inbox_.push_back(std::move(msg));
  }
  cv_.NotifyOne();
}

Fabric::Fabric()
    : attached_(obs::MetricsRegistry::Global(), "",
                {{"netsim.fabric.dropped", &fault_metrics_.dropped},
                 {"netsim.fabric.duplicated", &fault_metrics_.duplicated},
                 {"netsim.fabric.delayed", &fault_metrics_.delayed},
                 {"netsim.fabric.partitioned", &fault_metrics_.partitioned},
                 {"netsim.fabric.degraded", &fault_metrics_.degraded}}) {}

Endpoint* Fabric::AddNode(NodeId id) {
  base::MutexLock lock(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    return it->second.get();
  }
  auto endpoint = std::unique_ptr<Endpoint>(new Endpoint(this, id));
  Endpoint* raw = endpoint.get();
  nodes_[id] = std::move(endpoint);
  return raw;
}

Endpoint* Fabric::GetNode(NodeId id) {
  base::MutexLock lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> Fabric::Nodes() const {
  base::MutexLock lock(mu_);
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    ids.push_back(id);
  }
  return ids;
}

void Fabric::SetLinkDelay(NodeId from, NodeId to, uint64_t delay_micros) {
  DegradeLink(from, to, delay_micros, 0);
}

void Fabric::DegradeLink(NodeId from, NodeId to, uint64_t mean_micros,
                         uint64_t jitter_micros) {
  base::MutexLock lock(mu_);
  if (mean_micros == 0 && jitter_micros == 0) {
    link_delay_us_.erase({from, to});
    return;
  }
  link_delay_us_[{from, to}] = LinkDelay{mean_micros, jitter_micros};
  if (!delay_thread_running_) {
    delay_thread_running_ = true;
    delay_thread_ = std::thread([this] { DelayThreadMain(); });
  }
}

void Fabric::SetLinkFaults(NodeId from, NodeId to, const LinkFaults& faults) {
  base::MutexLock lock(mu_);
  if (!faults.any()) {
    link_faults_.erase({from, to});
    return;
  }
  link_faults_[{from, to}] = faults;
}

void Fabric::SetDefaultFaults(const LinkFaults& faults) {
  base::MutexLock lock(mu_);
  default_faults_ = faults;
}

void Fabric::SeedFaults(uint64_t seed) {
  base::MutexLock lock(mu_);
  fault_seed_ = seed;
  fault_rngs_.clear();
}

void Fabric::Partition(NodeId a, NodeId b) {
  base::MutexLock lock(mu_);
  partitions_.insert({a, b});
  partitions_.insert({b, a});
}

void Fabric::PartitionOneWay(NodeId from, NodeId to) {
  base::MutexLock lock(mu_);
  partitions_.insert({from, to});
}

void Fabric::Heal(NodeId a, NodeId b) {
  base::MutexLock lock(mu_);
  partitions_.erase({a, b});
  partitions_.erase({b, a});
}

void Fabric::HealOneWay(NodeId from, NodeId to) {
  base::MutexLock lock(mu_);
  partitions_.erase({from, to});
}

void Fabric::HealAll() {
  base::MutexLock lock(mu_);
  partitions_.clear();
}

bool Fabric::IsPartitioned(NodeId from, NodeId to) const {
  base::MutexLock lock(mu_);
  return partitions_.count({from, to}) != 0;
}

const LinkFaults& Fabric::FaultsForLocked(NodeId from, NodeId to) const {
  auto it = link_faults_.find({from, to});
  return it == link_faults_.end() ? default_faults_ : it->second;
}

base::Rng& Fabric::FaultRngLocked(NodeId from, NodeId to) {
  auto it = fault_rngs_.find({from, to});
  if (it == fault_rngs_.end()) {
    // Per-link stream: decisions on one link are independent of traffic on
    // every other link, so a fixed seed plus per-link send order replays.
    uint64_t stream = fault_seed_ ^ (0x9E3779B97F4A7C15ull * (from + 1)) ^
                      (0xC2B2AE3D27D4EB4Full * (to + 1));
    it = fault_rngs_.emplace(std::make_pair(from, to), base::Rng(stream)).first;
  }
  return it->second;
}

void Fabric::ScheduleDelayedLocked(std::chrono::steady_clock::time_point deliver_at,
                                   Message&& msg) {
  delayed_.push(DelayedMessage{deliver_at, delay_seq_++, std::move(msg)});
  if (!delay_thread_running_) {
    delay_thread_running_ = true;
    delay_thread_ = std::thread([this] { DelayThreadMain(); });
  }
  delay_cv_.NotifyOne();
}

void Fabric::DelayThreadMain() {
  base::MutexLock lock(mu_);
  while (true) {
    if (shutdown_) {
      return;
    }
    if (delayed_.empty()) {
      while (!shutdown_ && delayed_.empty()) {
        delay_cv_.Wait(lock);
      }
      continue;
    }
    auto now = std::chrono::steady_clock::now();
    // Copy the deadline: wait_until re-reads it after waking, and by then a
    // concurrent ScheduleDelayedLocked push may have reallocated the queue.
    auto deadline = delayed_.top().deliver_at;
    if (deadline > now) {
      delay_cv_.WaitUntil(lock, deadline);
      continue;
    }
    Message msg = std::move(const_cast<DelayedMessage&>(delayed_.top()).msg);
    delayed_.pop();
    auto it = nodes_.find(msg.to);
    if (it == nodes_.end()) {
      continue;
    }
    Endpoint* dest = it->second.get();
    lock.Unlock();
    dest->Enqueue(std::move(msg));
    lock.Lock();
  }
}

void Fabric::HoldLink(NodeId from, NodeId to) {
  base::MutexLock lock(mu_);
  held_.try_emplace({from, to});
}

void Fabric::ReleaseLink(NodeId from, NodeId to) {
  std::deque<Message> pending;
  Endpoint* dest = nullptr;
  {
    base::MutexLock lock(mu_);
    auto it = held_.find({from, to});
    if (it == held_.end()) {
      return;
    }
    pending = std::move(it->second);
    held_.erase(it);
    auto node_it = nodes_.find(to);
    dest = node_it == nodes_.end() ? nullptr : node_it->second.get();
  }
  if (dest != nullptr) {
    for (auto& msg : pending) {
      dest->Enqueue(std::move(msg));
    }
  }
}

void Fabric::Shutdown() {
  std::vector<Endpoint*> endpoints;
  bool join_delay_thread = false;
  {
    base::MutexLock lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    join_delay_thread = delay_thread_running_;
    for (auto& [id, node] : nodes_) {
      endpoints.push_back(node.get());
    }
  }
  delay_cv_.NotifyAll();
  if (join_delay_thread && delay_thread_.joinable()) {
    delay_thread_.join();
  }
  for (Endpoint* e : endpoints) {
    e->StopReceiver();
  }
}

base::Status Fabric::Deliver(Message msg) {
  const NodeId from = msg.from;
  const NodeId to = msg.to;
  Endpoint* dest = nullptr;
  bool duplicate = false;
  {
    base::MutexLock lock(mu_);
    if (shutdown_) {
      return base::Unavailable("fabric shut down");
    }
    auto held_it = held_.find({from, to});
    if (held_it != held_.end()) {
      held_it->second.push_back(std::move(msg));
      return base::OkStatus();
    }
    auto it = nodes_.find(to);
    if (it == nodes_.end()) {
      return base::NotFound("no such node: " + std::to_string(to));
    }
    if (partitions_.count({from, to}) != 0) {
      // The sender's datagram is gone; Send still reports success.
      fault_metrics_.partitioned.Increment();
      return base::OkStatus();
    }
    const LinkFaults& faults = FaultsForLocked(from, to);
    if (faults.any()) {
      base::Rng& rng = FaultRngLocked(from, to);
      // Draw every decision unconditionally so the stream position per
      // message is fixed regardless of which faults are enabled.
      bool drop = rng.NextDouble() < faults.drop_probability;
      duplicate = rng.NextDouble() < faults.duplicate_probability;
      bool delay = rng.NextDouble() < faults.delay_probability;
      uint64_t extra_us =
          faults.delay_max_micros > faults.delay_min_micros
              ? faults.delay_min_micros +
                    rng.Uniform(faults.delay_max_micros - faults.delay_min_micros + 1)
              : faults.delay_min_micros;
      if (drop) {
        fault_metrics_.dropped.Increment();
        return base::OkStatus();
      }
      if (duplicate) {
        fault_metrics_.duplicated.Increment();
      }
      if (delay) {
        // Deliberately NOT clamped behind earlier traffic on the link:
        // fault delay is the fabric's reordering mechanism.
        fault_metrics_.delayed.Increment();
        auto deliver_at =
            std::chrono::steady_clock::now() + std::chrono::microseconds(extra_us);
        if (duplicate) {
          // The duplicate shares the payload bytes (refcount bump).
          ScheduleDelayedLocked(deliver_at, Message(msg));
        }
        ScheduleDelayedLocked(deliver_at, std::move(msg));
        return base::OkStatus();
      }
    }
    auto delay_it = link_delay_us_.find({from, to});
    if (delay_it != link_delay_us_.end()) {
      const LinkDelay& d = delay_it->second;
      uint64_t extra_us = d.mean_us;
      if (d.jitter_us > 0) {
        // Gray degradation: jitter from the link's seeded stream, clamped
        // below by zero. FIFO is still preserved by the last-delivery clamp,
        // so the link stays slow-but-ordered.
        uint64_t lo = d.mean_us > d.jitter_us ? d.mean_us - d.jitter_us : 0;
        extra_us = lo + FaultRngLocked(from, to).Uniform(2 * d.jitter_us + 1);
        fault_metrics_.degraded.Increment();
      }
      // Schedule, preserving per-link order even across delay changes.
      auto deliver_at = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(extra_us);
      auto& last = link_last_delivery_[{from, to}];
      if (deliver_at < last) {
        deliver_at = last;
      }
      last = deliver_at;
      if (duplicate) {
        ScheduleDelayedLocked(deliver_at, Message(msg));
      }
      ScheduleDelayedLocked(deliver_at, std::move(msg));
      return base::OkStatus();
    }
    dest = it->second.get();
  }
  if (duplicate) {
    dest->Enqueue(Message(msg));
  }
  dest->Enqueue(std::move(msg));
  return base::OkStatus();
}

}  // namespace netsim
