#include "src/baselines/page_dsm.h"

#include <cstring>

#include "src/base/buffer.h"
#include "src/base/logging.h"

namespace baselines {
namespace {

// Message layout: u8 msg | varint page | [payload]
std::vector<uint8_t> Encode(uint8_t msg, uint64_t page) {
  base::Writer w;
  w.WriteU8(msg);
  w.WriteVarint(page);
  return w.TakeBytes();
}

}  // namespace

PageDsmNode::PageDsmNode(netsim::Fabric* fabric, netsim::NodeId id, netsim::NodeId manager,
                         uint64_t len, uint64_t page_size)
    : fabric_(fabric), id_(id), manager_(manager), page_size_(page_size),
      buffer_(len, 0), access_((len + page_size - 1) / page_size, PageAccess::kInvalid) {
  if (id_ == manager_) {
    // Manager starts owning every page with the only valid (writable) copy.
    for (auto& a : access_) {
      a = PageAccess::kWrite;
    }
    for (uint64_t p = 0; p < num_pages(); ++p) {
      PageDir dir;
      dir.owner = manager_;
      dir.copyset = {manager_};
      directory_[p] = std::move(dir);
    }
  }
  endpoint_ = fabric_->AddNode(id_);
  endpoint_->StartReceiver([this](netsim::Message&& msg) { OnMessage(std::move(msg)); });
}

PageDsmNode::~PageDsmNode() { endpoint_->StopReceiver(); }

PageAccess PageDsmNode::AccessOf(uint64_t page) const {
  base::MutexLock lk(mu_);
  return access_[page];
}

std::string PageDsmNode::DebugString(uint64_t page) const {
  base::MutexLock lk(mu_);
  std::string out = "node " + std::to_string(id_) + ": access=";
  out += std::to_string(static_cast<int>(access_[page]));
  auto gen_it = grant_gen_.find(page);
  out += " gen=" + std::to_string(gen_it == grant_gen_.end() ? 0 : gen_it->second);
  auto it = directory_.find(page);
  if (it != directory_.end()) {
    const PageDir& dir = it->second;
    out += " [dir: owner=" + std::to_string(dir.owner) +
           " busy=" + std::to_string(dir.busy) +
           " waiting=" + std::to_string(dir.waiting.size()) +
           " acks=" + std::to_string(dir.acks_outstanding) +
           " copyset={";
    for (netsim::NodeId n : dir.copyset) {
      out += std::to_string(n) + ",";
    }
    out += "}]";
  }
  return out;
}

base::Status PageDsmNode::SendMsg(netsim::NodeId to, base::Buffer payload) {
  return endpoint_->Send(to, std::move(payload));
}

base::Status PageDsmNode::Fault(uint64_t offset, bool write) {
  uint64_t page = offset / page_size_;
  base::MutexLock lk(mu_);
  if (page >= access_.size()) {
    return base::OutOfRange("offset beyond DSM buffer");
  }
  // The access check is written out inline (not a lambda) so the thread-
  // safety analysis sees every guarded read under the capability.
  bool satisfied = write ? access_[page] == PageAccess::kWrite
                         : access_[page] != PageAccess::kInvalid;
  if (satisfied) {
    return base::OkStatus();
  }
  if (write) {
    m_.write_faults.Increment();
  } else {
    m_.read_faults.Increment();
  }
  // Request/grant loop: a grant can be undone by a racing invalidation
  // before we observe it, in which case we simply fault again. The request
  // carries the requester id explicitly because the manager re-injects
  // queued requests to itself (transport `from` would name the manager).
  while (true) {
    satisfied = write ? access_[page] == PageAccess::kWrite
                      : access_[page] != PageAccess::kInvalid;
    if (satisfied) {
      break;
    }
    uint64_t gen = grant_gen_[page];
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(write ? Msg::kWriteReq : Msg::kReadReq));
    w.WriteVarint(page);
    w.WriteVarint(id_);
    lk.Unlock();
    RETURN_IF_ERROR(SendMsg(manager_, w.TakeBytes()));
    lk.Lock();
    while (grant_gen_[page] == gen) {
      cv_.Wait(lk);
    }
  }
  return base::OkStatus();
}

base::Status PageDsmNode::StartRead(uint64_t offset) { return Fault(offset, false); }
base::Status PageDsmNode::StartWrite(uint64_t offset) { return Fault(offset, true); }

void PageDsmNode::OnMessage(netsim::Message&& msg) {
  base::Reader r(base::ByteSpan(msg.payload.data(), msg.payload.size()));
  uint8_t type = 0;
  uint64_t page = 0;
  if (!r.ReadU8(&type).ok() || !r.ReadVarint(&page).ok()) {
    LBC_LOG(Error) << "bad page-DSM message";
    return;
  }
  switch (static_cast<Msg>(type)) {
    case Msg::kReadReq:
    case Msg::kWriteReq: {
      uint64_t requester = 0;
      if (!r.ReadVarint(&requester).ok()) {
        return;
      }
      HandleRequest(static_cast<netsim::NodeId>(requester), page,
                    static_cast<Msg>(type) == Msg::kWriteReq, std::move(msg.payload));
      break;
    }

    case Msg::kTransfer: {
      // Manager asks us (the owner) to ship the page to the requester.
      uint64_t requester = 0, want_write = 0;
      if (!r.ReadVarint(&requester).ok() || !r.ReadVarint(&want_write).ok()) {
        return;
      }
      std::vector<uint8_t> data_msg;
      {
        base::MutexLock lk(mu_);
        uint64_t start = page * page_size_;
        uint64_t len = std::min<uint64_t>(page_size_, buffer_.size() - start);
        base::Writer w;
        w.WriteU8(static_cast<uint8_t>(Msg::kData));
        w.WriteVarint(page);
        w.WriteU8(want_write ? 1 : 0);
        w.WriteBytes(buffer_.data() + start, len);
        data_msg = w.TakeBytes();
        // Ownership moves on writes, so our copy dies; reads demote us to
        // a shared copy.
        access_[page] = want_write ? PageAccess::kInvalid : PageAccess::kRead;
        m_.pages_sent.Increment();
        m_.page_bytes_sent.Add(len);
      }
      base::IgnoreError(SendMsg(static_cast<netsim::NodeId>(requester), data_msg));
      break;
    }

    case Msg::kData: {
      uint8_t write_grant = 0;
      base::ByteSpan bytes;
      if (!r.ReadU8(&write_grant).ok() || !r.ReadBytes(r.remaining(), &bytes).ok()) {
        return;
      }
      {
        base::MutexLock lk(mu_);
        std::memcpy(buffer_.data() + page * page_size_, bytes.data(), bytes.size());
        access_[page] = write_grant ? PageAccess::kWrite : PageAccess::kRead;
        ++grant_gen_[page];
      }
      cv_.NotifyAll();
      // Tell the manager the transfer is complete so it can serve the next
      // request for this page.
      base::IgnoreError(
          SendMsg(manager_, Encode(static_cast<uint8_t>(Msg::kDone), page)));
      break;
    }

    case Msg::kGrant: {
      uint8_t write_grant = 0;
      base::IgnoreError(r.ReadU8(&write_grant));
      {
        base::MutexLock lk(mu_);
        access_[page] = write_grant ? PageAccess::kWrite : PageAccess::kRead;
        ++grant_gen_[page];
      }
      cv_.NotifyAll();
      base::IgnoreError(
          SendMsg(manager_, Encode(static_cast<uint8_t>(Msg::kDone), page)));
      break;
    }

    case Msg::kInvalidate: {
      {
        base::MutexLock lk(mu_);
        access_[page] = PageAccess::kInvalid;
        m_.invalidations_received.Increment();
      }
      base::IgnoreError(
          SendMsg(manager_, Encode(static_cast<uint8_t>(Msg::kInvAck), page)));
      break;
    }

    case Msg::kInvAck: {
      base::MutexLock lk(mu_);
      auto it = directory_.find(page);
      if (it == directory_.end() || !it->second.busy) {
        return;
      }
      PageDir& dir = it->second;
      if (--dir.acks_outstanding == 0) {
        GrantLocked(page, dir);
      }
      break;
    }

    case Msg::kDone: {
      base::Buffer next;
      {
        base::MutexLock lk(mu_);
        auto it = directory_.find(page);
        if (it == directory_.end()) {
          return;
        }
        PageDir& dir = it->second;
        dir.busy = false;
        if (!dir.waiting.empty()) {
          next = std::move(dir.waiting.front());
          dir.waiting.pop_front();
        }
      }
      if (!next.empty()) {
        // Re-inject the queued request through the normal path.
        base::IgnoreError(SendMsg(id_, next));
      }
      break;
    }
  }
}

void PageDsmNode::HandleRequest(netsim::NodeId from, uint64_t page, bool write,
                                base::Buffer raw) {
  base::MutexLock lk(mu_);
  PageDir& dir = directory_[page];
  if (dir.busy) {
    // One request per page at a time; replay the rest on kDone.
    dir.waiting.push_back(std::move(raw));
    return;
  }
  if (!write && dir.copyset.count(from)) {
    // Requester raced an invalidation but a read copy is valid again; the
    // retry loop in Fault() will notice. Grant directly.
  }
  dir.busy = true;
  dir.requester = from;
  dir.want_write = write;
  dir.acks_outstanding = 0;

  if (write) {
    for (netsim::NodeId member : dir.copyset) {
      if (member == from || member == dir.owner) {
        continue;  // requester keeps its copy; owner invalidates at transfer
      }
      ++dir.acks_outstanding;
      base::IgnoreError(
          SendMsg(member, Encode(static_cast<uint8_t>(Msg::kInvalidate), page)));
    }
  }
  if (dir.acks_outstanding == 0) {
    GrantLocked(page, dir);
  }
}

void PageDsmNode::GrantLocked(uint64_t page, PageDir& dir) {
  netsim::NodeId requester = dir.requester;
  bool write = dir.want_write;

  if (dir.owner == requester) {
    // Upgrade in place: the requester already holds the data.
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(Msg::kGrant));
    w.WriteVarint(page);
    w.WriteU8(write ? 1 : 0);
    base::IgnoreError(SendMsg(requester, w.TakeBytes()));
  } else {
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(Msg::kTransfer));
    w.WriteVarint(page);
    w.WriteVarint(requester);
    w.WriteVarint(write ? 1 : 0);
    base::IgnoreError(SendMsg(dir.owner, w.TakeBytes()));
  }

  if (write) {
    dir.owner = requester;
    dir.copyset = {requester};
  } else {
    dir.copyset.insert(requester);
  }
  // dir.busy stays true until the requester's kDone confirms installation.
}

}  // namespace baselines
