// Page-locking DSM baseline (Monads / IVY style), the paper's "Page"
// comparison point: single writer per page, whole-page transfers,
// write-invalidate protocol with a centralized manager.
//
// Each node holds a full-size private buffer; page access rights are
// tracked per node. StartRead/StartWrite stand in for the read/write
// protection faults a VM-based implementation would take — benchmarks count
// them and charge fault cost via the cost model, while the protocol itself
// (manager forwarding, copyset invalidation, ownership transfer, page data
// messages) runs for real over the fabric.
#ifndef SRC_BASELINES_PAGE_DSM_H_
#define SRC_BASELINES_PAGE_DSM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/netsim/fabric.h"
#include "src/obs/metrics.h"

namespace baselines {

enum class PageAccess : uint8_t { kInvalid = 0, kRead = 1, kWrite = 2 };

class PageDsmNode {
 public:
  // All nodes share `fabric`; `manager` designates the (single, static)
  // manager node, which must also be constructed as a PageDsmNode. The
  // manager starts as owner of every page with the only valid copy.
  PageDsmNode(netsim::Fabric* fabric, netsim::NodeId id, netsim::NodeId manager,
              uint64_t len, uint64_t page_size = 8192);
  ~PageDsmNode();
  PageDsmNode(const PageDsmNode&) = delete;
  PageDsmNode& operator=(const PageDsmNode&) = delete;

  netsim::NodeId id() const { return id_; }
  uint8_t* data() { return buffer_.data(); }
  uint64_t size() const { return buffer_.size(); }
  uint64_t page_size() const { return page_size_; }
  uint64_t num_pages() const { return (buffer_.size() + page_size_ - 1) / page_size_; }

  // Ensures a readable (shared) copy of the page holding `offset`.
  base::Status StartRead(uint64_t offset);
  // Ensures exclusive write access to the page holding `offset`.
  base::Status StartWrite(uint64_t offset);

  PageAccess AccessOf(uint64_t page) const;

  // This node's protocol counts, readable without the node lock.
  struct Metrics {
    obs::Counter read_faults;   // StartRead calls that required the protocol
    obs::Counter write_faults;  // StartWrite calls that required the protocol
    obs::Counter pages_sent;    // whole-page data transfers sent by this node
    obs::Counter page_bytes_sent;
    obs::Counter invalidations_received;
  };
  const Metrics& metrics() const { return m_; }

  // Diagnostic snapshot of this node's per-page access rights and (on the
  // manager) the directory state — used when debugging protocol stalls.
  std::string DebugString(uint64_t page) const;

 private:
  enum class Msg : uint8_t {
    kReadReq = 1,    // requester -> manager
    kWriteReq = 2,   // requester -> manager
    kTransfer = 3,   // manager -> current owner: ship the page
    kData = 4,       // owner -> requester: page contents (+grant)
    kGrant = 5,      // manager -> requester: access granted, no data
    kInvalidate = 6, // manager -> copyset member
    kInvAck = 7,     // copyset member -> manager
    kDone = 8,       // requester -> manager: grant installed, page unbusy
  };

  struct PageDir {  // manager-side directory entry
    netsim::NodeId owner;
    std::set<netsim::NodeId> copyset;
    bool busy = false;  // a request is in flight for this page
    std::deque<base::Buffer> waiting;  // queued requests (raw msgs)
    // In-flight state:
    netsim::NodeId requester = 0;
    bool want_write = false;
    int acks_outstanding = 0;
  };

  void OnMessage(netsim::Message&& msg);
  void HandleRequest(netsim::NodeId from, uint64_t page, bool write,
                     base::Buffer raw);
  void GrantLocked(uint64_t page, PageDir& dir) LBC_REQUIRES(mu_);
  base::Status Fault(uint64_t offset, bool write);
  base::Status SendMsg(netsim::NodeId to, base::Buffer payload);

  netsim::Fabric* fabric_;
  netsim::NodeId id_;
  netsim::NodeId manager_;
  uint64_t page_size_;
  std::vector<uint8_t> buffer_;

  mutable base::Mutex mu_{"baselines.pagedsm", base::LockRank::kPageDsm};
  base::CondVar cv_;
  std::vector<PageAccess> access_ LBC_GUARDED_BY(mu_);
  // Bumps on every grant install.
  std::map<uint64_t, uint64_t> grant_gen_ LBC_GUARDED_BY(mu_);
  std::map<uint64_t, PageDir> directory_ LBC_GUARDED_BY(mu_);  // manager role only
  Metrics m_;
  netsim::Endpoint* endpoint_ = nullptr;
};

}  // namespace baselines

#endif  // SRC_BASELINES_PAGE_DSM_H_
