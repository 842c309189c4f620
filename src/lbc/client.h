// Client: one node of the cached persistent store, combining
//
//   * an rvm::Rvm instance (the node's recoverable virtual memory and its
//     per-node redo log on the shared storage service),
//   * a lock agent implementing the paper's token-based distributed segment
//     locks with a centralized per-lock manager and a distributed waiter
//     queue (§3.3), and
//   * the coherency manager: at commit, the same new-value information that
//     went to the log is broadcast to every peer that has the modified
//     regions mapped; received updates are applied to the local cached
//     image under the §3.4 sequence-number interlock.
//
// The application-facing surface is the Table 1 interface, wrapped in a
// move-only Transaction handle:
//
//   lbc::Transaction txn = client->Begin();
//   txn.Acquire(kPartsLock);               // Trans.Acquire
//   txn.SetRange(kRegion, offset, size);   // Trans.SetRange
//   ... mutate client->GetRegion(kRegion)->data() directly ...
//   txn.Commit();                          // Trans.Commit
//
// Locks follow strict two-phase locking: acquired inside the transaction,
// all released at commit (or abort).
#ifndef SRC_LBC_CLIENT_H_
#define SRC_LBC_CLIENT_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/lbc/cluster.h"
#include "src/obs/metrics.h"
#include "src/lbc/wire_format.h"
#include "src/netsim/fabric.h"
#include "src/netsim/reliable.h"
#include "src/rvm/rvm.h"

namespace lbc {

// When committed updates travel to peers (§2.2).
enum class PropagationPolicy {
  // Broadcast the committed log tail to all peers mapping the modified
  // regions, at commit (the prototype's policy: simple, failure-tolerant,
  // lowest read latency).
  kEager,
  // Retain committed records at the writer; ship them with the lock token
  // when the next acquirer requests it (Midway-style). Transactions are
  // limited to one segment lock under this policy (see DESIGN.md).
  kLazy,
  // §2.2's other lazy variant: committed records are published to an
  // in-memory cache at the storage server; acquirers fetch the records they
  // are missing before the acquire completes. Same single-lock restriction
  // as kLazy.
  kLazyServer,
};

struct ClientOptions {
  rvm::RvmOptions rvm;
  PropagationPolicy policy = PropagationPolicy::kEager;
  // §3.2 header compression; off emulates standard RVM 104-byte headers.
  bool compress_headers = true;
  // §4.3.1: use the fabric's multicast primitive for eager propagation
  // instead of one point-to-point send per peer — the paper's remedy for
  // large client populations.
  bool use_multicast = false;
  // §2.1 versioned-read model: incoming updates are buffered and only
  // applied when the application calls Accept() (or acquires a lock, which
  // implies acceptance). Readers thus operate on a stable consistent
  // snapshot while writers progress elsewhere.
  bool versioned_reads = false;
  // Failure detector. With heartbeat_interval_ms > 0 a background thread
  // renews this node's lease in the cluster's liveness registry; if
  // lease_timeout_ms > 0 too, the same thread watches for peers whose lease
  // lapsed and runs OnPeerDeath for them. Both default off: tests and
  // benches drive death detection explicitly.
  uint64_t heartbeat_interval_ms = 0;
  uint64_t lease_timeout_ms = 0;
  // --- deadline / backoff budgets (gray-failure tolerance) ------------------
  // Every Table 1 op completes within a budget rather than blocking
  // indefinitely behind a gray peer. Begin and SetRange are local and
  // satisfy any budget trivially; the budgets bite on the blocking ops:
  //   * Acquire: with op_deadline_ms > 0, an acquire that cannot obtain the
  //     token (or drain the interlock) within the budget fails with
  //     DEADLINE_EXCEEDED instead of waiting forever. A token that arrives
  //     later is kept (the next acquire uses it); the failed transaction
  //     should be aborted and retried.
  //   * Commit / MapRegion: when the server sheds the operation with
  //     OVERLOADED (admission control, see Cluster::Admit), the client
  //     retries up to overload_retries times with jittered exponential
  //     backoff — backoff_base_ms doubling per attempt, capped at
  //     backoff_max_ms, floored at the server's retry-after hint, jittered
  //     uniformly in [1/2, 1]× from a seeded stream. A shed commit leaves
  //     the transaction open and untouched, so Commit may simply be called
  //     again. The rvm-side log-quota stall bounds the commit's disk wait
  //     separately (RvmOptions::backpressure_stall_ms).
  uint64_t op_deadline_ms = 0;  // 0 = block indefinitely
  uint32_t overload_retries = 4;
  uint64_t backoff_base_ms = 1;
  uint64_t backoff_max_ms = 64;
  uint64_t backoff_seed = 0xB0FF;
};

// Everything a Client counts, one field per fact. The Client owns a
// ClientCounts<obs::Counter>, exported as lbc.n<node>.<field> except as
// noted.
template <typename Count>
struct ClientCounts {
  Count updates_sent{};        // coherency messages sent (per peer)
  Count update_bytes_sent{};   // payload bytes of those messages
  Count updates_received{};
  Count updates_applied{};     // transactions applied to local cache
  Count updates_held{};        // arrived out of order, buffered (§3.4)
  Count updates_duplicate{};   // already applied (lazy + eager overlap)
  Count lock_messages_sent{};
  Count acquire_waits{};       // acquires that blocked on the interlock
  Count network_nanos{};       // time in Send during commit broadcast
  Count records_fetched{};     // records pulled from the server cache
  Count locks_reclaimed{};     // reclaim rounds started as manager
  Count revokes_received{};    // revoke messages processed as mapper
  Count overload_retries{};    // ops re-submitted after a shed (gray.retries)
  Count deadline_misses{};     // ops that exhausted op_deadline_ms (gray.deadline_misses)
};

// Value snapshot that Client::stats() fills from the instruments. It goes
// away once the benchmark reads the instruments directly.
struct ClientStats : ClientCounts<uint64_t> {};

class Client;

// Move-only transaction handle (Table 1). Commit/Abort close the handle;
// destruction of an open handle aborts it.
class Transaction {
 public:
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(Transaction&& other) noexcept;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  ~Transaction();

  // Acquires a segment lock (blocking; strict 2PL — released at commit).
  base::Status Acquire(rvm::LockId lock);

  // Declares intent to modify [offset, offset+len) of `region`.
  base::Status SetRange(rvm::RegionId region, uint64_t offset, uint64_t len);

  base::Status Commit(rvm::CommitMode mode = rvm::CommitMode::kFlush);
  base::Status Abort();

  bool open() const { return open_; }
  rvm::TxnId id() const { return tid_; }

 private:
  friend class Client;
  Transaction(Client* client, rvm::TxnId tid) : client_(client), tid_(tid), open_(true) {}

  Client* client_ = nullptr;
  rvm::TxnId tid_ = 0;
  bool open_ = false;
  // Read-only transactions (no SetRange) hand their lock sequence numbers
  // back at commit, since no update message will ever exist for them.
  bool has_updates_ = false;
  std::vector<rvm::LockRecord> held_;
};

class Client {
 public:
  // Creates the node, attaches it to the cluster fabric, and starts its
  // receiver thread.
  static base::Result<std::unique_ptr<Client>> Create(Cluster* cluster, rvm::NodeId node,
                                                      const ClientOptions& options);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  rvm::NodeId node() const { return node_; }
  rvm::Rvm* rvm() { return rvm_.get(); }

  // Maps a region into this node's cache and registers the mapping with the
  // cluster so peers' commits reach us.
  base::Result<rvm::Region*> MapRegion(rvm::RegionId region, uint64_t length);
  rvm::Region* GetRegion(rvm::RegionId region) { return rvm_->GetRegion(region); }

  // Drops the region from this cache and withdraws from the peer set;
  // subsequent commits by peers no longer reach this node.
  base::Status UnmapRegion(rvm::RegionId region);

  // Regions currently mapped by this client.
  std::vector<rvm::RegionId> MappedRegions() const;

  Transaction Begin(rvm::RestoreMode mode = rvm::RestoreMode::kRestore);

  // Versioned-read model: applies all buffered updates, moving this node's
  // cache forward to the newest consistent committed state (§2.1 "accept").
  base::Status Accept();

  // Highest update sequence applied locally for `lock`.
  uint64_t AppliedSeq(rvm::LockId lock) const;

  // Lazy policy: committed records currently retained for `lock` (waiting
  // for every peer to catch up before they may be discarded, §2.2).
  size_t RetainedCount(rvm::LockId lock) const;

  // Test helper: blocks until updates through `seq` have been applied for
  // `lock`, or `timeout_ms` elapses.
  bool WaitForAppliedSeq(rvm::LockId lock, uint64_t seq, int timeout_ms);

  // Reads every instrument of this client (no lock taken). Counts are this
  // client's own; the process-wide exports sum all clients.
  ClientStats stats() const;

  // Detaches from the fabric (stops the receiver and heartbeat threads)
  // without destroying local state; used by crash tests. No messages are
  // sent or received afterwards.
  void Disconnect();

  // Client-failure recovery, run at a *surviving* node when `dead` is known
  // to have failed (lease lapsed, or a test declares it): merges the dead
  // node's durable log server-side (Cluster::RecoverDeadClient), then — for
  // every lock this node manages — reclaims the token in case the dead node
  // held or was queued for it, reissuing it at the correct sequence number.
  // Locks managed by other live nodes are reclaimed by *their* managers'
  // OnPeerDeath calls; a dead manager is out of scope (see DESIGN.md).
  // Idempotent; safe to call from multiple survivors concurrently.
  base::Status OnPeerDeath(rvm::NodeId dead);

  // Re-registers this node with a restarted server: liveness, region
  // mappings, and applied-sequence reports (the soft directory state a
  // server crash wiped). Client-resident state — lock tokens, sequence
  // numbers, the cached images, the redo log — carries over untouched, so
  // commits resume exactly where they left off. Idempotent; invoked
  // automatically by the heartbeat thread when it observes a new server
  // epoch, or explicitly by a driver after Cluster::RestartServer.
  base::Status RejoinServer();

 private:
  friend class Transaction;

  struct LockState {
    bool have_token = false;
    uint64_t token_seq = 0;  // last completed acquire (valid when have_token)
    bool held = false;       // held by a local transaction
    bool requested = false;  // token request outstanding
    // Forward received while holding: pass the token here on release.
    std::optional<LockForwardMsg> next_holder;
    // Manager role: current queue tail (last requester).
    rvm::NodeId queue_tail = 0;
    // Lazy policy: retained committed records for this lock, oldest first.
    std::deque<rvm::TransactionRecord> retained;
    // Revocation epoch (see wire_format.h). Bumped by the manager per
    // reclaim; lock messages with a lower epoch are stale and dropped.
    uint64_t epoch = 0;
    // Manager role: in-flight reclaim round (token revocation after a peer
    // death). pending = mappers whose revoke reply is still outstanding;
    // owner = live node that nacked because a local transaction holds the
    // lock (0 if none); max_seq = highest token/applied sequence reported.
    bool reclaiming = false;
    std::set<rvm::NodeId> reclaim_pending;
    rvm::NodeId reclaim_owner = 0;
    uint64_t reclaim_max_seq = 0;
  };

  Client(Cluster* cluster, rvm::NodeId node, const ClientOptions& options);

  base::Status Init();

  // --- commit path ---------------------------------------------------------
  void OnCommit(const rvm::CommitContext& ctx);
  void BroadcastEager(const rvm::CommitContext& ctx);
  void RetainForLazy(const rvm::CommitContext& ctx);
  void PublishToServer(const rvm::CommitContext& ctx);
  static rvm::TransactionRecord MaterializeRecord(const rvm::CommitContext& ctx);

  // --- lock operations (called by Transaction) ------------------------------
  base::Result<uint64_t> AcquireLock(rvm::LockId lock);
  // committed_updates=false (abort / read-only commit) hands sequence
  // numbers back instead of advancing the applied counters.
  void ReleaseLocks(const std::vector<rvm::LockRecord>& held, bool committed_updates);

  // --- receive path ----------------------------------------------------------
  void OnMessage(netsim::Message&& msg);
  void HandleUpdate(rvm::TransactionRecord&& rec);
  void HandleLockRequest(const LockRequestMsg& msg);
  void HandleLockForward(const LockForwardMsg& msg);
  void HandleForwardLocked(const LockForwardMsg& msg) LBC_REQUIRES(mu_);
  void HandleLockToken(LockTokenMsg&& msg);
  void HandleLockRevoke(const LockRevokeMsg& msg);
  void HandleLockRevokeReply(const LockRevokeReplyMsg& msg);

  // --- client-failure recovery ----------------------------------------------
  // Begins a reclaim round for a lock this node manages. mu_ must NOT be
  // held.
  void StartReclaim(rvm::LockId lock, rvm::RegionId region, rvm::NodeId dead)
      LBC_EXCLUDES(mu_);
  // Completes a reclaim round once every reply is in.
  void FinishReclaimLocked(rvm::LockId lock, LockState& st) LBC_REQUIRES(mu_);
  // Pulls records this node is missing from the server record cache and
  // applies what it can.
  void FetchFromServerLocked(rvm::LockId lock) LBC_REQUIRES(mu_);
  // Heartbeat / lease-watch loop (runs when heartbeat_interval_ms > 0).
  void HeartbeatThreadMain();

  // Takes a slot on a server admission queue, retrying sheds with jittered
  // exponential backoff per the ClientOptions budget. Pair a success with
  // Cluster::Finish. mu_ must not be held (sleeps between attempts).
  base::Status AdmitServer(Cluster::ServerQueue queue) LBC_EXCLUDES(mu_);

  // Applies `rec` if its lock-sequence predecessors are all applied; returns
  // true if applied (or duplicate).
  bool TryApplyLocked(const rvm::TransactionRecord& rec) LBC_REQUIRES(mu_);
  // Applies buffered updates until no more progress.
  void DrainPendingLocked() LBC_REQUIRES(mu_);
  // Applies the versioned-read buffer.
  void AcceptLocked() LBC_REQUIRES(mu_);
  // Token pass helper.
  void PassTokenLocked(rvm::LockId lock, LockState& st) LBC_REQUIRES(mu_);
  // Discards retained records every current mapper has applied (§2.2's
  // hold-count scheme, via the server directory).
  void TrimRetainedLocked(rvm::LockId lock, LockState& st) LBC_REQUIRES(mu_);
  // Reports this node's applied sequence to the server directory (lazy
  // policy only).
  void ReportAppliedLocked(rvm::LockId lock) LBC_REQUIRES(mu_);

  LockState& StateFor(rvm::LockId lock) LBC_REQUIRES(mu_);

  Cluster* cluster_;
  rvm::NodeId node_;
  ClientOptions options_;
  std::unique_ptr<rvm::Rvm> rvm_;
  netsim::Endpoint* endpoint_ = nullptr;
  // Point-to-point traffic rides a ReliableChannel, restoring exactly-once
  // FIFO delivery when the fabric injects faults. On a fault-free fabric
  // the only overhead is one small ACK frame per message. Multicast sends
  // bypass it (best-effort, as in the paper).
  std::unique_ptr<netsim::ReliableChannel> channel_;
  std::thread heartbeat_;

  mutable base::Mutex mu_{"lbc.client", base::LockRank::kClient};
  base::CondVar cv_;
  std::map<rvm::LockId, LockState> locks_ LBC_GUARDED_BY(mu_);
  std::map<rvm::LockId, uint64_t> applied_seq_ LBC_GUARDED_BY(mu_);
  std::map<rvm::RegionId, bool> mapped_regions_ LBC_GUARDED_BY(mu_);
  // Acquires currently blocked in AcquireLock; while nonzero, versioned-read
  // buffering is bypassed so the interlock can make progress.
  int acquires_waiting_ LBC_GUARDED_BY(mu_) = 0;
  // Updates waiting for their predecessors (§3.4).
  std::vector<rvm::TransactionRecord> pending_ LBC_GUARDED_BY(mu_);
  // Versioned-read buffer: updates held until Accept().
  std::deque<rvm::TransactionRecord> version_buffer_ LBC_GUARDED_BY(mu_);
  // Jitter stream for overload backoff (seeded; see ClientOptions).
  base::Rng backoff_rng_ LBC_GUARDED_BY(mu_);
  bool disconnected_ LBC_GUARDED_BY(mu_) = false;
  // Last server restart epoch this node has registered with; a mismatch
  // against Cluster::ServerEpoch means our directory entries were wiped.
  uint64_t server_epoch_seen_ LBC_GUARDED_BY(mu_) = 0;

  ClientCounts<obs::Counter> m_;
  obs::Counter backoff_nanos_;         // gray.backoff_nanos
  obs::Counter interlock_wait_nanos_;  // lbc.n<node>.interlock_wait_nanos
  obs::Attachment attached_;
  obs::Histogram* acquire_nanos_;  // lbc.n<node>.acquire_nanos
  obs::Histogram* commit_nanos_;   // lbc.n<node>.commit_nanos
};

}  // namespace lbc

#endif  // SRC_LBC_CLIENT_H_
