// Cluster: the shared substrate a group of client nodes plugs into.
//
// It bundles (a) the message fabric connecting the clients, (b) the
// logically centralized storage service holding the permanent database
// files and the per-node redo logs (the paper's NFS server), and (c) the
// directories that in a deployed system would live on that server: which
// clients currently map each region, and the static lock table (lock ->
// protected region + manager node).
//
// Server-side maintenance — crash recovery and offline log trimming (§3.5)
// — lives here too: merge every client's log into one serial history using
// the lock records, replay it into the database files, truncate the logs.
#ifndef SRC_LBC_CLUSTER_H_
#define SRC_LBC_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/netsim/fabric.h"
#include "src/obs/metrics.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {
class IncrementalRecovery;
class Scrubber;
}  // namespace rvm

namespace lbc {

struct LockSpec {
  rvm::RegionId region = 0;  // the segment this lock protects
  rvm::NodeId manager = 0;   // centralized manager (and initial token owner)
};

class Cluster {
 public:
  explicit Cluster(store::DurableStore* store);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  netsim::Fabric* fabric() { return &fabric_; }
  store::DurableStore* store() { return store_; }

  // --- lock directory (static configuration) ----------------------------

  // Defines a segment lock. Must precede any client's use of the lock; the
  // manager node is also the token's initial owner. A lock's region is
  // fixed once defined (clients cache it): redefining a lock with a
  // different region is a fatal configuration error.
  void DefineLock(rvm::LockId lock, rvm::RegionId region, rvm::NodeId manager);
  base::Result<LockSpec> GetLock(rvm::LockId lock) const;
  std::vector<rvm::LockId> LocksForRegion(rvm::RegionId region) const;
  std::vector<rvm::LockId> AllLocks() const;

  // --- region mapping directory ------------------------------------------

  void RegisterMapping(rvm::RegionId region, rvm::NodeId node);
  void UnregisterMapping(rvm::RegionId region, rvm::NodeId node);
  // Clients that have `region` mapped, excluding `exclude` (the writer).
  std::vector<rvm::NodeId> PeersOf(rvm::RegionId region, rvm::NodeId exclude) const;

  // --- server-side maintenance --------------------------------------------

  // Merges the given nodes' logs (missing logs are skipped), replays the
  // merged history into the database files (ReplayAndRecordBaselines), then
  // truncates every log. Callers must ensure the named nodes are not
  // actively committing.
  base::Status RecoverAndTrim(const std::vector<rvm::NodeId>& nodes);

  // Merge + replay WITHOUT truncating (the caller resets the logs itself —
  // used by lbc::OnlineTrim, where each client owns its log handle). The
  // merged records are folded into the active recovery (or a new one, which
  // starts the drain workers when it spans more than one region file) and
  // the per-lock baselines advance; then DrainRecovery replays every
  // pending page, so a trim's replay is the recovery drain — same file
  // batches, same workers, same bounded scrub repair. Returns the drain's
  // error (DATA_LOSS for unhealable rot, with the page left pending).
  // Callers must NOT hold DbMutex().
  base::Status ReplayAndRecordBaselines(const std::vector<std::string>& log_names);

  // Highest update sequence number for `lock` that is reflected in the
  // permanent database files (advanced by every trim). A client mapping a
  // region adopts these as its applied baseline, so late joiners — whose
  // cached image comes from the database file — do not wait for updates
  // that predate them.
  uint64_t BaselineSeq(rvm::LockId lock) const;

  // Advances a lock's baseline directly (standby-driven checkpointing,
  // which establishes its cut without going through a merge).
  void RecordBaseline(rvm::LockId lock, uint64_t seq);

  // Per-lock cut of the trims so far (ReplayAndRecordBaselines, hence
  // OnlineTrim and RecoverAndTrim, and RecordBaseline): a record whose every
  // lock sequence is at or below it is in the database files, so clients
  // stop carrying it (Client::DropFoldedRecords). Unlike BaselineSeq it
  // ignores the raises of boot and dead-client recovery, which index a
  // record without making its predecessors durable.
  std::map<rvm::LockId, uint64_t> TrimCut() const;
  // Highest commit_seq of `node` that a merge folded or the record cache
  // holds: copies of its records in other nodes' logs never exceed it once
  // merged or published. A client opening as `node` stays above it.
  uint64_t HighestCommitSeq(rvm::NodeId node) const;
  // Bumped by every trim, after its cut moved. Lock-free read.
  uint64_t TrimEpoch() const { return trim_epoch_.load(std::memory_order_acquire); }

  // --- lazy-propagation record discard (§2.2) -----------------------------
  //
  // Under the lazy policy, writers retain committed records until every
  // peer that might acquire the lock has applied them. The paper passes
  // hold-count information along with the token; here the equivalent
  // bookkeeping lives in the server-resident directory: clients report
  // their applied sequence numbers, and a holder may discard records at or
  // below MinApplied (the most out-of-date current mapper's position).

  void NoteApplied(rvm::LockId lock, rvm::NodeId node, uint64_t seq);
  // Minimum applied sequence over the nodes currently mapping the lock's
  // region, excluding `exclude` (the holder itself). Unreported mappers
  // count at the lock's trim baseline.
  uint64_t MinApplied(rvm::LockId lock, rvm::NodeId exclude) const;

  // --- server-side record cache (§2.2's second lazy variant) ---------------
  //
  // "Segment updates could be fetched from the server, where all log
  // records are cached in memory for a time." Writers under the
  // kLazyServer policy publish committed records here; acquirers fetch
  // what they are missing. The cache drops records once every current
  // mapper has applied them (same bookkeeping as the writer-side discard).

  void CacheRecords(rvm::LockId lock, const rvm::TransactionRecord& rec);
  // Records for `lock` with sequence number > after_seq, oldest first.
  std::vector<rvm::TransactionRecord> FetchRecordsSince(rvm::LockId lock,
                                                        uint64_t after_seq) const;
  // Drops cached records every current mapper has applied.
  void TrimRecordCache(rvm::LockId lock);
  size_t CachedRecordCount(rvm::LockId lock) const;

  // --- liveness and client-failure recovery --------------------------------
  //
  // Clients renew a lease in this server-resident registry (their heartbeat
  // thread calls NoteAlive); a node whose lease lapses is *suspected* dead.
  // Death itself is declared explicitly — by the detector that acts on the
  // suspicion, or by a test — and is permanent: a late heartbeat from a
  // declared-dead node does not resurrect it (its locks may have been
  // reclaimed; the node must rejoin as a new mapping).

  void NoteAlive(rvm::NodeId node);
  void DeclareDead(rvm::NodeId node);
  bool IsDead(rvm::NodeId node) const;
  // Nodes whose last heartbeat is older than `lease`, excluding nodes
  // already declared dead and nodes that never reported.
  //
  // Gray-failure awareness: a slow-but-alive peer (congested link, degraded
  // disk) keeps heartbeating, just late — killing it would orphan lock
  // tokens it can still use and force a needless recovery. The registry
  // tracks an EWMA of each node's inter-heartbeat gap; a node past `lease`
  // whose stretched deadline max(lease, slack_factor × EWMA gap) has not
  // yet passed is classified *suspect-slow* (see SuspectSlow) and withheld
  // from this list. A dead node stops beating entirely, so its elapsed time
  // outgrows any stretched deadline and it is still reported. Nodes beating
  // at the nominal rate expire exactly at `lease`, as before.
  std::vector<rvm::NodeId> LeaseExpired(std::chrono::milliseconds lease) const;
  // Nodes currently past their lease but within the stretched gray
  // deadline. Purely observational; membership changes as beats arrive.
  std::vector<rvm::NodeId> SuspectSlow() const;
  // Stretch factor for the gray deadline (default 3; minimum 1).
  void SetGraySlackFactor(uint64_t factor);
  // All nodes declared dead so far. Heartbeat threads sweep this as well as
  // LeaseExpired: DeclareDead removes the node from the lease registry, so
  // a survivor whose detection lost the race (e.g. a lock manager that must
  // reclaim the dead node's token) would otherwise never see the expiry.
  std::vector<rvm::NodeId> DeadNodes() const;

  // Server-side half of client-failure recovery (§3.5 applied to a dead
  // *client*): declares the node dead, merges its durable log via the
  // regular log-merge path and folds the records written by it (or by
  // another dead node; records of live writers it carried reach recovery
  // through their writers' logs) into the active recovery
  // (or a new one) — indexing only; the pages they touch replay on first
  // touch or in the background drain. It advances the per-lock baselines to
  // the dead node's last committed sequence numbers, publishes the merged
  // records to the record cache (so survivors can re-fetch updates the dead
  // writer committed but never managed to propagate), and withdraws the
  // node from every region mapping. The dead node's log is NOT truncated:
  // replay is idempotent redo, and a later full recovery may merge it
  // again. Idempotent per node.
  base::Status RecoverDeadClient(rvm::NodeId node);

  // --- overload admission control -------------------------------------------
  //
  // The server sheds load instead of queueing it unboundedly. Each server
  // queue admits a bounded number of concurrent operations; an arrival
  // beyond the bound is refused with OVERLOADED plus a retry-after hint
  // that doubles while the queue stays saturated (server-paced backoff).
  // Shedding applies only to *elastic* work — map-time image fetches and
  // catch-up record fetches, and whole commit attempts before any log byte
  // is written — never to the completion of work already admitted, so a
  // shed is always retryable with no state to undo.

  enum class ServerQueue { kFetch, kCommit };

  // Caps `queue` at `max_inflight` concurrent admitted operations
  // (0 = unlimited, the default).
  void SetAdmissionLimit(ServerQueue queue, uint64_t max_inflight);

  // Takes a slot on `queue`, or refuses with OVERLOADED. On refusal,
  // *retry_after_ms (if non-null) receives the server's pacing hint.
  // Every successful Admit must be paired with Finish.
  [[nodiscard]] base::Status Admit(ServerQueue queue,
                                   uint64_t* retry_after_ms = nullptr);
  void Finish(ServerQueue queue);

  uint64_t Inflight(ServerQueue queue) const;
  uint64_t ShedCount(ServerQueue queue) const;

  // --- server crash + restart ----------------------------------------------
  //
  // The logically centralized server holds only *soft* directory state: the
  // region-mapping directory, per-lock baselines, applied-sequence reports,
  // the record cache, and the liveness registry. All of it is recomputable
  // from the clients' durable redo logs, so a server crash loses nothing
  // that matters — RestartServer reruns the §3.5 merge at boot to rebuild
  // it. The lock *table* (lock -> region/manager) is static configuration
  // and survives, as do client-resident lock tokens and sequence numbers.
  //
  // While the server is down, directory mutations are dropped and queries
  // return conservative answers (no peers, zero baselines, empty cache);
  // maintenance entry points fail with UNAVAILABLE. Callers simulating a
  // full server-machine crash should also take the shared store offline
  // (CrashPointStore::SetOffline) so commits fail at the log write.

  // --- integrity scrubber hook ---------------------------------------------
  //
  // A cluster may carry a scrubber (rvm::Scrubber over the same store). When
  // a client's image fetch fails checksum verification (DATA_LOSS), it calls
  // TryRepairRegion between bounded re-fetch attempts, giving the server a
  // chance to heal the page from a replica or the merged logs before the
  // client gives up. The cluster does not own the scrubber.

  void SetScrubber(rvm::Scrubber* scrubber);
  // Runs a targeted scrub of `region`'s pages (and a detect-only scan of
  // the logs reconstruction needs — this path never rewrites a log, since
  // their owners may be mid-append). Returns false when no scrubber is
  // attached or the scrub itself errored. The repair's database-file writes
  // are serialized with the cluster's other writers via DbMutex(); the
  // directory mutex mu_ is never held across the scrub.
  bool TryRepairRegion(rvm::RegionId region);

  // Orders the writers of the permanent database files that run through
  // this cluster. File replays — boot and dead-client recovery and trims
  // alike — hold it SHARED: each claims a whole region file, so replays of
  // different files overlap. The standby checkpoint's region-file writes
  // and the scrubber's page repairs (TryRepairRegion) hold it EXCLUSIVE —
  // without it a repair_copy could interleave with a replay of the same
  // page. Holding it exclusive therefore freezes every page
  // materialization. Public so helpers that write the database files
  // directly (lbc::CheckpointFromStandby) can hold it.
  base::SharedMutex& DbMutex() LBC_RETURN_CAPABILITY(db_mu_) { return db_mu_; }

  void KillServer();
  // Rebuilds the directory from the merged client logs (recovery at boot),
  // bumps the restart epoch, and resumes service. Live clients notice the
  // epoch change via their heartbeat thread (or an explicit
  // Client::RejoinServer) and re-register their mappings and applied
  // reports.
  //
  // Boot does not replay: it builds a per-page index over the merged logs
  // (rvm::LogIndex — read-only, so the server is serving the moment the
  // scan finishes). Region files are replayed on first touch via
  // EnsureRegionRecovered and in the background by the drain workers this
  // call starts. Once the last page is done the recovery object retires and
  // the database files are byte-identical to a full merged-log replay
  // (rvm::ReplayLogsIntoDatabase). Callers that need every page replayed
  // before they go on call DrainRecovery().
  base::Status RestartServer();
  bool ServerUp() const;
  // Incremented by every restart; clients track it to detect that their
  // registrations were wiped and must be replayed.
  uint64_t ServerEpoch() const;

  // --- incremental recovery (serve before replay finishes) ------------------

  // First-touch interlock: materializes every still-pending page of
  // `region`, waiting (bounded by deadline_ms when non-zero, else
  // indefinitely) while another thread is already replaying the file. Clients
  // call this before fetching a region image; a no-op when no recovery is
  // active. kDeadlineExceeded on a timed-out wait; DATA_LOSS when a page's
  // pre-image fails its sidecar check (route through TryRepairRegion).
  base::Status EnsureRegionRecovered(rvm::RegionId region, uint64_t deadline_ms = 0);

  bool RecoveryActive() const;
  uint64_t RecoveryPendingPages() const;

  // Synchronous barrier: replays pending region files on the calling thread,
  // alongside the background workers, until every page is done, and
  // retires the recovery object. A DATA_LOSS page is healed through the
  // scrubber when one is attached, at most 8 times in a row; after that (or
  // with no scrubber) the DATA_LOSS is returned and the page stays pending.
  // Trims (ReplayAndRecordBaselines, RecoverAndTrim) fold their records
  // into the recovery and then call this; the standby checkpoint calls it
  // before writing its image, which is newer than every indexed record.
  // Callers must NOT hold DbMutex(): each file replay acquires it (shared)
  // per file. The caller drains alongside the background workers, not
  // instead of them.
  base::Status DrainRecovery();

  // Background drainer controls. RestartServer and RecoverDeadClient start
  // the drainer when they create a recovery, ReplayAndRecordBaselines when
  // the recovery it creates spans more than one file (it drains too). The
  // drainer thread starts the rest of the kDrainWorkers pool itself, so the
  // caller pays for one thread start. KillServer and the destructor stop
  // and join them all. Public for tests that want to race it explicitly.
  void StartRecoveryDrain();
  void StopRecoveryDrain();

  // Background drain workers per recovery, the drainer thread included.
  // The drain is store-latency bound — a file replay is five dependent
  // store round trips when its redo covers whole pages and seven when it
  // must read and gate pre-images — so files in flight, not cores, set its
  // speed; four (plus a DrainRecovery caller) cut a 12-file restart's drain
  // to three waves of replays while leaving cores to the clients served.
  static constexpr int kDrainWorkers = 4;

 private:
  // The one drain loop behind DrainRecovery (stop == nullptr) and each
  // background worker (stop == &drain_stop_).
  base::Status DrainLoop(const std::atomic<bool>* stop);
  // Retires `rec` once drained. False while `rec` is still the active
  // recovery with pages pending (Extend re-pended some after a drain
  // step saw none).
  bool RetireIfDrained(const std::shared_ptr<rvm::IncrementalRecovery>& rec);
  // Folds merged records into the active recovery (Extend) or starts a new
  // one over them, advancing the per-node merge bounds and the per-lock
  // baselines: every read of the records' pages replays them first. True
  // when a new recovery was created and the caller must start the drainer.
  bool FoldIntoRecoveryLocked(std::vector<rvm::TransactionRecord> merged)
      LBC_REQUIRES(mu_);
  store::DurableStore* store_;
  netsim::Fabric fabric_;

  // Database-file writer lock (see DbMutex()). Ranked below mu_ so a
  // writer may consult the directory mid-operation; it guards on-store
  // state, not members, so it carries no LBC_GUARDED_BY users.
  mutable base::SharedMutex db_mu_{"lbc.cluster.db", base::LockRank::kClusterDb};
  mutable base::Mutex mu_{"lbc.cluster", base::LockRank::kCluster};
  std::map<rvm::LockId, LockSpec> locks_ LBC_GUARDED_BY(mu_);
  std::map<rvm::RegionId, std::vector<rvm::NodeId>> mappings_ LBC_GUARDED_BY(mu_);
  std::map<rvm::LockId, uint64_t> baseline_seq_ LBC_GUARDED_BY(mu_);
  std::map<rvm::LockId, std::map<rvm::NodeId, uint64_t>> applied_reports_
      LBC_GUARDED_BY(mu_);
  // Server-cached records, keyed by lock, ordered by that lock's sequence.
  std::map<rvm::LockId, std::map<uint64_t, rvm::TransactionRecord>> record_cache_
      LBC_GUARDED_BY(mu_);
  // Liveness registry.
  std::map<rvm::NodeId, std::chrono::steady_clock::time_point> last_heartbeat_
      LBC_GUARDED_BY(mu_);
  std::set<rvm::NodeId> dead_ LBC_GUARDED_BY(mu_);
  // EWMA of each node's inter-heartbeat gap (α = 1/4), for the gray
  // stretched deadline. mutable with suspect_: LeaseExpired is logically a
  // query but records the suspicion it derives.
  std::map<rvm::NodeId, uint64_t> ewma_gap_nanos_ LBC_GUARDED_BY(mu_);
  mutable std::set<rvm::NodeId> suspect_ LBC_GUARDED_BY(mu_);
  uint64_t gray_slack_factor_ LBC_GUARDED_BY(mu_) = 3;
  // Admission queues (kFetch, kCommit). consecutive_sheds paces the
  // retry-after hint: it doubles per shed while saturated, resets on the
  // next successful admit.
  struct AdmissionQueue {
    uint64_t limit = 0;  // 0 = unlimited
    uint64_t inflight = 0;
    uint64_t consecutive_sheds = 0;
  };
  AdmissionQueue& QueueFor(ServerQueue queue) LBC_REQUIRES(mu_);
  const AdmissionQueue& QueueFor(ServerQueue queue) const LBC_REQUIRES(mu_);
  AdmissionQueue fetch_queue_ LBC_GUARDED_BY(mu_);
  AdmissionQueue commit_queue_ LBC_GUARDED_BY(mu_);
  // Dead nodes whose log has been merged.
  std::set<rvm::NodeId> recovered_ LBC_GUARDED_BY(mu_);
  // Highest commit sequence per node already folded into a recovery (boot,
  // dead-client or trim). RecoverDeadClient drops records at or below this
  // bound: re-applying an already-replayed record after newer overlapping
  // records have replayed would roll those pages backwards (absolute-value
  // redo is only idempotent in merged order).
  std::map<rvm::NodeId, uint64_t> merged_commit_seq_ LBC_GUARDED_BY(mu_);
  std::map<rvm::LockId, uint64_t> trim_cut_ LBC_GUARDED_BY(mu_);
  std::atomic<uint64_t> trim_epoch_{0};
  bool server_up_ LBC_GUARDED_BY(mu_) = true;
  uint64_t server_epoch_ LBC_GUARDED_BY(mu_) = 0;
  rvm::Scrubber* scrubber_ LBC_GUARDED_BY(mu_) = nullptr;
  // Active incremental recovery; null when drained/retired. shared_ptr so
  // workers materialize pages with mu_ released while KillServer resets the
  // directory's reference. Retirement (reset once Drained()) happens only
  // under mu_, which is also where FoldIntoRecoveryLocked extends it — an
  // extension therefore cannot land on a recovery that just retired.
  std::shared_ptr<rvm::IncrementalRecovery> recovery_ LBC_GUARDED_BY(mu_);
  // Time-to-first-commit instrumentation: armed by RestartServer, resolved
  // by the first admitted commit (recovery.first_commit_ms).
  bool first_commit_pending_ LBC_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point recovery_start_ LBC_GUARDED_BY(mu_);
  // Background drainer lifecycle. drain_mu_ orders start/stop/join only; the
  // drain workers never take it, so joining under it cannot deadlock. The
  // drainer thread joins the workers it started before it exits.
  base::Mutex drain_mu_{"lbc.cluster.drain"};
  std::thread drain_thread_ LBC_GUARDED_BY(drain_mu_);
  std::atomic<bool> drain_stop_{false};

  // Server-role counts (the cluster is logically one storage/lock server),
  // exported under the names in the comments. Mutable: const lookups count.
  struct Metrics {
    obs::Counter records_cached;  // server.*
    obs::Counter records_fetched;
    obs::Counter dead_clients_recovered;
    obs::Counter rebuilds;           // directory rebuilds after a server crash
    obs::Counter suspect_slow;       // gray.*: nodes entering the suspect-slow state
    obs::Counter evictions_averted;  // suspects that beat again before expiry
    obs::Counter false_evictions;    // heartbeats from a declared-dead node
    obs::Counter admitted;           // admission.* (see Admit)
    obs::Counter fetch_shed;         // admission.shed exports their sum
    obs::Counter commit_shed;
  };
  mutable Metrics m_;
  obs::Attachment attached_;
};

}  // namespace lbc

#endif  // SRC_LBC_CLUSTER_H_
