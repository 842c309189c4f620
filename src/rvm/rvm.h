// Recoverable Virtual Memory runtime — a from-scratch reimplementation of
// the programming model of CMU's RVM package (Satyanarayanan et al., TOCS
// '94), extended with the hooks the paper adds for log-based coherency:
//
//   * rvm_setlockid_transaction (Table 1): tags the current transaction with
//     the (lock id, sequence number) pairs of the segment locks it acquired;
//     these become lock records in the commit's log entry (§3.4).
//   * a commit hook, invoked once the commit is *ordered* (sequence numbers
//     stamped, record encoded and queued for the log) and before it is
//     durable, with the record that is about to be logged, so the coherency
//     layer can broadcast exactly the bytes that will be logged, and pass
//     the lock token, without waiting for the log force (§2, §3.2);
//   * a table of what the node's log owes: its own ordered records until a
//     sync covers them, and the records it applied from other nodes that are
//     not yet known to be durable (the carry set). Every commit batch writes
//     the carried records its commits may have read ahead of its own, so the
//     force that makes a successor durable also makes the predecessors it
//     read durable (DESIGN.md, "Ordered and durable").
//
// One Rvm instance is one client node: it maps regions (whole database files
// copied into virtual memory at startup, as in RVM), runs local transactions
// against the in-memory images, and appends committed redo records to its
// own per-node log on the durable store.
#ifndef SRC_RVM_RVM_H_
#define SRC_RVM_RVM_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/buffer.h"
#include "src/base/status.h"
#include "src/base/sync.h"
#include "src/obs/metrics.h"
#include "src/rvm/log_io.h"
#include "src/rvm/range_set.h"
#include "src/rvm/types.h"
#include "src/store/durable_store.h"

namespace rvm {

// A mapped recoverable region: the client's cached image of one database
// file. Applications read and write `data()` directly (after declaring
// writes with SetRange), exactly as RVM applications operate on mapped
// virtual memory.
class Region {
 public:
  Region(RegionId id, std::vector<uint8_t> image) : id_(id), image_(std::move(image)) {}

  RegionId id() const { return id_; }
  uint8_t* data() { return image_.data(); }
  const uint8_t* data() const { return image_.data(); }
  uint64_t size() const { return image_.size(); }

 private:
  friend class Rvm;

  RegionId id_;
  std::vector<uint8_t> image_;
  // Open transactions that declared ranges here: while any does, the region
  // stays mapped. Guarded by the owning Rvm's mutex.
  uint32_t pins_ = 0;
};

enum class RestoreMode {
  kRestore,    // abort restores pre-transaction values (undo copies kept)
  kNoRestore,  // abort is not supported for this transaction (cheaper)
};

enum class CommitMode {
  kFlush,    // log record is synced to durable store before commit returns
  kNoFlush,  // log record buffered; durable after a later FlushLog()
};

struct RvmOptions {
  CoalesceMode coalesce = CoalesceMode::kExactMatch;
  // The paper disables disk logging to isolate coherency costs (§4); when
  // false, commits skip the log write entirely but still drive the commit
  // hook and statistics.
  bool disk_logging = true;
  // The conclusion's "adaptive hybrid": when a committing transaction
  // registered more than this many ranges inside one 8 KB page, those
  // ranges are replaced by a single span covering them — paying extra bytes
  // to shed per-range costs, as a page-based DSM would. 0 disables.
  uint32_t adaptive_ranges_per_page = 0;

  // --- log-space accounting (backpressure, not failure) -------------------
  //
  // Watermarks over this node's redo-log size, both 0 (disabled) by default.
  // Crossing the soft watermark fires the trim hook after the commit that
  // crossed it — the coherency layer's cue to schedule a checkpoint/trim
  // (lbc::OnlineTrim / CheckpointFromStandby) before space runs out. At or
  // above the hard watermark, new commits *stall* on a condvar until a trim
  // frees space; the first staller fires the trim hook itself. Only when the
  // stall budget expires with the log still full does EndTransaction fail,
  // with RESOURCE_EXHAUSTED — never an abort() — and the transaction left
  // active so the caller may retry after an out-of-band trim.
  uint64_t log_soft_limit_bytes = 0;
  uint64_t log_hard_limit_bytes = 0;
  // Total time one commit may stall at the hard watermark before failing.
  uint64_t backpressure_stall_ms = 2000;
};

// Everything an Rvm counts, one field per fact, used to reproduce the
// paper's figures. The Rvm owns an RvmCounts<obs::Counter>, exported as
// rvm.n<node>.<field> except as noted. Times are wall-clock nanoseconds
// accumulated on this node, read per commit or per applied record, never
// per update: SetRange reads no clock, so callers that want the Detect
// phase time a batch of calls themselves. SetRange counts land when the
// transaction ends.
template <typename Count>
struct RvmCounts {
  Count set_range_calls{};
  Count set_range_duplicates{};    // redundant re-registrations coalesced
  Count transactions_committed{};  // exported as rvm.n<node>.commits
  Count transactions_aborted{};
  Count ranges_logged{};
  Count bytes_logged{};              // modified bytes (payload data only)
  Count pages_logged{};              // distinct 8 KB pages containing logged bytes
  Count adaptive_pages_coalesced{};  // dense pages collapsed to one span
  Count log_bytes_written{};         // framed bytes to the log (commit.batch.bytes)
  // Group commit (the commit pipeline; see DESIGN.md §13), exported as
  // commit.batch.{batches,txns,fsyncs_saved}.
  Count commit_batches{};     // leader drains: one vectored write each
  Count commit_batch_txns{};  // transactions committed through the pipeline
  Count fsyncs_saved{};       // kFlush commits that shared the leader's sync
  Count carried_written{};    // carried records written ahead of a batch (commit.batch.carried)
  Count collect_nanos{};      // commit-time gather+encode ("Collect")
  Count disk_nanos{};         // log write + sync ("Disk I/O")
  Count apply_nanos{};        // ApplyExternalRanges ("Apply Updates")
  Count external_updates_applied{};
  Count external_bytes_applied{};
  // Log-quota backpressure (see RvmOptions watermarks), exported as
  // backpressure.{stalls,stall_nanos,trim_requests,exhausted}.
  Count backpressure_stalls{};       // commits that hit the hard watermark
  Count backpressure_stall_nanos{};  // total time commits spent stalled
  Count trim_requests{};             // trim-hook firings (soft + stalled)
  Count commits_exhausted{};         // stalls that expired -> RESOURCE_EXHAUSTED
};

// Value snapshot that Rvm::stats() fills from the instruments. It goes away
// once the benchmark reads the instruments directly.
struct RvmStats : RvmCounts<uint64_t> {};

class Rvm {
 public:
  // Opens a node's RVM instance over `store`. The per-node log file is
  // created if absent; an existing non-empty log is preserved (appended to).
  static base::Result<std::unique_ptr<Rvm>> Open(store::DurableStore* store, NodeId node,
                                                 const RvmOptions& options);

  ~Rvm() = default;
  Rvm(const Rvm&) = delete;
  Rvm& operator=(const Rvm&) = delete;

  NodeId node() const { return node_; }

  // --- region mapping ----------------------------------------------------

  // Maps a region of `length` bytes: loads the database file (creating a
  // zero-filled one if absent) into a private in-memory image.
  [[nodiscard]] base::Result<Region*> MapRegion(RegionId id, uint64_t length);
  Region* GetRegion(RegionId id);
  // Drops the region's image. FAILED_PRECONDITION while an open transaction
  // has declared ranges in it (the transaction pins the region until it
  // commits, aborts or is forgotten); NOT_FOUND if it is not mapped.
  [[nodiscard]] base::Status UnmapRegion(RegionId id);

  // --- transactions (Table 1 interface) ----------------------------------

 private:
  struct Txn;

 public:
  // What BeginTransaction hands out: the transaction's id plus a pointer to
  // its write set, so that SetRange through the handle reaches the write set
  // without the instance lock or a lookup. It converts to the TxnId every
  // other call takes. Valid until the transaction ends (a successful
  // EndTransaction, AbortTransaction or ForgetOrdered); a default-constructed
  // handle names no transaction.
  //
  // Ownership rule: a transaction's write set (declared ranges, undo copies,
  // SetRange tallies) belongs to the thread holding its handle. Only that
  // thread declares into the transaction, ends it or otherwise touches it;
  // EndTransaction gathers the write set (under the lock, for the ordering)
  // on that same thread. A handle may move to another thread only with the
  // usual happens-before hand-off.
  class TxnHandle {
   public:
    TxnHandle() = default;
    TxnId id() const { return id_; }
    operator TxnId() const { return id_; }  // NOLINT(google-explicit-constructor)

   private:
    friend class Rvm;
    TxnHandle(TxnId id, Txn* txn) : id_(id), txn_(txn) {}

    TxnId id_ = 0;
    Txn* txn_ = nullptr;
  };

  TxnHandle BeginTransaction(RestoreMode mode);

  // Declares intent to modify [offset, offset+len) of `region` in the
  // transaction (rvm_set_range). Must precede the actual stores when the
  // transaction may abort. The first call of a transaction in a region takes
  // the instance lock once: it looks the region up (NOT_FOUND if unmapped)
  // and pins it. Every later call there is a bounds check (OUT_OF_RANGE,
  // overflow-safe) and one write-set insert (a compare, an append or one
  // hash probe): no lock, no map lookup. A null handle is
  // FAILED_PRECONDITION.
  [[nodiscard]] base::Status SetRange(TxnHandle txn, RegionId region, uint64_t offset,
                                      uint64_t len);
  // The same, by id: resolves the handle under the lock (FAILED_PRECONDITION
  // for a closed or unknown transaction) and runs the body above.
  [[nodiscard]] base::Status SetRange(TxnId txn, RegionId region, uint64_t offset, uint64_t len);

  // rvm_setlockid_transaction: records that `txn` holds (lock, sequence).
  [[nodiscard]] base::Status SetLockId(TxnId txn, LockId lock, uint64_t sequence);

  // Commits, in two steps. *Ordered*: under the instance lock the committer
  // gathers ranges, stamps the commit sequence, encodes the redo record,
  // enters it in the table of what the log owes and enqueues itself; then,
  // with no lock held, it runs the commit hook. *Durable*: the first waiter
  // becomes the batch leader, writes every own record not yet written
  // (behind the carried records they may have read) as ONE vectored log
  // append plus (if any batch member asked to flush) ONE fsync, and wakes
  // the cohort with the batch's status. EndTransaction returns at durable.
  // A batch is atomic at the log-frame level only: each transaction keeps
  // its own framed, checksummed record, so a crash mid-batch recovers to a
  // per-record prefix of the batch.
  //
  // Hard-watermark backpressure runs before ordering: on RESOURCE_EXHAUSTED
  // from the stall the transaction is still active and unordered. A failure
  // after ordering (the log write) leaves it ordered: the stamped record
  // stays owed, and every later batch (a commit's or FlushLog's) writes it
  // until one succeeds, whether or not the caller retries. A retry of
  // EndTransaction waits for such a batch (the same bytes, the same
  // commit_seq) and does not run the hook again.
  [[nodiscard]] base::Status EndTransaction(TxnId txn, CommitMode mode);

  // Aborts: restores undo copies (kRestore transactions only). An ordered
  // transaction cannot abort (FAILED_PRECONDITION): its record may already
  // be applied and carried by peers.
  [[nodiscard]] base::Status AbortTransaction(TxnId txn);

  // Ends the handle of an ordered transaction whose caller will not retry
  // its commit (the record stays owed, for the next batch) and returns
  // true; false, and no effect, for an unordered one (AbortTransaction).
  bool ForgetOrdered(TxnId txn);

  // The record of `txn` once it is ordered and not yet durable (its commit
  // failed after ordering and awaits a retry); nullopt otherwise.
  std::optional<TransactionRecord> OrderedRecord(TxnId txn) const;

  // Makes every ordered commit durable: writes the own records not yet
  // written, with the carried records they may have read, as one batch (on
  // the calling thread, after the batch in flight), syncs the log and
  // completes the queued commits.
  [[nodiscard]] base::Status FlushLog();
  // FlushLog, writing the whole carry set too: every record this node
  // carries is durable when it returns (the reclaim after a writer's death).
  [[nodiscard]] base::Status ForceCarried();

  // --- coherency integration ----------------------------------------------

  // Hook invoked inside EndTransaction once the commit is ordered, before
  // its log write, with the record. With disk logging on, its ranges view
  // its own `bytes`, the encoded log payload (also its `payload`): stable
  // however far later transactions have overwritten the live images, and
  // kept or fanned out by refcount. With logging off they view the live
  // images until the hook returns. Runs with no rvm lock held, once per
  // transaction.
  using CommitHook = std::function<void(const TransactionRecord&)>;
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

  // --- what the log owes (ordered before durable) ---------------------------
  //
  // One table, keyed (writer, commit_seq), holds every record this node's
  // log still has to write or sync:
  //   * own logged records, from ordering until a sync covers them. Every
  //     batch writes all the ones not yet written; a failed batch changes
  //     no entry, so the next batch writes them again.
  //   * the carry set: records this node applied from other nodes and does
  //     not yet know to be durable. Each batch writes the ones its commits
  //     may have read (carried before its newest own record was ordered)
  //     ahead of its own. A carried record leaves only once its writer's
  //     durable watermark covers it (DropCarried) or a trim has folded it
  //     (DropFolded): one this node's batch wrote stays, marked written, so
  //     that if its writer dies first the reclaim still finds it here
  //     (CarriedFrom) and republishes it to survivors that never got it.
  //     Only records with lock records are carried, and none with disk
  //     logging off. DropCarried, CarriedCount and CarriedFrom see only
  //     these.

  // Adds `rec` unless it is already carried, is this node's own, has no
  // lock records, or is covered by its writer's durable watermark or a
  // folded trim cut. A record without `bytes` is packed into its own first
  // (Own).
  void Carry(TransactionRecord rec);
  // `writer`'s durable watermark reached `through`: drops its carried
  // records with commit_seq <= `through` and never carries them again.
  void DropCarried(NodeId writer, uint64_t through);
  // Drops every owed record with lock records, all at or below the lock's
  // entry in `baselines` (a trim folded it into the database files), and
  // never carries such a record again. Own records not yet written go too,
  // and are never written (at the next boot they would replay over newer
  // bytes); written ones stay until a sync. Waits out a batch in flight
  // first, so it never drops a record that batch is writing.
  void DropFolded(const std::map<LockId, uint64_t>& baselines);
  size_t CarriedCount() const;
  // Carried records of `writer` (for the reclaim after its death).
  std::vector<TransactionRecord> CarriedFrom(NodeId writer) const;

  // This node's durable watermark: one below its oldest owed own record
  // (commit_seq() when none), so every logged record of its own with
  // commit_seq at or below it is durable. Lock-free read.
  uint64_t DurableSeq() const { return durable_seq_.load(std::memory_order_acquire); }

  // Hook asking the coherency layer to checkpoint/trim this node's log
  // (args: current log bytes, the watermark that tripped). Invoked WITHOUT
  // the instance lock: once after a commit crosses the soft watermark, and
  // once per stall episode by the first committer blocked at the hard
  // watermark (that invocation runs on the stalled committer's thread, so
  // the hook may call TrimLogWithBaselines/ResetLog on this instance — but
  // must not commit through it). Set before threads start, like the commit
  // hook.
  using TrimHook = std::function<void(uint64_t log_bytes, uint64_t limit_bytes)>;
  void SetTrimHook(TrimHook hook) { trim_hook_ = std::move(hook); }

  // Applies a peer's committed record to the local cached images (receiver
  // side of log-based coherency), in order, under one lock acquisition. A
  // range in an unmapped region or past its region's end is skipped and the
  // rest still applied; the first such error is returned. Not logged
  // locally: recovery obtains these updates by merging the peers' logs.
  [[nodiscard]] base::Status ApplyExternalRanges(const std::vector<RangeImage>& ranges);

  // --- maintenance ---------------------------------------------------------

  // Empties the log WITHOUT applying it — for coordinated multi-node
  // trimming (lbc::OnlineTrim), where the caller has already merged and
  // replayed every node's log while writers were quiesced.
  [[nodiscard]] base::Status ResetLog();

  // Selective trim for standby-driven checkpointing (no quiesce): drops
  // every committed record whose lock sequence numbers are ALL at or below
  // the given baselines (those updates are reflected in the checkpoint the
  // caller just wrote); everything else — newer records and lock-free
  // records — is kept, in order. Serialized against commits (it waits out a
  // batch in flight), and drops the covered carried records (DropFolded).
  [[nodiscard]] base::Status TrimLogWithBaselines(const std::map<LockId, uint64_t>& baselines);

  // --- commit-pipeline test gate -------------------------------------------

  // Parks the pipeline: committers still gather/stamp/enqueue, but no one
  // becomes leader, so EndTransaction callers block with their records
  // queued. Lets tests (and quiesce-style maintenance) build a batch with a
  // deterministic membership and write it in one known store-op sequence.
  void HoldCommitPipeline();

  // Waits for any in-flight leader, lifts the hold, and drains whatever is
  // queued as ONE batch on the calling thread (one vectored append + at
  // most one sync). Returns the batch's write status.
  [[nodiscard]] base::Status ReleaseCommitPipeline();

  // Commits currently parked on the pipeline (test synchronization).
  size_t PendingCommitCount() const;

  // Reads every instrument of this instance (no lock taken). Counts are
  // this instance's own; the process-wide exports sum all instances.
  RvmStats stats() const;
  uint64_t commit_seq() const;
  // Raises the commit sequence to at least `at_least`: a node that restarts
  // over a log that lost records peers carried (or a merge indexed) stays
  // above them, so no (node, commit_seq) names two transactions.
  void AdvanceCommitSeq(uint64_t at_least);
  // Framed bytes currently in the redo log (what the watermarks measure).
  uint64_t log_bytes() const;

 private:
  Rvm(store::DurableStore* store, NodeId node, const RvmOptions& options);

  // An open transaction; it is in txns_ exactly while it is open. The write
  // set (`declared`, `last`, `undo`, the tallies) follows the ownership rule
  // (see TxnHandle): only the thread holding the handle touches it.
  struct Txn {
    RestoreMode mode = RestoreMode::kNoRestore;
    // The ranges declared in one region, and the region, pinned until the
    // transaction ends.
    struct Declared {
      Region* region;
      RangeSet ranges;
    };
    std::map<RegionId, Declared> declared;
    // The entry the last SetRange used: the next call in the same region
    // starts from it.
    Declared* last = nullptr;
    std::vector<LockRecord> locks;
    struct UndoEntry {
      Region* region;
      uint64_t offset;
      std::vector<uint8_t> old_data;
    };
    std::vector<UndoEntry> undo;
    // SetRange tallies, added to the instruments once when the transaction
    // ends: SetRange is too hot for an atomic per call.
    uint64_t set_range_calls = 0;
    uint64_t set_range_duplicates = 0;
    // Set once the commit is ordered with a record to log (the record owed_
    // holds); a retry after a log-write failure waits for a batch to write
    // it.
    std::shared_ptr<const TransactionRecord> ordered;
  };

  // One commit parked on the pipeline: completion state only (its record is
  // in owed_). Lives on the committing thread's stack; every field is
  // written under mu_ (by the enqueuer, then by the batch leader).
  struct PendingCommit {
    CommitMode mode = CommitMode::kFlush;
    bool done = false;
    base::Status status;
    uint64_t enqueued_nanos = 0;
  };

  // One leader drain's input: the queued commits it completes, and the
  // records it writes, in owed_ key order: first `carried` peers' records,
  // then this node's own.
  struct Batch {
    std::vector<PendingCommit*> commits;
    std::vector<std::shared_ptr<const TransactionRecord>> records;
    size_t carried = 0;
    bool force_sync = false;  // Flush: sync even with no kFlush member
  };

  // Outcome of one leader drain (WriteBatch).
  struct BatchResult {
    base::Status status;
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
    bool synced = false;
  };

  base::Status Init();

  // Hard-watermark backpressure (see RvmOptions): stalls, releasing mu_,
  // until a trim frees log space; RESOURCE_EXHAUSTED when the budget runs out.
  base::Status StallForLogSpaceLocked(base::MutexLock& lock) LBC_REQUIRES(mu_);

  // SetRange's slow path: the first call of `txn` in `region` (or one after
  // a call in another region). Finds or makes the region's entry, pinning
  // the region, and makes it `txn.last`.
  base::Status DeclareIn(Txn& txn, RegionId region, uint64_t offset, uint64_t len)
      LBC_EXCLUDES(mu_);

  // Stamps `txn`'s record and lists its ranges from the sorted write set;
  // when it will be logged, writes its payload in the same pass and views
  // the ranges there. A logged record is kept as `txn.ordered` and entered
  // in owed_.
  std::shared_ptr<const TransactionRecord> OrderLocked(Txn& txn) LBC_REQUIRES(mu_);

  // Ends a transaction: adds its SetRange tallies to the instruments,
  // unpins the regions it declared into, and drops it.
  void EraseTxnLocked(std::map<TxnId, Txn>::iterator it) LBC_REQUIRES(mu_);

  // Leads one batch on the calling thread and returns its write status. It
  // claims leadership and takes the queue and every own record not yet
  // written, plus the unwritten carried records they may have read: those
  // carried before the newest of them was ordered (all of them when
  // `whole_carry_set`). It writes them with mu_ released (synced when
  // `force_sync`) and publishes the outcome.
  base::Status LeadBatchLocked(base::MutexLock& lock, bool whole_carry_set, bool force_sync,
                               bool* crossed_soft) LBC_REQUIRES(mu_);

  // FlushLog and ForceCarried: one batch on the calling thread, synced.
  base::Status Flush(bool whole_carry_set) LBC_EXCLUDES(mu_);

  // Leader I/O: one vectored append of the batch's records, one sync if any
  // member committed kFlush (or the batch forces one). Takes log_mu_ internally; called with NO locks held (mu_
  // dropped), so committers keep enqueueing and trims keep trimming while
  // the batch is on its way to the disk.
  BatchResult WriteBatch(const Batch& batch) LBC_EXCLUDES(mu_, log_mu_);

  // Publishes a finished batch: its commits' status, the written marks, the
  // durable watermark and batch instruments. Releases leadership.
  void FinishBatchLocked(const Batch& batch, const BatchResult& result, bool* crossed_soft)
      LBC_REQUIRES(mu_);

  // A sync covered every written own record: they are durable, and leave
  // owed_.
  void NoteSyncedLocked() LBC_REQUIRES(mu_);
  // Recomputes durable_seq_ from the own records still owed.
  void PublishDurableSeqLocked() LBC_REQUIRES(mu_);
  void DropFoldedLocked(const std::map<LockId, uint64_t>& baselines) LBC_REQUIRES(mu_);
  // Every lock sequence of `rec` is at or below the trims' cut (folded_).
  bool FoldedLocked(const TransactionRecord& rec) const LBC_REQUIRES(mu_);
  // Waits until no batch leader is writing (trims rewrite under it).
  void AwaitLeaderLocked(base::MutexLock& lock) LBC_REQUIRES(mu_);

  // Framed bytes in the log right now (briefly takes log_mu_; callable with
  // mu_ held — rank kRvm < kRvmLog).
  uint64_t CurrentLogBytes() const LBC_EXCLUDES(log_mu_);

  // Fires the soft-watermark trim hook outside the locks (edge-triggered
  // tail of EndTransaction / ReleaseCommitPipeline).
  void FireSoftTrim() LBC_EXCLUDES(mu_);

  store::DurableStore* store_;
  NodeId node_;
  RvmOptions options_;

  mutable base::Mutex mu_{"rvm", base::LockRank::kRvm};
  std::map<RegionId, std::unique_ptr<Region>> regions_ LBC_GUARDED_BY(mu_);
  std::map<TxnId, Txn> txns_ LBC_GUARDED_BY(mu_);
  // Ranges declared by the last transaction to end with any, summed over
  // its regions: a new write set sizes its index for this many (see
  // RangeSet).
  size_t last_txn_ranges_ LBC_GUARDED_BY(mu_) = 0;
  TxnId next_txn_ LBC_GUARDED_BY(mu_) = 1;
  uint64_t commit_seq_ LBC_GUARDED_BY(mu_) = 0;

  // Log writer state, guarded by its own mutex so the batch leader's I/O
  // runs with mu_ RELEASED: committers gather and enqueue under mu_ while
  // the previous batch is still being written. Order is always mu_ ->
  // log_mu_, never the reverse (the leader drops mu_ before taking log_mu_
  // and re-acquires mu_ only after releasing it).
  mutable base::Mutex log_mu_{"rvm.log", base::LockRank::kRvmLog};
  std::unique_ptr<LogWriter> log_ LBC_GUARDED_BY(log_mu_);

  // --- commit pipeline (group commit) ------------------------------------
  // Commits enqueue here in commit_seq order; the first waiter that finds
  // no active leader becomes the leader and drains the whole queue.
  std::deque<PendingCommit*> commit_queue_ LBC_GUARDED_BY(mu_);
  bool commit_leader_active_ LBC_GUARDED_BY(mu_) = false;
  // Test gate: while held, nobody self-elects (see HoldCommitPipeline).
  bool commit_pipeline_held_ LBC_GUARDED_BY(mu_) = false;
  // Signaled when a batch completes or the leadership baton is free.
  base::CondVar commit_cv_;

  // What the log owes (see the public section), keyed (writer, commit_seq).
  // `written`: in this node's log (durable once a sync covers it); an own
  // record drops `record` then. `stamp`: order_clock_ when carried or
  // ordered.
  struct Owed {
    std::shared_ptr<const TransactionRecord> record;
    bool written = false;
    uint64_t stamp = 0;
  };
  // Ticks once per carried record and per ordered own record: a commit can
  // only depend on records carried before it was ordered.
  uint64_t order_clock_ LBC_GUARDED_BY(mu_) = 0;
  std::map<std::pair<NodeId, uint64_t>, Owed> owed_ LBC_GUARDED_BY(mu_);
  // Each writer's durable watermark as last heard (DropCarried).
  std::map<NodeId, uint64_t> writer_durable_ LBC_GUARDED_BY(mu_);
  // Per-lock cut of the trims so far: records covered by it are folded into
  // the database files and never carried again.
  std::map<LockId, uint64_t> folded_ LBC_GUARDED_BY(mu_);
  std::atomic<uint64_t> durable_seq_{0};

  // Signaled whenever a trim shrinks the log; commits stalled at the hard
  // watermark wait here (releasing mu_, so trims and external updates
  // proceed). Rank: same condvar protocol as every other mu_ waiter.
  base::CondVar log_space_cv_;
  // Hard-watermark episode guard, SHARED by all stallers: set by the one
  // that fires the trim hook, cleared by any trim that frees space. One
  // hook invocation per episode no matter how many commits are stalled.
  bool trim_hook_fired_ LBC_GUARDED_BY(mu_) = false;
  CommitHook commit_hook_;
  TrimHook trim_hook_;

  RvmCounts<obs::Counter> m_;
  obs::Attachment attached_;
  obs::Histogram* commit_nanos_;       // rvm.n<node>.commit_nanos
  obs::Histogram* batch_size_;         // commit.batch.size
  obs::Histogram* cohort_wait_nanos_;  // commit.batch.cohort_wait_nanos
};

}  // namespace rvm

#endif  // SRC_RVM_RVM_H_
