// Recoverable Virtual Memory runtime — a from-scratch reimplementation of
// the programming model of CMU's RVM package (Satyanarayanan et al., TOCS
// '94), extended with the hooks the paper adds for log-based coherency:
//
//   * rvm_setlockid_transaction (Table 1): tags the current transaction with
//     the (lock id, sequence number) pairs of the segment locks it acquired;
//     these become lock records in the commit's log entry (§3.4).
//   * a commit hook, invoked after the log write with I/O-vector views of
//     the committed new values still in place in the region images, so the
//     coherency layer can broadcast exactly the bytes that were logged
//     without any extra collection cost (§2, §3.2).
//
// One Rvm instance is one client node: it maps regions (whole database files
// copied into virtual memory at startup, as in RVM), runs local transactions
// against the in-memory images, and appends committed redo records to its
// own per-node log on the durable store.
#ifndef SRC_RVM_RVM_H_
#define SRC_RVM_RVM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
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
  RegionId id_;
  std::vector<uint8_t> image_;
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

// Counters and timing buckets used to reproduce the paper's figures.
// Times are wall-clock nanoseconds accumulated on this node, read per
// commit or per applied record, never per update: SetRange reads no clock,
// so callers that want the Detect phase time a batch of calls themselves.
struct RvmStats {
  uint64_t set_range_calls = 0;
  uint64_t set_range_duplicates = 0;  // redundant re-registrations coalesced
  uint64_t transactions_committed = 0;
  uint64_t transactions_aborted = 0;
  uint64_t ranges_logged = 0;
  uint64_t bytes_logged = 0;       // modified bytes (payload data only)
  uint64_t pages_logged = 0;       // distinct 8 KB pages containing logged bytes
  uint64_t adaptive_pages_coalesced = 0;  // dense pages collapsed to one span
  uint64_t log_bytes_written = 0;  // framed bytes to the durable log
  // Group commit (the commit pipeline; see DESIGN.md §13).
  uint64_t commit_batches = 0;     // leader drains: one vectored write each
  uint64_t commit_batch_txns = 0;  // transactions committed through the pipeline
  uint64_t fsyncs_saved = 0;       // kFlush commits that shared the leader's sync
  uint64_t collect_nanos = 0;      // commit-time gather+encode ("Collect")
  uint64_t disk_nanos = 0;         // log write + sync ("Disk I/O")
  uint64_t apply_nanos = 0;        // ApplyExternalRanges ("Apply Updates")
  uint64_t external_updates_applied = 0;
  uint64_t external_bytes_applied = 0;
  // Log-quota backpressure (see RvmOptions watermarks).
  uint64_t backpressure_stalls = 0;      // commits that hit the hard watermark
  uint64_t backpressure_stall_nanos = 0; // total time commits spent stalled
  uint64_t trim_requests = 0;            // trim-hook firings (soft + stalled)
  uint64_t commits_exhausted = 0;        // stalls that expired -> RESOURCE_EXHAUSTED
};

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
  [[nodiscard]] base::Status UnmapRegion(RegionId id);

  // --- transactions (Table 1 interface) ----------------------------------

  TxnId BeginTransaction(RestoreMode mode);

  // Declares intent to modify [offset, offset+len) of `region` in the
  // current transaction (rvm_set_range). Must precede the actual stores
  // when the transaction may abort.
  [[nodiscard]] base::Status SetRange(TxnId txn, RegionId region, uint64_t offset, uint64_t len);

  // rvm_setlockid_transaction: records that `txn` holds (lock, sequence).
  [[nodiscard]] base::Status SetLockId(TxnId txn, LockId lock, uint64_t sequence);

  // Commits. With disk logging on, the commit rides the group-commit
  // pipeline: under the instance lock the committer only gathers ranges,
  // stamps the commit sequence, encodes the redo record, and enqueues it;
  // the first waiter becomes the batch leader, drains the queue into ONE
  // vectored log append plus (if any batch member asked to flush) ONE
  // fsync, and wakes the cohort with their individual statuses. A batch is
  // atomic at the log-frame level only: each transaction keeps its own
  // framed, checksummed record, so a crash mid-batch recovers to a
  // per-transaction committed prefix of the batch. The commit hook runs on
  // the committing thread after its record is durable.
  [[nodiscard]] base::Status EndTransaction(TxnId txn, CommitMode mode);

  // Aborts: restores undo copies (kRestore transactions only).
  [[nodiscard]] base::Status AbortTransaction(TxnId txn);

  // Makes all kNoFlush commits durable.
  [[nodiscard]] base::Status FlushLog();

  // --- coherency integration ----------------------------------------------

  // Hook invoked inside EndTransaction after the log write. With disk
  // logging on, the CommitContext's RangeRefs point into ctx.record (the
  // refcounted encoded log payload — stable no matter how many later
  // transactions have already overwritten the live images by the time the
  // batch leader finishes); with logging off they point into the live
  // region images, unchanged since there is no pipeline to outrun them.
  using CommitHook = std::function<void(const CommitContext&)>;
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

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

  // Single-node checkpoint: replays this node's committed log into the
  // database files and resets the log. Only correct when no other node has
  // written the shared regions since the last truncation; multi-node
  // truncation goes through the storage server's merge (§3.5).
  [[nodiscard]] base::Status TruncateLog();

  // Empties the log WITHOUT applying it — for coordinated multi-node
  // trimming (lbc::OnlineTrim), where the caller has already merged and
  // replayed every node's log while writers were quiesced.
  [[nodiscard]] base::Status ResetLog();

  // Selective trim for standby-driven checkpointing (no quiesce): drops
  // every committed record whose lock sequence numbers are ALL at or below
  // the given baselines (those updates are reflected in the checkpoint the
  // caller just wrote); everything else — newer records and lock-free
  // records — is kept, in order. Serialized against commits.
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

  // Point-in-time copy taken under the instance lock; safe to call while
  // receiver threads are applying external updates.
  RvmStats stats() const;
  void ResetStats();
  uint64_t commit_seq() const;
  // Framed bytes currently in the redo log (what the watermarks measure).
  uint64_t log_bytes() const;

 private:
  Rvm(store::DurableStore* store, NodeId node, const RvmOptions& options)
      : store_(store), node_(node), options_(options) {}

  struct Txn {
    RestoreMode mode = RestoreMode::kNoRestore;
    bool active = false;
    std::map<RegionId, RangeSet> ranges;
    std::vector<LockRecord> locks;
    struct UndoEntry {
      RegionId region;
      uint64_t offset;
      std::vector<uint8_t> old_data;
    };
    std::vector<UndoEntry> undo;
  };

  // One commit parked on the pipeline: the fully encoded log payload plus
  // completion state. Lives on the committing thread's stack; every field
  // is written under mu_ (by the enqueuer, then by the batch leader).
  struct PendingCommit {
    base::Buffer payload;  // encoded record, shared with ctx.record
    CommitMode mode = CommitMode::kFlush;
    bool done = false;
    base::Status status;
    uint64_t enqueued_nanos = 0;
  };

  // Outcome of one leader drain (WriteBatch).
  struct BatchResult {
    base::Status status;
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
    bool synced = false;
  };

  base::Status Init();

  // Leader I/O: one vectored append of every payload in `batch`, one sync
  // if any member committed kFlush. Takes log_mu_ internally; called with
  // NO locks held (mu_ dropped), so committers keep enqueueing and trims
  // keep trimming while the batch is on its way to the disk.
  BatchResult WriteBatch(const std::vector<PendingCommit*>& batch)
      LBC_EXCLUDES(mu_, log_mu_);

  // Publishes a finished batch: per-entry statuses, batch stats/metrics.
  void FinishBatchLocked(const std::vector<PendingCommit*>& batch,
                         const BatchResult& result, bool* crossed_soft)
      LBC_REQUIRES(mu_);

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
  TxnId next_txn_ LBC_GUARDED_BY(mu_) = 1;
  uint64_t commit_seq_ LBC_GUARDED_BY(mu_) = 0;

  // Log writer state, guarded by its own mutex so the batch leader's I/O
  // runs with mu_ RELEASED: committers gather and enqueue under mu_ while
  // the previous batch is still being written. Order is always mu_ ->
  // log_mu_, never the reverse (the leader drops mu_ before taking log_mu_
  // and re-acquires mu_ only after releasing it).
  mutable base::Mutex log_mu_{"rvm.log", base::LockRank::kRvmLog};
  std::unique_ptr<LogWriter> log_ LBC_GUARDED_BY(log_mu_);
  // Unsynced kNoFlush commits pending.
  bool log_dirty_ LBC_GUARDED_BY(log_mu_) = false;

  // --- commit pipeline (group commit) ------------------------------------
  // Commits enqueue here in commit_seq order; the first waiter that finds
  // no active leader becomes the leader and drains the whole queue.
  std::deque<PendingCommit*> commit_queue_ LBC_GUARDED_BY(mu_);
  bool commit_leader_active_ LBC_GUARDED_BY(mu_) = false;
  // Test gate: while held, nobody self-elects (see HoldCommitPipeline).
  bool commit_pipeline_held_ LBC_GUARDED_BY(mu_) = false;
  // Signaled when a batch completes or the leadership baton is free.
  base::CondVar commit_cv_;

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
  RvmStats stats_ LBC_GUARDED_BY(mu_);

  // Registered once in Init(); hot paths only bump the atomics. These mirror
  // the phase fields of RvmStats into the process-wide registry under
  // rvm.n<node>.<phase>_nanos.
  obs::Counter* obs_collect_nanos_ = nullptr;
  obs::Counter* obs_disk_nanos_ = nullptr;
  obs::Counter* obs_apply_nanos_ = nullptr;
  obs::Counter* obs_commits_ = nullptr;
  obs::Histogram* obs_commit_latency_ = nullptr;
};

}  // namespace rvm

#endif  // SRC_RVM_RVM_H_
