#ifndef LBC_BASE_SYNC_H_
#define LBC_BASE_SYNC_H_

// Concurrency-discipline layer: annotated Mutex / MutexLock / CondVar.
//
// Every mutex in the tree goes through these wrappers (scripts/lint.py
// rejects bare std::mutex outside this header and sync.cc). Two enforcement
// mechanisms share the types:
//
//  1. Compile time: Clang thread-safety analysis. The LBC_* macros below
//     expand to Clang capability attributes (no-ops on other compilers);
//     shared state is annotated LBC_GUARDED_BY(mu_) and internal
//     `...Locked()` helpers LBC_REQUIRES(mu_), so a Clang build with
//     -DLBC_THREAD_SAFETY=ON (promoted to -Werror=thread-safety) proves
//     lock discipline statically.
//
//  2. Run time: a lock-order detector. Each Mutex registers a name and an
//     optional rank (the repo-wide rank map lives in LockRank below and is
//     documented in DESIGN.md). Acquisitions maintain a per-thread
//     held-lock stack and a global acquired-before graph; a cycle
//     (potential ABBA deadlock), a rank inversion, or a self-recursive
//     acquisition reports both offending stacks and aborts. The detector
//     is on by default in debug (!NDEBUG) builds and can be forced either
//     way with LBC_LOCK_ORDER=0/1. When disabled the per-acquisition cost
//     is one relaxed atomic load, so release hot paths are unaffected.
//     Counters are exported through obs as sync.lockorder.*.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-op on non-Clang compilers).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LBC_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef LBC_THREAD_ANNOTATION_
#define LBC_THREAD_ANNOTATION_(x)  // not Clang: annotations compile away
#endif

#define LBC_CAPABILITY(x) LBC_THREAD_ANNOTATION_(capability(x))
#define LBC_SCOPED_CAPABILITY LBC_THREAD_ANNOTATION_(scoped_lockable)
#define LBC_GUARDED_BY(x) LBC_THREAD_ANNOTATION_(guarded_by(x))
#define LBC_PT_GUARDED_BY(x) LBC_THREAD_ANNOTATION_(pt_guarded_by(x))
#define LBC_ACQUIRED_BEFORE(...) LBC_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define LBC_ACQUIRED_AFTER(...) LBC_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define LBC_REQUIRES(...) LBC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define LBC_ACQUIRE(...) LBC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define LBC_RELEASE(...) LBC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define LBC_TRY_ACQUIRE(...) LBC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define LBC_EXCLUDES(...) LBC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define LBC_ASSERT_CAPABILITY(x) LBC_THREAD_ANNOTATION_(assert_capability(x))
#define LBC_RETURN_CAPABILITY(x) LBC_THREAD_ANNOTATION_(lock_returned(x))
#define LBC_NO_THREAD_SAFETY_ANALYSIS LBC_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace base {

class Mutex;

// ---------------------------------------------------------------------------
// Lock ranks.
//
// A thread must acquire mutexes in strictly increasing rank; acquiring a
// ranked mutex while holding one of higher rank is reported as an
// inversion even before a full cycle exists in the acquired-before graph.
// The order below is the one the code actually uses today:
//
//   client -> clusterDb -> {cluster, rvm} -> rvmLog -> reliable -> {fabric, endpoint} -> stores -> obs -> log
//
// (Handlers and commit hooks are invoked with the caller's lock dropped,
// which is what keeps the reverse edges out of the graph; see DESIGN.md.)
// ---------------------------------------------------------------------------
struct LockRank {
  static constexpr int kUnranked = -1;
  static constexpr int kClient = 10;           // lbc::Client::mu_
  static constexpr int kClusterDb = 15;        // lbc::Cluster::db_mu_ (database-file writers)
  static constexpr int kCluster = 20;          // lbc::Cluster::mu_
  static constexpr int kRecovery = 25;         // rvm::IncrementalRecovery::mu_
  static constexpr int kRvm = 30;              // rvm::Rvm::mu_
  static constexpr int kRvmLog = 35;           // rvm::Rvm::log_mu_ (group-commit I/O)
  static constexpr int kReliable = 40;         // netsim::ReliableChannel::mu_
  static constexpr int kPageDsm = 45;          // baselines::PageDsmNode::mu_
  static constexpr int kFabric = 50;           // netsim::Fabric::mu_
  static constexpr int kEndpoint = 55;         // netsim::Endpoint::mu_
  static constexpr int kStoreReplicated = 58;  // store::ReplicatedStore
  static constexpr int kStoreCrashPoint = 60;  // store::CrashPointStore
  static constexpr int kStoreCorrupt = 62;     // store::CorruptionInjectingStore
  static constexpr int kStoreResource = 63;    // store::ResourceStore (quota/latency)
  static constexpr int kStoreMem = 65;         // store::MemStore
  static constexpr int kStoreFileQuota = 66;   // store::FileStore quota ledger
  static constexpr int kObs = 80;              // obs registry / trace ring
  static constexpr int kLogging = 90;          // base logging emit lock (leaf)
};

// A lock-order violation observed by the runtime detector.
struct LockOrderReport {
  enum class Kind { kCycle, kRankInversion, kSelfRecursion };
  Kind kind = Kind::kCycle;
  std::string acquiring;                 // mutex being acquired
  std::string held;                      // conflicting mutex already held
  std::vector<std::string> this_stack;   // this thread's held names + acquiring
  std::vector<std::string> prior_stack;  // held names when the reverse edge was recorded
  std::string message;                   // rendered one-line summary
};

using LockOrderHandler = std::function<void(const LockOrderReport&)>;

// Detector controls. The default handler prints both stacks to stderr and
// aborts; tests install a collecting handler instead. Passing a null
// handler restores the default.
void SetLockOrderEnabled(bool enabled);
bool LockOrderEnabled();
void SetLockOrderHandler(LockOrderHandler handler);

// Monotonic detector statistics, exported by obs as sync.lockorder.*.
struct LockOrderCounters {
  uint64_t acquires_checked = 0;
  uint64_t edges_recorded = 0;
  uint64_t cycles_detected = 0;
  uint64_t rank_inversions = 0;
  uint64_t self_recursions = 0;
};
LockOrderCounters GetLockOrderCounters();

// Drops the acquired-before graph and zeroes the counters. Test-only: the
// graph is process-global, so suites that deliberately provoke violations
// reset between cases to keep detection deterministic.
void LockOrderTestOnlyReset();

namespace detail {
extern std::atomic<bool> g_lock_order_enabled;
inline bool LockOrderIsEnabled() {
  return g_lock_order_enabled.load(std::memory_order_relaxed);
}
void LockOrderBeforeAcquire(const Mutex* mu);
void LockOrderAfterAcquire(const Mutex* mu);
void LockOrderOnRelease(const Mutex* mu);
// CondVar wait: the mutex leaves the held stack for the duration of the
// wait and re-records its acquired-before edges on wakeup.
void LockOrderBeforeWait(const Mutex* mu);
void LockOrderAfterWait(const Mutex* mu);
int InternLockName(const char* name);
}  // namespace detail

// ---------------------------------------------------------------------------
// Mutex: std::mutex plus a capability annotation, a registered name/rank
// for the lock-order detector, and Lock/Unlock spelled as methods so the
// acquisition hooks have one choke point.
// ---------------------------------------------------------------------------
class LBC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex(nullptr, LockRank::kUnranked) {}
  explicit Mutex(const char* name, int rank = LockRank::kUnranked)
      : name_(name), rank_(rank), name_id_(detail::InternLockName(name)) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LBC_ACQUIRE() {
    if (detail::LockOrderIsEnabled()) detail::LockOrderBeforeAcquire(this);
    mu_.lock();
    if (detail::LockOrderIsEnabled()) detail::LockOrderAfterAcquire(this);
  }

  void Unlock() LBC_RELEASE() {
    if (detail::LockOrderIsEnabled()) detail::LockOrderOnRelease(this);
    mu_.unlock();
  }

  bool TryLock() LBC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A try-lock cannot deadlock, so no edge/rank check; it still joins the
    // held stack so later blocking acquisitions record edges from it.
    if (detail::LockOrderIsEnabled()) detail::LockOrderAfterAcquire(this);
    return true;
  }

  const char* name() const { return name_ != nullptr ? name_ : "(anon)"; }
  int rank() const { return rank_; }
  int name_id() const { return name_id_; }

 private:
  friend class CondVar;
  std::mutex& native_handle() { return mu_; }

  std::mutex mu_;
  const char* name_;  // string literal; not owned
  int rank_;
  int name_id_;  // interned id for the acquired-before graph; -1 if anonymous
};

// ---------------------------------------------------------------------------
// MutexLock: scoped acquisition (the only way the tree takes a Mutex).
// Supports the unlock/relock pattern std::unique_lock allowed, with the
// scoped-capability annotations Clang needs to track it.
// ---------------------------------------------------------------------------
class LBC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LBC_ACQUIRE(mu) : mu_(&mu), owned_(true) {
    mu_->Lock();
  }

  ~MutexLock() LBC_RELEASE() {
    if (owned_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Mid-scope release (e.g. dropping the lock around a callback or I/O).
  void Unlock() LBC_RELEASE() {
    mu_->Unlock();
    owned_ = false;
  }

  // Re-acquire after Unlock().
  void Lock() LBC_ACQUIRE() {
    mu_->Lock();
    owned_ = true;
  }

  bool OwnsLock() const { return owned_; }
  Mutex* GetMutex() const { return mu_; }

 private:
  Mutex* mu_;
  bool owned_;
};

// ---------------------------------------------------------------------------
// CondVar: condition variable bound to Mutex via MutexLock.
//
// Deliberately no predicate overloads: a predicate lambda reads guarded
// state in a scope the thread-safety analysis cannot see into, so waits
// are written as explicit `while (!cond) cv_.Wait(lk);` loops where every
// guarded access sits in the annotated function body.
// ---------------------------------------------------------------------------
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) {
    Mutex* mu = lock.GetMutex();
    const bool tracked = detail::LockOrderIsEnabled();
    if (tracked) detail::LockOrderBeforeWait(mu);
    std::unique_lock<std::mutex> native(mu->native_handle(), std::adopt_lock);
    cv_.wait(native);
    native.release();
    if (tracked) detail::LockOrderAfterWait(mu);
  }

  // Returns false on timeout (the lock is re-held either way).
  template <typename Clock, typename Duration>
  bool WaitUntil(MutexLock& lock,
                 const std::chrono::time_point<Clock, Duration>& deadline) {
    Mutex* mu = lock.GetMutex();
    const bool tracked = detail::LockOrderIsEnabled();
    if (tracked) detail::LockOrderBeforeWait(mu);
    std::unique_lock<std::mutex> native(mu->native_handle(), std::adopt_lock);
    const bool woke = cv_.wait_until(native, deadline) == std::cv_status::no_timeout;
    native.release();
    if (tracked) detail::LockOrderAfterWait(mu);
    return woke;
  }

  // Returns false on timeout (the lock is re-held either way).
  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lock, const std::chrono::duration<Rep, Period>& dur) {
    return WaitUntil(lock, std::chrono::steady_clock::now() + dur);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace base

#endif  // LBC_BASE_SYNC_H_
