#include "src/base/sync.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>

namespace base {
namespace detail {
namespace {

// The registry's own lock is a raw std::mutex on purpose: instrumenting it
// with the detector it implements would recurse.
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, int> ids;
  std::vector<std::string> names;
  // Acquired-before graph over interned name ids. Each edge keeps the held
  // stack (names, bottom to top) observed when it was first recorded, so a
  // later cycle can show both offending acquisition orders.
  std::map<std::pair<int, int>, std::vector<std::string>> edges;
  std::unordered_map<int, std::vector<int>> adj;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

std::vector<const LockTag*>& HeldStack() {
  thread_local std::vector<const LockTag*> stack;
  return stack;
}

std::atomic<uint64_t> g_acquires_checked{0};
std::atomic<uint64_t> g_edges_recorded{0};
std::atomic<uint64_t> g_cycles_detected{0};
std::atomic<uint64_t> g_rank_inversions{0};
std::atomic<uint64_t> g_self_recursions{0};

std::mutex g_handler_mu;
LockOrderHandler g_handler;  // empty -> default print + abort

bool InitEnabledFromEnv() {
  const char* env = std::getenv("LBC_LOCK_ORDER");
  if (env != nullptr && env[0] != '\0') return env[0] == '1';
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

const char* KindName(LockOrderReport::Kind kind) {
  switch (kind) {
    case LockOrderReport::Kind::kCycle:
      return "lock-order cycle (potential ABBA deadlock)";
    case LockOrderReport::Kind::kRankInversion:
      return "lock-rank inversion";
    case LockOrderReport::Kind::kSelfRecursion:
      return "self-recursive acquisition (guaranteed deadlock)";
  }
  return "lock-order violation";
}

std::string JoinStack(const std::vector<std::string>& stack) {
  std::string out;
  for (size_t i = 0; i < stack.size(); ++i) {
    if (i > 0) out += " -> ";
    out += stack[i];
  }
  return out;
}

std::vector<std::string> HeldNames(const LockTag* acquiring) {
  std::vector<std::string> names;
  for (const LockTag* held : HeldStack()) names.push_back(held->name());
  if (acquiring != nullptr) names.push_back(std::string(acquiring->name()) + " (acquiring)");
  return names;
}

void Dispatch(LockOrderReport report) {
  report.message = std::string(KindName(report.kind)) + ": acquiring \"" +
                   report.acquiring + "\" while holding \"" + report.held +
                   "\"; this thread: [" + JoinStack(report.this_stack) +
                   "]; prior order: [" + JoinStack(report.prior_stack) + "]";
  LockOrderHandler handler;
  {
    std::lock_guard<std::mutex> lock(g_handler_mu);
    handler = g_handler;
  }
  if (handler) {
    handler(report);
    return;
  }
  std::fprintf(stderr, "[lockorder] %s\n", KindName(report.kind));
  std::fprintf(stderr, "[lockorder]   acquiring: %s\n", report.acquiring.c_str());
  std::fprintf(stderr, "[lockorder]   held:      %s\n", report.held.c_str());
  std::fprintf(stderr, "[lockorder]   this thread holds: %s\n",
               JoinStack(report.this_stack).c_str());
  std::fprintf(stderr, "[lockorder]   prior acquisition: %s\n",
               JoinStack(report.prior_stack).c_str());
  std::abort();
}

// Is `to` reachable from `from` in the acquired-before graph? On success
// fills `path` with the interned ids from `from` to `to` inclusive.
bool ReachableLocked(const Registry& reg, int from, int to, std::vector<int>* path) {
  path->push_back(from);
  if (from == to) return true;
  auto it = reg.adj.find(from);
  if (it != reg.adj.end()) {
    for (int next : it->second) {
      if (ReachableLocked(reg, next, to, path)) return true;
    }
  }
  path->pop_back();
  return false;
}

}  // namespace

std::atomic<bool> g_lock_order_enabled{InitEnabledFromEnv()};

int InternLockName(const char* name) {
  if (name == nullptr) return -1;
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.ids.find(name);
  if (it != reg.ids.end()) return it->second;
  const int id = static_cast<int>(reg.names.size());
  reg.names.push_back(name);
  reg.ids.emplace(name, id);
  return id;
}

void LockOrderBeforeAcquire(const LockTag* mu) {
  g_acquires_checked.fetch_add(1, std::memory_order_relaxed);
  const std::vector<const LockTag*>& held = HeldStack();
  if (held.empty()) return;

  for (const LockTag* h : held) {
    if (h == mu) {
      g_self_recursions.fetch_add(1, std::memory_order_relaxed);
      LockOrderReport report;
      report.kind = LockOrderReport::Kind::kSelfRecursion;
      report.acquiring = mu->name();
      report.held = mu->name();
      report.this_stack = HeldNames(mu);
      Dispatch(std::move(report));
      return;
    }
  }

  // Rank discipline: never acquire below the highest rank already held.
  const LockTag* max_ranked = nullptr;
  for (const LockTag* h : held) {
    if (h->rank() == LockRank::kUnranked) continue;
    if (max_ranked == nullptr || h->rank() > max_ranked->rank()) max_ranked = h;
  }
  if (mu->rank() != LockRank::kUnranked && max_ranked != nullptr &&
      mu->rank() < max_ranked->rank()) {
    g_rank_inversions.fetch_add(1, std::memory_order_relaxed);
    LockOrderReport report;
    report.kind = LockOrderReport::Kind::kRankInversion;
    report.acquiring = mu->name();
    report.held = max_ranked->name();
    report.this_stack = HeldNames(mu);
    Dispatch(std::move(report));
  }

  if (mu->name_id() < 0) return;
  std::vector<LockOrderReport> cycles;
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const LockTag* h : held) {
      const int from = h->name_id();
      const int to = mu->name_id();
      if (from < 0 || from == to) continue;  // same-name nesting: instance
                                             // identity is gone at name
                                             // granularity, skip the edge
      if (reg.edges.count({from, to}) != 0) continue;
      std::vector<int> path;
      if (ReachableLocked(reg, to, from, &path)) {
        // Adding from->to would close a cycle to..from. Report with the
        // stack recorded for the first reverse edge; leave the graph acyclic.
        g_cycles_detected.fetch_add(1, std::memory_order_relaxed);
        LockOrderReport report;
        report.kind = LockOrderReport::Kind::kCycle;
        report.acquiring = mu->name();
        report.held = h->name();
        report.this_stack = HeldNames(mu);
        if (path.size() >= 2) {
          auto it = reg.edges.find({path[0], path[1]});
          if (it != reg.edges.end()) report.prior_stack = it->second;
        }
        cycles.push_back(std::move(report));
        continue;
      }
      reg.edges.emplace(std::make_pair(from, to), HeldNames(mu));
      reg.adj[from].push_back(to);
      g_edges_recorded.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Handlers run outside the registry lock: they may take annotated locks.
  for (LockOrderReport& report : cycles) Dispatch(std::move(report));
}

void LockOrderAfterAcquire(const LockTag* mu) { HeldStack().push_back(mu); }

void LockOrderOnRelease(const LockTag* mu) {
  std::vector<const LockTag*>& held = HeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == mu) {
      held.erase(std::next(it).base());
      return;
    }
  }
  // Not found: the detector was enabled while this lock was already held.
}

void LockOrderBeforeWait(const LockTag* mu) { LockOrderOnRelease(mu); }

void LockOrderAfterWait(const LockTag* mu) {
  // Waking from a wait re-acquires the mutex, possibly under locks acquired
  // since; treat it as a fresh acquisition so edges are re-recorded.
  LockOrderBeforeAcquire(mu);
  LockOrderAfterAcquire(mu);
}

}  // namespace detail

void SetLockOrderEnabled(bool enabled) {
  detail::g_lock_order_enabled.store(enabled, std::memory_order_relaxed);
}

bool LockOrderEnabled() { return detail::LockOrderIsEnabled(); }

void SetLockOrderHandler(LockOrderHandler handler) {
  std::lock_guard<std::mutex> lock(detail::g_handler_mu);
  detail::g_handler = std::move(handler);
}

LockOrderCounters GetLockOrderCounters() {
  LockOrderCounters c;
  c.acquires_checked = detail::g_acquires_checked.load(std::memory_order_relaxed);
  c.edges_recorded = detail::g_edges_recorded.load(std::memory_order_relaxed);
  c.cycles_detected = detail::g_cycles_detected.load(std::memory_order_relaxed);
  c.rank_inversions = detail::g_rank_inversions.load(std::memory_order_relaxed);
  c.self_recursions = detail::g_self_recursions.load(std::memory_order_relaxed);
  return c;
}

void LockOrderTestOnlyReset() {
  detail::Registry& reg = detail::GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.edges.clear();
  reg.adj.clear();
  detail::g_acquires_checked.store(0, std::memory_order_relaxed);
  detail::g_edges_recorded.store(0, std::memory_order_relaxed);
  detail::g_cycles_detected.store(0, std::memory_order_relaxed);
  detail::g_rank_inversions.store(0, std::memory_order_relaxed);
  detail::g_self_recursions.store(0, std::memory_order_relaxed);
}

}  // namespace base
