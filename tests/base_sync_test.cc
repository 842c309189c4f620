// Tests for the concurrency-discipline layer (src/base/sync.h): the
// runtime lock-order detector — deterministic ABBA cycle detection, rank
// inversions, self-recursion, the consistent-order regression — the
// MutexLock <-> CondVar re-acquisition protocol, and SharedMutex: shared
// holders overlap, an exclusive holder excludes them, and both modes are
// ranked.
//
// The acquired-before graph is process-global, so every test resets it
// (LockOrderTestOnlyReset) and uses mutex names unique to the test; the
// collecting handler replaces the default abort so violations can be
// asserted on. One case keeps the default handler and dies, pinning the
// abort behavior itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/base/sync.h"

namespace {

// Installs a collecting handler for the scope of one test and restores the
// default (abort) handler on exit.
class ReportCollector {
 public:
  ReportCollector() {
    base::LockOrderTestOnlyReset();
    base::SetLockOrderEnabled(true);
    base::SetLockOrderHandler(
        [this](const base::LockOrderReport& r) { reports_.push_back(r); });
  }
  ~ReportCollector() {
    base::SetLockOrderHandler(nullptr);
    base::LockOrderTestOnlyReset();
  }

  const std::vector<base::LockOrderReport>& reports() const { return reports_; }

 private:
  std::vector<base::LockOrderReport> reports_;
};

TEST(LockOrderTest, AbbaAcrossTwoThreadsIsDetectedDeterministically) {
  ReportCollector collector;
  base::Mutex a("test.abba.a");
  base::Mutex b("test.abba.b");

  // Thread 1 records the edge a -> b; join before thread 2 starts, so the
  // schedule is fully sequential — no real deadlock, but the graph still
  // proves the potential one.
  std::thread t1([&] {
    base::MutexLock la(a);
    base::MutexLock lb(b);
  });
  t1.join();
  ASSERT_TRUE(collector.reports().empty());

  std::thread t2([&] {
    base::MutexLock lb(b);
    base::MutexLock la(a);  // b -> a closes the cycle
  });
  t2.join();

  ASSERT_EQ(1u, collector.reports().size());
  const base::LockOrderReport& r = collector.reports()[0];
  EXPECT_EQ(base::LockOrderReport::Kind::kCycle, r.kind);
  EXPECT_EQ("test.abba.a", r.acquiring);
  EXPECT_EQ("test.abba.b", r.held);
  // Both offending stacks are reported: this thread's (holding b, taking a)
  // and the prior thread's at the moment a -> b was recorded.
  ASSERT_FALSE(r.this_stack.empty());
  ASSERT_FALSE(r.prior_stack.empty());
  EXPECT_EQ("test.abba.b", r.this_stack.front());
  EXPECT_EQ("test.abba.a", r.prior_stack.front());
  EXPECT_EQ(1u, base::GetLockOrderCounters().cycles_detected);
}

TEST(LockOrderTest, ConsistentOrderAcrossThreadsPasses) {
  ReportCollector collector;
  base::Mutex a("test.consistent.a");
  base::Mutex b("test.consistent.b");

  // Many threads, all a -> b: the graph stays acyclic and nothing fires.
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 100; ++j) {
        base::MutexLock la(a);
        base::MutexLock lb(b);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_TRUE(collector.reports().empty());
  EXPECT_EQ(0u, base::GetLockOrderCounters().cycles_detected);
  // The a -> b edge is recorded once, not once per acquisition.
  EXPECT_EQ(1u, base::GetLockOrderCounters().edges_recorded);
}

TEST(LockOrderTest, CycleReportRepeatsOnEveryOffendingAcquire) {
  // The offending edge is never inserted into the graph, so re-running the
  // inverted acquisition re-reports — regression coverage for detection
  // staying deterministic rather than one-shot.
  ReportCollector collector;
  base::Mutex a("test.repeat.a");
  base::Mutex b("test.repeat.b");
  {
    base::MutexLock la(a);
    base::MutexLock lb(b);
  }
  for (int i = 0; i < 3; ++i) {
    base::MutexLock lb(b);
    base::MutexLock la(a);
  }
  EXPECT_EQ(3u, collector.reports().size());
}

TEST(LockOrderTest, RankInversionIsReported) {
  ReportCollector collector;
  // Fabric (50) taken while holding MemStore (65): backwards per LockRank.
  base::Mutex store_like("test.rank.store", base::LockRank::kStoreMem);
  base::Mutex fabric_like("test.rank.fabric", base::LockRank::kFabric);
  {
    base::MutexLock ls(store_like);
    base::MutexLock lf(fabric_like);
  }
  ASSERT_EQ(1u, collector.reports().size());
  EXPECT_EQ(base::LockOrderReport::Kind::kRankInversion, collector.reports()[0].kind);
  EXPECT_EQ(1u, base::GetLockOrderCounters().rank_inversions);
}

TEST(LockOrderTest, SelfRecursionIsReported) {
  ReportCollector collector;
  base::Mutex a("test.selfrec.a");
  a.Lock();
  // Simulate the re-entrant acquire without actually deadlocking: run only
  // the detector's pre-acquire check, which is where the report fires.
  base::detail::LockOrderBeforeAcquire(&a);
  a.Unlock();
  ASSERT_EQ(1u, collector.reports().size());
  EXPECT_EQ(base::LockOrderReport::Kind::kSelfRecursion, collector.reports()[0].kind);
}

TEST(LockOrderDeathTest, DefaultHandlerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        base::LockOrderTestOnlyReset();
        base::SetLockOrderEnabled(true);
        base::SetLockOrderHandler(nullptr);  // default: print + abort
        base::Mutex a("test.death.a");
        base::Mutex b("test.death.b");
        {
          base::MutexLock la(a);
          base::MutexLock lb(b);
        }
        base::MutexLock lb(b);
        base::MutexLock la(a);
      },
      "lock-order cycle");
}

TEST(LockOrderTest, TryLockRecordsNoEdgeButJoinsHeldStack) {
  ReportCollector collector;
  base::Mutex a("test.trylock.a");
  base::Mutex b("test.trylock.b");
  {
    ASSERT_TRUE(a.TryLock());
    // TryLock cannot deadlock: no a -> b edge check, but a is on the held
    // stack, so the blocking acquire of b records a -> b.
    base::MutexLock lb(b);
    a.Unlock();
  }
  EXPECT_EQ(1u, base::GetLockOrderCounters().edges_recorded);
  // The reverse order now closes a cycle against the recorded edge.
  base::MutexLock lb(b);
  base::MutexLock la(a);
  EXPECT_EQ(1u, collector.reports().size());
}

// ---------------------------------------------------------------------------
// MutexLock <-> CondVar interop
// ---------------------------------------------------------------------------

TEST(CondVarTest, WaitReleasesAndReacquiresTheMutex) {
  ReportCollector collector;
  base::Mutex mu("test.cv.mu");
  base::CondVar cv;
  bool ready = false;
  bool consumed = false;

  std::thread waiter([&] {
    base::MutexLock lk(mu);
    while (!ready) {
      cv.Wait(lk);
    }
    // The lock is re-held after Wait: this write is race-free (TSan-checked
    // in the check.sh TSan pass).
    consumed = true;
  });

  {
    // If Wait failed to release the mutex this Lock would deadlock (the
    // test would time out under ctest's per-test limit).
    base::MutexLock lk(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();

  base::MutexLock lk(mu);
  EXPECT_TRUE(consumed);
  EXPECT_TRUE(collector.reports().empty());
}

TEST(CondVarTest, WaitReestablishesDetectorStateOnWakeup) {
  // Protocol check: Wait pops the mutex from the per-thread held stack for
  // the wait's duration and re-records acquired-before edges on wakeup —
  // so a mutex taken while the waiter sleeps does NOT create an edge from
  // the waited-on mutex, and the post-wakeup state is indistinguishable
  // from a fresh Lock.
  ReportCollector collector;
  base::Mutex outer("test.cvproto.outer");
  base::Mutex inner("test.cvproto.inner");
  base::CondVar cv;
  bool ready = false;

  const uint64_t edges_before = base::GetLockOrderCounters().edges_recorded;

  std::thread waiter([&] {
    base::MutexLock lk(outer);
    while (!ready) {
      cv.Wait(lk);
    }
    // Post-wakeup acquire: records outer -> inner exactly as a fresh
    // acquisition would.
    base::MutexLock li(inner);
  });

  {
    base::MutexLock lk(outer);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();

  EXPECT_EQ(edges_before + 1, base::GetLockOrderCounters().edges_recorded);
  EXPECT_TRUE(collector.reports().empty());

  // And the edge is live: inverting it is detected.
  base::MutexLock li(inner);
  base::MutexLock lo(outer);
  EXPECT_EQ(1u, collector.reports().size());
  EXPECT_EQ(base::LockOrderReport::Kind::kCycle, collector.reports()[0].kind);
}

TEST(CondVarTest, WaitUntilTimesOutWithLockReheld) {
  base::LockOrderTestOnlyReset();
  base::Mutex mu("test.cvtimeout.mu");
  base::CondVar cv;
  base::MutexLock lk(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  EXPECT_FALSE(cv.WaitUntil(lk, deadline));
  EXPECT_TRUE(lk.OwnsLock());
}

TEST(LockOrderTest, DisabledDetectorRecordsNothing) {
  base::LockOrderTestOnlyReset();
  base::SetLockOrderEnabled(false);
  {
    base::Mutex a("test.disabled.a");
    base::Mutex b("test.disabled.b");
    base::MutexLock la(a);
    base::MutexLock lb(b);
  }
  EXPECT_EQ(0u, base::GetLockOrderCounters().acquires_checked);
  EXPECT_EQ(0u, base::GetLockOrderCounters().edges_recorded);
  base::SetLockOrderEnabled(true);
  base::LockOrderTestOnlyReset();
}

TEST(SharedMutexTest, ReadersOverlapAndAWriterExcludesThem) {
  ReportCollector collector;
  base::SharedMutex mu("test.shared.rw");
  std::atomic<int> readers_in{0};
  std::atomic<bool> overlapped{false};
  std::atomic<bool> writer_saw_reader{false};

  // Each reader stays inside until both have been in at once (which only a
  // shared hold allows) or 5 s pass.
  auto reader = [&] {
    base::ReaderMutexLock lk(mu);
    if (++readers_in == 2) {
      overlapped = true;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!overlapped.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    --readers_in;
  };
  std::thread r1(reader);
  std::thread r2(reader);
  r1.join();
  r2.join();
  EXPECT_TRUE(overlapped.load());

  std::thread w;
  {
    base::WriterMutexLock held(mu);
    w = std::thread([&] {
      base::ReaderMutexLock lk(mu);  // blocks until the writer leaves
      writer_saw_reader = readers_in.load() != 0;
      ++readers_in;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(0, readers_in.load()) << "a reader entered under an exclusive hold";
  }
  w.join();
  EXPECT_EQ(1, readers_in.load());
  EXPECT_FALSE(writer_saw_reader.load());
  EXPECT_TRUE(collector.reports().empty());
}

TEST(SharedMutexTest, SharedAcquisitionIsRanked) {
  ReportCollector collector;
  base::Mutex high("test.shared.high", 50);
  base::SharedMutex low("test.shared.low", 10);
  {
    base::MutexLock lh(high);
    base::ReaderMutexLock ll(low);  // rank 10 under rank 50
  }
  ASSERT_EQ(1u, collector.reports().size());
  EXPECT_EQ(base::LockOrderReport::Kind::kRankInversion, collector.reports()[0].kind);
  EXPECT_EQ("test.shared.low", collector.reports()[0].acquiring);
}

}  // namespace
