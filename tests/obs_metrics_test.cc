// Observability layer: instruments, registry semantics, the trace ring's
// bounded-overwrite behavior, the exporters, and the integer-nanosecond
// ScopedTimer that replaced the double-truncating per-module stopwatch
// pattern (stats_.x_nanos += uint64_t(timer.ElapsedSeconds() * 1e9)).
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "src/base/clock.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace {

TEST(Counter, AddIncrementReset) {
  obs::Counter c;
  EXPECT_EQ(0u, c.value());
  c.Increment();
  c.Add(41);
  EXPECT_EQ(42u, c.value());
  c.Reset();
  EXPECT_EQ(0u, c.value());
}

TEST(Gauge, SetAddGoesDown) {
  obs::Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(-15, g.value());
  g.Reset();
  EXPECT_EQ(0, g.value());
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(0, obs::Histogram::BucketOf(0));
  EXPECT_EQ(1, obs::Histogram::BucketOf(1));
  EXPECT_EQ(2, obs::Histogram::BucketOf(2));
  EXPECT_EQ(2, obs::Histogram::BucketOf(3));
  EXPECT_EQ(3, obs::Histogram::BucketOf(4));
  for (int b = 1; b < obs::Histogram::kBuckets; ++b) {
    uint64_t lo = obs::Histogram::BucketLowerBound(b);
    EXPECT_EQ(b, obs::Histogram::BucketOf(lo)) << "lower bound of bucket " << b;
    if (b < 64) {
      // Last value of the bucket is 2^b - 1.
      EXPECT_EQ(b, obs::Histogram::BucketOf((uint64_t{1} << b) - 1));
      EXPECT_EQ(b + 1, obs::Histogram::BucketOf(uint64_t{1} << b));
    }
  }
  EXPECT_EQ(64, obs::Histogram::BucketOf(UINT64_MAX));
}

TEST(Histogram, RecordTracksExactCountSumMinMax) {
  obs::Histogram h;
  EXPECT_EQ(0u, h.min());
  EXPECT_EQ(0u, h.max());
  EXPECT_EQ(0u, h.PercentileUpperBound(99));
  for (uint64_t v : {7u, 100u, 3u, 100000u}) {
    h.Record(v);
  }
  EXPECT_EQ(4u, h.count());
  EXPECT_EQ(100110u, h.sum());
  EXPECT_EQ(3u, h.min());
  EXPECT_EQ(100000u, h.max());
  EXPECT_DOUBLE_EQ(100110.0 / 4.0, h.mean());
  // With 4 samples, p99's rank truncates to 3: the third value ascending is
  // 100, whose bucket [64, 128) is reported as <= 127. p100 is the top
  // sample's bucket [65536, 131072).
  EXPECT_EQ(127u, h.PercentileUpperBound(99));
  EXPECT_EQ((uint64_t{1} << 17) - 1, h.PercentileUpperBound(100));
  h.Reset();
  EXPECT_EQ(0u, h.count());
  EXPECT_EQ(0u, h.min());
}

TEST(Registry, FindOrCreateSharesInstruments) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("lbc.n1.commits");
  obs::Counter* b = reg.GetCounter("lbc.n1.commits");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("lbc.n2.commits"));
  a->Add(5);
  EXPECT_EQ(5u, b->value());
}

TEST(Registry, SnapshotAndResetAll) {
  obs::MetricsRegistry reg;
  reg.GetCounter("x.count")->Add(3);
  reg.GetGauge("x.level")->Set(-2);
  reg.GetHistogram("x.nanos")->Record(1000);
  auto snap = reg.TakeSnapshot();
  EXPECT_EQ(3u, snap.counters.at("x.count"));
  EXPECT_EQ(-2, snap.gauges.at("x.level"));
  EXPECT_EQ(1u, snap.histograms.at("x.nanos").count);
  EXPECT_EQ(1000u, snap.histograms.at("x.nanos").min);
  ASSERT_EQ(1u, snap.histograms.at("x.nanos").buckets.size());
  EXPECT_EQ(512u, snap.histograms.at("x.nanos").buckets[0].first);  // [512,1024)
  reg.ResetAll();
  auto zeroed = reg.TakeSnapshot();
  EXPECT_EQ(0u, zeroed.counters.at("x.count"));
  EXPECT_EQ(0u, zeroed.histograms.at("x.nanos").count);
}

TEST(Registry, NodeMetricNameScheme) {
  EXPECT_EQ("rvm.n3.apply_nanos", obs::NodeMetricName("rvm", 3, "apply_nanos"));
}

TEST(Registry, CountersAreThreadSafe) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      obs::Counter* c = reg.GetCounter("contended");
      for (int i = 0; i < kAdds; ++i) {
        c->Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kAdds, reg.GetCounter("contended")->value());
}

// The satellite regression for the old accumulation pattern: each sample was
// round-tripped through double seconds and truncated back to integer nanos,
// so N accumulated short samples drifted below one long sample. ScopedTimer
// must make them exactly equal under a deterministic clock.
TEST(ScopedTimer, ShortSamplesAccumulateExactly) {
  base::ManualClock clock;
  obs::Counter many;
  obs::Counter one;
  obs::Histogram histo;
  // Deliberately awkward: not a power of two, not a multiple of 10.
  constexpr uint64_t kSampleNanos = 1467;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    obs::ScopedTimer timer(&many, &histo, &clock);
    clock.AdvanceNanos(kSampleNanos);
  }
  {
    obs::ScopedTimer timer(&one, nullptr, &clock);
    clock.AdvanceNanos(kSampleNanos * kSamples);
  }
  EXPECT_EQ(kSampleNanos * kSamples, many.value());
  EXPECT_EQ(one.value(), many.value());
  EXPECT_EQ(static_cast<uint64_t>(kSamples), histo.count());
  EXPECT_EQ(many.value(), histo.sum());
  EXPECT_EQ(kSampleNanos, histo.min());
  EXPECT_EQ(kSampleNanos, histo.max());
}

TEST(ScopedTimer, StopIsIdempotentAndReturnsElapsed) {
  base::ManualClock clock(1000);
  obs::Counter c;
  obs::ScopedTimer timer(&c, nullptr, &clock);
  clock.AdvanceNanos(250);
  EXPECT_EQ(250u, timer.StopNanos());
  clock.AdvanceNanos(9999);
  EXPECT_EQ(250u, timer.StopNanos());  // same reading, no re-publish
  EXPECT_EQ(250u, c.value());
}

TEST(ScopedTimer, DestructorPublishesWhenNotStopped) {
  base::ManualClock clock;
  obs::Counter c;
  {
    obs::ScopedTimer timer(&c, nullptr, &clock);
    clock.AdvanceNanos(77);
  }
  EXPECT_EQ(77u, c.value());
}

TEST(TraceRing, KeepsNewestEventsOldestFirst) {
  obs::TraceRing ring(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    ring.Emit(/*node=*/1, obs::TraceType::kTokenPass, /*lock=*/10, /*seq=*/i, /*bytes=*/0);
  }
  EXPECT_EQ(6u, ring.total_emitted());
  EXPECT_EQ(2u, ring.dropped());
  auto events = ring.Snapshot();
  ASSERT_EQ(4u, events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(i + 3, events[i].seq);  // events 3..6 survive, oldest first
    EXPECT_EQ(obs::TraceType::kTokenPass, events[i].type);
    EXPECT_EQ(10u, events[i].lock);
  }
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(0u, ring.total_emitted());
}

TEST(TraceRing, TypeNamesAreStable) {
  EXPECT_STREQ("commit_broadcast", obs::TraceTypeName(obs::TraceType::kCommitBroadcast));
  EXPECT_STREQ("interlock_stall", obs::TraceTypeName(obs::TraceType::kInterlockStall));
  EXPECT_STREQ("retransmit", obs::TraceTypeName(obs::TraceType::kRetransmit));
  EXPECT_STREQ("client_recovered", obs::TraceTypeName(obs::TraceType::kClientRecovered));
}

TEST(Export, TextDumpListsInstrumentsAndTrace) {
  obs::MetricsRegistry reg;
  reg.GetCounter("netsim.fabric.dropped")->Add(12);
  reg.GetHistogram("lbc.n1.commit_nanos")->Record(4096);
  obs::TraceRing ring(8);
  ring.Emit(2, obs::TraceType::kReclaimRound, /*lock=*/21, /*seq=*/5, /*bytes=*/0);
  std::string text = obs::DumpText(reg, &ring);
  EXPECT_NE(std::string::npos, text.find("netsim.fabric.dropped 12"));
  EXPECT_NE(std::string::npos, text.find("lbc.n1.commit_nanos count=1"));
  EXPECT_NE(std::string::npos, text.find("reclaim_round"));
  EXPECT_NE(std::string::npos, text.find("trace emitted=1"));
}

TEST(Export, JsonDumpHasAllSections) {
  obs::MetricsRegistry reg;
  reg.GetCounter("a.count")->Add(7);
  reg.GetGauge("a.level")->Set(3);
  reg.GetHistogram("a.nanos")->Record(100);
  obs::TraceRing ring(8);
  ring.Emit(1, obs::TraceType::kCommitBroadcast, 2, 3, 4);
  std::string json = obs::DumpJson(reg, &ring);
  // The counters section also carries the injected sync.lockorder.* gauges,
  // so match the entry rather than the whole section.
  EXPECT_NE(std::string::npos, json.find("\"a.count\":7"));
  EXPECT_NE(std::string::npos, json.find("\"sync.lockorder.acquires_checked\":"));
  EXPECT_NE(std::string::npos, json.find("\"gauges\":{\"a.level\":3}"));
  EXPECT_NE(std::string::npos, json.find("\"count\":1"));
  EXPECT_NE(std::string::npos, json.find("\"buckets\":[[64,1]]"));  // 100 in [64,128)
  EXPECT_NE(std::string::npos,
            json.find("{\"nanos\":"));  // at least one trace event object
  EXPECT_NE(std::string::npos, json.find("\"type\":\"commit_broadcast\""));
  // Balanced braces: cheap structural sanity without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Export, WriteJsonSnapshotCreatesFile) {
  std::string path = ::testing::TempDir() + "/obs_snapshot_test.json";
  obs::MetricsRegistry::Global()->GetCounter("test.snapshot_marker")->Increment();
  ASSERT_TRUE(obs::WriteJsonSnapshot(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string body((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(std::string::npos, body.find("\"test.snapshot_marker\":"));
  std::remove(path.c_str());
}

TEST(Export, SnapshotPathHonorsEnvOverride) {
  EXPECT_EQ("BENCH_obs.json", obs::SnapshotPath());
  ::setenv("LBC_OBS_OUT", "/tmp/custom_obs.json", 1);
  EXPECT_EQ("/tmp/custom_obs.json", obs::SnapshotPath());
  ::unsetenv("LBC_OBS_OUT");
  EXPECT_EQ("BENCH_obs.json", obs::SnapshotPath());
}

}  // namespace
