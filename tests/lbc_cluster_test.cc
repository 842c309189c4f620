// Cluster directory unit tests: lock table, mapping registry, baselines,
// applied reports, and the server-side record cache.
#include "src/lbc/cluster.h"

#include <gtest/gtest.h>

#include "src/store/mem_store.h"

namespace {

TEST(Cluster, LockDirectory) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  EXPECT_FALSE(cluster.GetLock(1).ok());
  cluster.DefineLock(1, /*region=*/7, /*manager=*/3);
  auto spec = cluster.GetLock(1);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(7u, spec->region);
  EXPECT_EQ(3u, spec->manager);
  // Redefinition may move the manager (static configuration update) but
  // never the region: clients cache a lock's region when they first see it.
  cluster.DefineLock(1, 7, 4);
  EXPECT_EQ(7u, cluster.GetLock(1)->region);
  EXPECT_EQ(4u, cluster.GetLock(1)->manager);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(cluster.DefineLock(1, 8, 4), "CHECK failed");
  EXPECT_EQ(7u, cluster.GetLock(1)->region);
}

TEST(Cluster, LocksForRegionAndAllLocks) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(1, 7, 1);
  cluster.DefineLock(2, 7, 1);
  cluster.DefineLock(3, 9, 1);
  EXPECT_EQ(2u, cluster.LocksForRegion(7).size());
  EXPECT_EQ(1u, cluster.LocksForRegion(9).size());
  EXPECT_TRUE(cluster.LocksForRegion(99).empty());
  EXPECT_EQ(3u, cluster.AllLocks().size());
}

TEST(Cluster, MappingRegistry) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.RegisterMapping(1, 10);
  cluster.RegisterMapping(1, 11);
  cluster.RegisterMapping(1, 10);  // duplicate registration is idempotent
  auto peers = cluster.PeersOf(1, /*exclude=*/10);
  ASSERT_EQ(1u, peers.size());
  EXPECT_EQ(11u, peers[0]);
  cluster.UnregisterMapping(1, 11);
  EXPECT_TRUE(cluster.PeersOf(1, 10).empty());
  cluster.UnregisterMapping(1, 99);  // unknown node: no-op
  cluster.UnregisterMapping(5, 10);  // unknown region: no-op
}

TEST(Cluster, BaselinesMonotonic) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  EXPECT_EQ(0u, cluster.BaselineSeq(1));
  cluster.RecordBaseline(1, 5);
  cluster.RecordBaseline(1, 3);  // regressions ignored
  EXPECT_EQ(5u, cluster.BaselineSeq(1));
}

TEST(Cluster, MinAppliedAccountsForMappersOnly) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(1, 7, 1);
  // Nobody maps region 7: nothing retained is needed by anyone.
  EXPECT_EQ(UINT64_MAX, cluster.MinApplied(1, /*exclude=*/0));
  cluster.RegisterMapping(7, 10);
  cluster.RegisterMapping(7, 11);
  cluster.NoteApplied(1, 10, 4);
  // Node 11 never reported: counts at the baseline (0).
  EXPECT_EQ(0u, cluster.MinApplied(1, 0));
  cluster.NoteApplied(1, 11, 2);
  EXPECT_EQ(2u, cluster.MinApplied(1, 0));
  // Excluding the laggard raises the minimum.
  EXPECT_EQ(4u, cluster.MinApplied(1, 11));
  // A trim baseline lifts unreported mappers.
  cluster.RegisterMapping(7, 12);
  cluster.RecordBaseline(1, 3);
  EXPECT_EQ(3u, cluster.MinApplied(1, 10));  // min(11@max(2,3)=3, 12@3)
}

TEST(Cluster, RecordCacheFetchAndTrim) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  cluster.DefineLock(1, 7, 1);
  cluster.RegisterMapping(7, 10);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    rvm::TransactionRecord rec;
    rec.node = 2;
    rec.commit_seq = seq;
    rec.locks = {{1, seq}};
    cluster.CacheRecords(1, rec);
  }
  EXPECT_EQ(5u, cluster.CachedRecordCount(1));
  auto since3 = cluster.FetchRecordsSince(1, 3);
  ASSERT_EQ(2u, since3.size());
  EXPECT_EQ(4u, since3[0].locks[0].sequence);
  EXPECT_EQ(5u, since3[1].locks[0].sequence);
  EXPECT_TRUE(cluster.FetchRecordsSince(1, 5).empty());
  EXPECT_TRUE(cluster.FetchRecordsSince(99, 0).empty());

  cluster.NoteApplied(1, 10, 3);
  cluster.TrimRecordCache(1);
  EXPECT_EQ(2u, cluster.CachedRecordCount(1));
}

TEST(Cluster, RecoverAndTrimOnEmptyStoreIsOk) {
  store::MemStore store;
  lbc::Cluster cluster(&store);
  EXPECT_TRUE(cluster.RecoverAndTrim({1, 2, 3}).ok());
  EXPECT_TRUE(cluster.ReplayAndRecordBaselines({}).ok());
}

}  // namespace
