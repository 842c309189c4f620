// RVM under concurrency: multiple application threads running transactions
// against one runtime (RVM supports multi-threaded clients; updates may or
// may not be serializable — §3's "minimalist philosophy"), and external
// updates racing local commits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/rvm/log_format.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/rvm/scrub.h"
#include "src/store/mem_store.h"

namespace {

constexpr rvm::RegionId kRegion = 1;

TEST(RvmConcurrency, ParallelDisjointTransactions) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64 * 1024);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;

  auto worker = [&](int t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kRestore);
      uint64_t offset = static_cast<uint64_t>(t) * 16384 + static_cast<uint64_t>(i) * 64;
      ASSERT_TRUE(r->SetRange(txn, kRegion, offset, 8).ok());
      uint64_t value = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
      std::memcpy(region->data() + offset, &value, 8);
      ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(r->FlushLog().ok());
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kTxnsPerThread),
            r->stats().transactions_committed);

  // Recovery reproduces every thread's committed values.
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 64 * 1024);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      uint64_t offset = static_cast<uint64_t>(t) * 16384 + static_cast<uint64_t>(i) * 64;
      uint64_t value;
      std::memcpy(&value, region2->data() + offset, 8);
      EXPECT_EQ(static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i), value);
    }
  }
}

TEST(RvmConcurrency, InterleavedBeginsAndAborts) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  std::memset(region->data(), 0x11, 4096);

  // Open two transactions over disjoint ranges; abort one, commit the other.
  rvm::TxnId keep = r->BeginTransaction(rvm::RestoreMode::kRestore);
  rvm::TxnId drop = r->BeginTransaction(rvm::RestoreMode::kRestore);
  ASSERT_TRUE(r->SetRange(keep, kRegion, 0, 8).ok());
  ASSERT_TRUE(r->SetRange(drop, kRegion, 100, 8).ok());
  std::memset(region->data(), 0x22, 8);
  std::memset(region->data() + 100, 0x33, 8);
  ASSERT_TRUE(r->AbortTransaction(drop).ok());
  ASSERT_TRUE(r->EndTransaction(keep, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(0x22, region->data()[0]);
  EXPECT_EQ(0x11, region->data()[100]);
}

TEST(RvmConcurrency, ExternalUpdatesRaceLocalCommits) {
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  rvm::Region* region = *r->MapRegion(kRegion, 8192);

  std::atomic<bool> stop{false};
  std::thread applier([&] {
    const std::vector<uint8_t> nines(8, 9);
    const rvm::TransactionRecord record =
        rvm::MakeTransaction(0, 0, {}, std::vector<rvm::RangeImage>{{kRegion, 4096, nines}});
    while (!stop) {
      r->ApplyExternalRanges(record).ok();
    }
  });
  for (int i = 0; i < 200; ++i) {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
    std::memset(region->data(), i & 0xFF, 8);
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
  }
  // Make sure the applier actually interleaved at least once (on a single
  // core it may not have been scheduled during the burst above).
  for (int i = 0; i < 2000 && r->stats().external_updates_applied == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  applier.join();
  EXPECT_EQ(9, region->data()[4096]);
  EXPECT_GT(r->stats().external_updates_applied, 0u);
}

TEST(RvmConcurrency, HookRunsWithoutRvmLockHeld) {
  // The commit hook may call back into the runtime (the coherency layer
  // reads regions and stats); re-entrancy must not deadlock.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  const std::vector<uint8_t> answer = {42};
  r->SetCommitHook([&](const rvm::TransactionRecord&) {
    EXPECT_NE(nullptr, r->GetRegion(kRegion));
    EXPECT_TRUE(r->ApplyExternalRanges(rvm::MakeTransaction(
                       0, 0, {}, std::vector<rvm::RangeImage>{{kRegion, 2048, answer}}))
                    .ok());
  });
  rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
  ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 1).ok());
  region->data()[0] = 1;
  ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  EXPECT_EQ(42, region->data()[2048]);
}

// SetRange through a handle takes no lock after a transaction's first call in
// a region. Four threads each declare into two shared regions through their
// own handles, out of address order, and commit or abort; meanwhile one
// thread maps, uses and unmaps a third region and tries to unmap the two
// shared ones, which a transaction held open for the whole run pins, and
// another applies external updates to all three. Run under TSan by
// scripts/check.sh --tsan-only.
TEST(RvmConcurrency, LockFreeDeclaresRaceMappingAndExternalUpdates) {
  constexpr rvm::RegionId kShared[] = {1, 2};
  constexpr rvm::RegionId kTransient = 3;
  constexpr uint64_t kSlice = 4096;
  constexpr uint64_t kRegionSize = 5 * kSlice;  // 4 worker slices + 1 external
  constexpr int kWorkers = 4;
  constexpr int kTxnsPerWorker = 40;
  constexpr uint64_t kRangesPerTxn = 32;
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  std::vector<rvm::Region*> shared;
  for (rvm::RegionId id : kShared) {
    shared.push_back(*r->MapRegion(id, kRegionSize));
  }
  // Pins both shared regions until the end (its range is in the external
  // slice, which it never writes).
  rvm::Rvm::TxnHandle pin = r->BeginTransaction(rvm::RestoreMode::kRestore);
  for (rvm::RegionId id : kShared) {
    ASSERT_TRUE(r->SetRange(pin, id, 4 * kSlice, 8).ok());
  }

  std::atomic<int> workers_left{kWorkers};
  std::atomic<int> refused{0};
  auto worker = [&](int t) {
    const uint64_t base_offset = static_cast<uint64_t>(t) * kSlice;
    for (int i = 0; i < kTxnsPerWorker; ++i) {
      rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kRestore);
      const uint64_t value = static_cast<uint64_t>(t) << 32 | static_cast<uint64_t>(i);
      for (size_t k = 0; k < shared.size(); ++k) {
        for (uint64_t j = kRangesPerTxn; j-- > 0;) {  // descending: off the fast paths
          const uint64_t offset = base_offset + j * 64;
          ASSERT_TRUE(r->SetRange(txn, kShared[k], offset, 8).ok());
          ASSERT_TRUE(r->SetRange(txn, kShared[k], offset, 8).ok());  // a re-registration
          std::memcpy(shared[k]->data() + offset, &value, 8);
        }
      }
      if (i % 2 == 0) {
        ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
      } else {
        ASSERT_TRUE(r->AbortTransaction(txn).ok());
      }
    }
    workers_left.fetch_sub(1);
  };
  std::thread mapper([&] {
    while (workers_left.load() > 0) {
      rvm::Region* transient = *r->MapRegion(kTransient, kSlice);
      rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
      EXPECT_TRUE(r->SetRange(txn, kTransient, 0, 8).ok());
      transient->data()[0] = 1;
      EXPECT_EQ(base::StatusCode::kFailedPrecondition, r->UnmapRegion(kTransient).code());
      EXPECT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kNoFlush).ok());
      EXPECT_TRUE(r->UnmapRegion(kTransient).ok());
      for (rvm::RegionId id : kShared) {
        if (r->UnmapRegion(id).code() == base::StatusCode::kFailedPrecondition) {
          refused.fetch_add(1);
        }
      }
    }
  });
  std::thread applier([&] {
    const std::vector<uint8_t> nines(8, 9);
    const rvm::TransactionRecord record =
        rvm::MakeTransaction(0, 0, {},
                             std::vector<rvm::RangeImage>{{kShared[0], 4 * kSlice + 64, nines},
                                                          {kShared[1], 4 * kSlice + 64, nines},
                                                          {kTransient, 64, nines}});
    while (workers_left.load() > 0) {
      const base::Status st = r->ApplyExternalRanges(record);
      EXPECT_TRUE(st.ok() || st.code() == base::StatusCode::kNotFound) << st.ToString();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back(worker, t);
  }
  for (auto& th : threads) {
    th.join();
  }
  mapper.join();
  applier.join();

  // Every unmap of a pinned region was refused, and every worker's slice
  // holds its last committed value: the aborts after it restored it.
  EXPECT_GT(refused.load(), 0);
  for (size_t k = 0; k < shared.size(); ++k) {
    EXPECT_EQ(shared[k], r->GetRegion(kShared[k]));
    EXPECT_EQ(9, shared[k]->data()[4 * kSlice + 64]);
    for (int t = 0; t < kWorkers; ++t) {
      const uint64_t want = static_cast<uint64_t>(t) << 32 | (kTxnsPerWorker - 2);
      for (uint64_t j = 0; j < kRangesPerTxn; ++j) {
        uint64_t got = 0;
        std::memcpy(&got, shared[k]->data() + static_cast<uint64_t>(t) * kSlice + j * 64, 8);
        ASSERT_EQ(want, got) << "region " << kShared[k] << " worker " << t << " range " << j;
      }
    }
  }
  ASSERT_TRUE(r->AbortTransaction(pin).ok());
  for (rvm::RegionId id : kShared) {
    EXPECT_TRUE(r->UnmapRegion(id).ok());
  }
  // The workers' aborts and the pin's.
  EXPECT_EQ(static_cast<uint64_t>(kWorkers * kTxnsPerWorker / 2 + 1),
            r->stats().transactions_aborted);
}

TEST(GroupCommit, HeldPipelineCommitsCohortAsOneBatchWithOneSync) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);
  constexpr int kCommitters = 4;

  // Park the pipeline so the four committers form one deterministic batch.
  r->HoldCommitPipeline();
  std::vector<std::thread> committers;
  std::vector<base::Status> results(kCommitters);
  for (int t = 0; t < kCommitters; ++t) {
    committers.emplace_back([&, t] {
      rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
      base::Status st = r->SetRange(txn, kRegion, static_cast<uint64_t>(t) * 64, 8);
      if (st.ok()) {
        std::memset(region->data() + t * 64, 0x50 + t, 8);
        st = r->EndTransaction(txn, rvm::CommitMode::kFlush);
      }
      results[t] = st;
    });
  }
  while (r->PendingCommitCount() < kCommitters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(0u, r->stats().commit_batches);
  ASSERT_TRUE(r->ReleaseCommitPipeline().ok());
  for (auto& th : committers) {
    th.join();
  }
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_TRUE(results[t].ok()) << "committer " << t << ": " << results[t].ToString();
  }

  rvm::RvmStats s = r->stats();
  EXPECT_EQ(1u, s.commit_batches);
  EXPECT_EQ(static_cast<uint64_t>(kCommitters), s.commit_batch_txns);
  // Four kFlush commits rode one leader sync.
  EXPECT_EQ(static_cast<uint64_t>(kCommitters - 1), s.fsyncs_saved);

  // That one sync made all four durable: crash and recover.
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 4096);
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_EQ(0x50 + t, region2->data()[t * 64]) << "committer " << t;
  }
}

TEST(GroupCommit, HookSeesCommittedBytesNotLaterImageWrites) {
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 4096);

  // Both transactions rewrite the SAME 8 bytes; by the time the batch
  // leader finishes, the live image holds only the second one's value. The
  // hook's ranges must show each transaction its OWN bytes (they point
  // into rec.bytes, encoded while the image still held them).
  std::atomic<int> empty_records{0};
  std::atomic<int> byte_mismatches{0};
  r->SetCommitHook([&](const rvm::TransactionRecord& rec) {
    if (rec.bytes.empty()) {
      ++empty_records;
    }
    const uint8_t expected = static_cast<uint8_t>(0x60 + rec.commit_seq);
    for (const auto& range : rec.ranges) {
      for (uint8_t b : range.data) {
        if (b != expected) {
          ++byte_mismatches;
        }
      }
    }
  });

  r->HoldCommitPipeline();
  // Committer 1 encodes 0x61 into its record, then parks.
  std::thread first([&] {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
    std::memset(region->data(), 0x61, 8);
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  });
  while (r->PendingCommitCount() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Committer 2 overwrites the image with 0x62 and parks behind it.
  std::thread second([&] {
    rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    ASSERT_TRUE(r->SetRange(txn, kRegion, 0, 8).ok());
    std::memset(region->data(), 0x62, 8);
    ASSERT_TRUE(r->EndTransaction(txn, rvm::CommitMode::kFlush).ok());
  });
  while (r->PendingCommitCount() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(r->ReleaseCommitPipeline().ok());
  first.join();
  second.join();

  EXPECT_EQ(0, empty_records.load());
  EXPECT_EQ(0, byte_mismatches.load());
  EXPECT_EQ(0x62, region->data()[0]);
}

TEST(GroupCommit, CommittersRaceJanitorAndScrubber) {
  // TSan chaos phase: committers batching through the pipeline while a
  // janitor flushes and trims (swapping the log file under log_mu_) and a
  // scrubber walks the same store detect-only. Pins the two-mutex design:
  // leaders write without mu_, maintenance takes mu_ then log_mu_.
  store::MemStore store;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region = *r->MapRegion(kRegion, 64 * 1024);
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 60;

  std::atomic<bool> stop{false};
  base::Status janitor_status = base::OkStatus();
  std::thread janitor([&] {
    while (!stop) {
      base::Status st = r->FlushLog();
      if (st.ok()) {
        // Empty baselines cover nothing: the trim rewrites the log in place
        // (full crash-safe swap) without dropping any record.
        st = r->TrimLogWithBaselines({});
      }
      if (!st.ok()) {
        janitor_status = st;
        return;
      }
      (void)r->log_bytes();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int> scrub_failures{0};
  std::thread scrub_thread([&] {
    rvm::Scrubber scrubber(&store);
    while (!stop) {
      if (!scrubber.ScrubRegion(kRegion).ok()) {
        ++scrub_failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> committers;
  std::vector<base::Status> results(kThreads, base::OkStatus());
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread && results[t].ok(); ++i) {
        rvm::TxnId txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
        uint64_t offset = static_cast<uint64_t>(t) * 8192 + static_cast<uint64_t>(i) * 128;
        base::Status st = r->SetRange(txn, kRegion, offset, 8);
        if (st.ok()) {
          uint64_t value = static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i);
          std::memcpy(region->data() + offset, &value, 8);
          st = r->EndTransaction(
              txn, (i % 2 == 0) ? rvm::CommitMode::kFlush : rvm::CommitMode::kNoFlush);
        }
        results[t] = st;
      }
    });
  }
  for (auto& th : committers) {
    th.join();
  }
  stop = true;
  janitor.join();
  scrub_thread.join();

  ASSERT_TRUE(janitor_status.ok()) << janitor_status.ToString();
  EXPECT_EQ(0, scrub_failures.load());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].ok()) << "committer " << t << ": " << results[t].ToString();
  }
  rvm::RvmStats s = r->stats();
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kTxnsPerThread), s.transactions_committed);
  EXPECT_GE(s.commit_batches, 1u);
  EXPECT_EQ(s.commit_batch_txns, s.transactions_committed);

  // Nothing the janitor or scrubber did lost a committed record.
  ASSERT_TRUE(r->FlushLog().ok());
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, {rvm::LogFileName(1)}).ok());
  auto r2 = std::move(*rvm::Rvm::Open(&store, 2, rvm::RvmOptions{}));
  rvm::Region* region2 = *r2->MapRegion(kRegion, 64 * 1024);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      uint64_t offset = static_cast<uint64_t>(t) * 8192 + static_cast<uint64_t>(i) * 128;
      uint64_t value;
      std::memcpy(&value, region2->data() + offset, 8);
      EXPECT_EQ(static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i), value);
    }
  }
}

}  // namespace
