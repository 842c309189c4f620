// Randomized whole-system property test: several clients run a random
// transactional workload (multiple regions, multiple locks, commits and
// aborts, occasional read-only transactions) against one cluster. The
// properties checked per seed:
//
//   1. CONVERGENCE — after the workload quiesces, every client's cached
//      image of every region is byte-identical;
//   2. SERIALIZABILITY WITNESS — the final image equals a sequential replay
//      of the committed transactions in lock-sequence order (which is what
//      crash recovery does: merge + replay);
//   3. DURABILITY — crash everything, recover from the merged logs, and the
//      database files hold exactly that same image.
//
// Together these pin the paper's core claim: the redo log, the coherency
// broadcast, and the merge procedure are three views of one history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/base/rng.h"
#include "src/base/sync.h"
#include "src/lbc/client.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/recovery.h"
#include "src/store/mem_store.h"

namespace {

constexpr int kClients = 3;
constexpr int kRegions = 2;
constexpr uint64_t kRegionSize = 16384;
constexpr int kLocksPerRegion = 2;
constexpr int kTxnsPerClient = 30;

rvm::LockId LockFor(int region, int k) { return region * 10 + k + 1; }

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, ConvergesAndRecovers) {
  store::MemStore store;
  auto cluster = std::make_unique<lbc::Cluster>(&store);
  for (int region = 1; region <= kRegions; ++region) {
    for (int k = 0; k < kLocksPerRegion; ++k) {
      cluster->DefineLock(LockFor(region, k), region,
                          static_cast<rvm::NodeId>(1 + (region + k) % kClients));
    }
  }
  std::vector<std::unique_ptr<lbc::Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::move(*lbc::Client::Create(cluster.get(), 1 + i, {})));
    for (int region = 1; region <= kRegions; ++region) {
      ASSERT_TRUE(clients.back()->MapRegion(region, kRegionSize).ok());
    }
  }

  // Drive the random workload from one thread per client.
  std::vector<std::thread> threads;
  std::vector<uint64_t> committed_per_lock(100, 0);
  base::Mutex seq_mu("test.random_workload.seq");
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      base::Rng rng(GetParam() * 1000 + static_cast<uint64_t>(c));
      lbc::Client* client = clients[c].get();
      for (int t = 0; t < kTxnsPerClient; ++t) {
        int region = 1 + static_cast<int>(rng.Uniform(kRegions));
        int lock_k = static_cast<int>(rng.Uniform(kLocksPerRegion));
        rvm::LockId lock = LockFor(region, lock_k);

        lbc::Transaction txn = client->Begin();
        ASSERT_TRUE(txn.Acquire(lock).ok());
        bool read_only = rng.Chance(1, 5);
        if (!read_only) {
          // Each lock guards its own half of the region, so strict 2PL
          // really does serialize all conflicting writes.
          uint64_t base_off = static_cast<uint64_t>(lock_k) * (kRegionSize / 2);
          int writes = 1 + static_cast<int>(rng.Uniform(6));
          for (int w = 0; w < writes; ++w) {
            uint64_t off = base_off + rng.Uniform(kRegionSize / 2 - 16);
            uint64_t len = 1 + rng.Uniform(12);
            ASSERT_TRUE(txn.SetRange(region, off, len).ok());
            for (uint64_t b = 0; b < len; ++b) {
              clients[c]->GetRegion(region)->data()[off + b] =
                  static_cast<uint8_t>(rng.Next());
            }
          }
        }
        if (!read_only && rng.Chance(1, 6)) {
          ASSERT_TRUE(txn.Abort().ok());
        } else {
          ASSERT_TRUE(txn.Commit(rvm::CommitMode::kFlush).ok());
          if (!read_only) {
            base::MutexLock g(seq_mu);
            ++committed_per_lock[lock];
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  // Quiesce: every client must reach every lock's final sequence number.
  for (int region = 1; region <= kRegions; ++region) {
    for (int k = 0; k < kLocksPerRegion; ++k) {
      rvm::LockId lock = LockFor(region, k);
      for (auto& client : clients) {
        ASSERT_TRUE(client->WaitForAppliedSeq(lock, committed_per_lock[lock], 20000))
            << "lock " << lock << " client " << client->node();
      }
    }
  }

  // Property 1: convergence.
  for (int region = 1; region <= kRegions; ++region) {
    const uint8_t* reference = clients[0]->GetRegion(region)->data();
    for (int c = 1; c < kClients; ++c) {
      ASSERT_EQ(0, std::memcmp(reference, clients[c]->GetRegion(region)->data(),
                               kRegionSize))
          << "client " << c << " diverged on region " << region;
    }
  }

  // Property 2: the merged-log replay order reproduces the same images.
  std::vector<std::string> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.push_back(rvm::LogFileName(1 + c));
  }
  auto merged = rvm::MergeLogs(&store, logs);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  std::vector<std::vector<uint8_t>> reference;  // per region
  for (int region = 1; region <= kRegions; ++region) {
    std::vector<uint8_t>& replayed = reference.emplace_back(kRegionSize, 0);
    for (const auto& txn : *merged) {
      for (const auto& r : txn.ranges) {
        if (r.region == static_cast<rvm::RegionId>(region)) {
          std::memcpy(replayed.data() + r.offset, r.data.data(), r.data.size());
        }
      }
    }
    EXPECT_EQ(0,
              std::memcmp(replayed.data(), clients[0]->GetRegion(region)->data(),
                          kRegionSize))
        << "sequential replay diverged on region " << region;
  }

  // Property 3: durability through a crash.
  std::vector<std::vector<uint8_t>> final_images;
  for (int region = 1; region <= kRegions; ++region) {
    const uint8_t* d = clients[0]->GetRegion(region)->data();
    final_images.emplace_back(d, d + kRegionSize);
  }
  clients.clear();
  store.Crash();
  ASSERT_TRUE(rvm::ReplayLogsIntoDatabase(&store, logs).ok());
  for (int region = 1; region <= kRegions; ++region) {
    auto file = std::move(*store.Open(rvm::RegionFileName(region), false));
    std::vector<uint8_t> recovered(kRegionSize, 0);
    auto file_size = file->Size();
    ASSERT_TRUE(file_size.ok());
    ASSERT_TRUE(file->ReadExact(0, recovered.data(),
                                std::min<uint64_t>(*file_size, kRegionSize))
                    .ok());
    EXPECT_EQ(0, std::memcmp(recovered.data(), final_images[region - 1].data(),
                             kRegionSize))
        << "recovered database diverged on region " << region;
    EXPECT_EQ(reference[region - 1], recovered)
        << "recovered database diverged from the merged-log replay on region " << region;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest, ::testing::Range<uint64_t>(0, 8));

}  // namespace
