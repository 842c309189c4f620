// Shared micro-harness for Figures 5 and 6: the per-update cost of
// set_range + commit as the number of updates per transaction grows, for
// three access patterns:
//   Unordered — random distinct addresses (an index probe per call and a
//               sort at commit),
//   Ordered   — ascending addresses (the §3.1 ordered-insertion fast path:
//               a plain append),
//   Redundant — re-registrations of a working set of 128 ranges.
#ifndef BENCH_UPDATE_SWEEP_H_
#define BENCH_UPDATE_SWEEP_H_

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"
#include "src/store/resource_store.h"

namespace bench {

enum class UpdatePattern { kUnordered, kOrdered, kRedundant };

// Runs one transaction with `n_updates` 8-byte set_range calls in the given
// pattern and returns the per-update cost in microseconds (set_range +
// commit, disk logging disabled, as in the paper's Figures 5-6 setup). The
// calls go through the transaction handle, as lbc::Transaction's do.
inline double MeasurePerUpdateUs(UpdatePattern pattern, uint64_t n_updates) {
  constexpr uint64_t kStride = 16;
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto rvm = std::move(*rvm::Rvm::Open(&store, 1, options));
  // For the redundant pattern all updates hit a small working set.
  uint64_t distinct = pattern == UpdatePattern::kRedundant
                          ? std::min<uint64_t>(128, n_updates)
                          : n_updates;
  rvm::Region* region = *rvm->MapRegion(1, distinct * kStride + kStride);

  std::vector<uint64_t> offsets(n_updates);
  if (pattern == UpdatePattern::kOrdered) {
    for (uint64_t i = 0; i < n_updates; ++i) {
      offsets[i] = i * kStride;
    }
  } else if (pattern == UpdatePattern::kUnordered) {
    for (uint64_t i = 0; i < n_updates; ++i) {
      offsets[i] = i * kStride;
    }
    base::Rng rng(7);
    for (uint64_t i = n_updates; i > 1; --i) {
      std::swap(offsets[i - 1], offsets[rng.Uniform(i)]);
    }
  } else {
    base::Rng rng(9);
    for (uint64_t i = 0; i < n_updates; ++i) {
      offsets[i] = rng.Uniform(distinct) * kStride;
    }
    // Prime the tree so every timed call is a re-registration.
    rvm::Rvm::TxnHandle prime = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (uint64_t d = 0; d < distinct; ++d) {
      LBC_CHECK_OK(rvm->SetRange(prime, 1, d * kStride, 8));
    }
    LBC_CHECK_OK(rvm->EndTransaction(prime, rvm::CommitMode::kNoFlush));
  }

  base::Stopwatch timer;
  rvm::Rvm::TxnHandle txn = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
  for (uint64_t i = 0; i < n_updates; ++i) {
    LBC_CHECK_OK(rvm->SetRange(txn, 1, offsets[i], 8));
    *reinterpret_cast<uint64_t*>(region->data() + offsets[i]) = i;
  }
  LBC_CHECK_OK(rvm->EndTransaction(txn, rvm::CommitMode::kNoFlush));
  return timer.ElapsedMicros() / static_cast<double>(n_updates);
}

inline void PrintUpdateSweep(const std::vector<uint64_t>& counts) {
  std::printf("%14s %14s %14s %14s\n", "updates/txn", "Unordered us", "Ordered us",
              "Redundant us");
  for (uint64_t n : counts) {
    double unordered = MeasurePerUpdateUs(UpdatePattern::kUnordered, n);
    double ordered = MeasurePerUpdateUs(UpdatePattern::kOrdered, n);
    double redundant = MeasurePerUpdateUs(UpdatePattern::kRedundant, n);
    std::printf("%14llu %14.3f %14.3f %14.3f\n", static_cast<unsigned long long>(n),
                unordered, ordered, redundant);
  }
}

// --- group-commit throughput -------------------------------------------------

struct CommitThroughputResult {
  double txn_per_sec = 0;
  uint64_t batches = 0;
  uint64_t fsyncs_saved = 0;
};

// `writers` threads each commit `txns_per_writer` kFlush transactions at
// disjoint offsets, over a store whose log-file ops carry a simulated disk
// latency (so sync cost dominates, as on real media). With one writer every
// commit is its own batch; with many, the group-commit leader amortizes the
// write+sync across the cohort that formed while the previous batch was on
// the platter.
inline CommitThroughputResult MeasureCommitThroughput(int writers,
                                                      int txns_per_writer) {
  constexpr uint64_t kSliceBytes = 4096;
  constexpr uint64_t kSimulatedDiskNanos = 100'000;  // ~100us per log op
  store::MemStore mem;
  store::ResourceStore store(&mem);
  store.InjectLatency(rvm::LogFileName(1), kSimulatedDiskNanos);
  auto rvm = std::move(*rvm::Rvm::Open(&store, 1, rvm::RvmOptions{}));
  rvm::Region* region =
      *rvm->MapRegion(1, static_cast<uint64_t>(writers) * kSliceBytes);

  base::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      uint64_t base_off = static_cast<uint64_t>(w) * kSliceBytes;
      for (int i = 0; i < txns_per_writer; ++i) {
        rvm::Rvm::TxnHandle txn = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
        uint64_t off = base_off + static_cast<uint64_t>(i % 64) * 64;
        LBC_CHECK_OK(rvm->SetRange(txn, 1, off, 8));
        *reinterpret_cast<uint64_t*>(region->data() + off) =
            static_cast<uint64_t>(w) * 100000 + static_cast<uint64_t>(i);
        LBC_CHECK_OK(rvm->EndTransaction(txn, rvm::CommitMode::kFlush));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  double elapsed_s = timer.ElapsedMicros() / 1e6;

  const rvm::RvmStats stats = rvm->stats();
  CommitThroughputResult result;
  result.txn_per_sec =
      static_cast<double>(writers) * txns_per_writer / elapsed_s;
  result.batches = stats.commit_batches;
  result.fsyncs_saved = stats.fsyncs_saved;
  return result;
}

// Prints single-writer vs 16-writer commit throughput plus the speedup line
// check.sh --bench-smoke parses (`commit_smoke: ... speedup=...`).
inline void PrintCommitThroughput() {
  constexpr int kTxnsPerWriter = 200;
  constexpr int kWriters = 16;
  std::printf("%8s %14s %10s %14s\n", "writers", "txn/s", "batches",
              "fsyncs_saved");
  CommitThroughputResult one = MeasureCommitThroughput(1, kTxnsPerWriter);
  std::printf("%8d %14.0f %10llu %14llu\n", 1, one.txn_per_sec,
              static_cast<unsigned long long>(one.batches),
              static_cast<unsigned long long>(one.fsyncs_saved));
  CommitThroughputResult many = MeasureCommitThroughput(kWriters, kTxnsPerWriter);
  std::printf("%8d %14.0f %10llu %14llu\n", kWriters, many.txn_per_sec,
              static_cast<unsigned long long>(many.batches),
              static_cast<unsigned long long>(many.fsyncs_saved));
  double speedup = one.txn_per_sec > 0 ? many.txn_per_sec / one.txn_per_sec : 0;
  std::printf("commit_smoke: writers=%d txn_s=%.0f fsyncs_saved=%llu "
              "speedup=%.2f\n",
              kWriters, many.txn_per_sec,
              static_cast<unsigned long long>(many.fsyncs_saved), speedup);
}

}  // namespace bench

#endif  // BENCH_UPDATE_SWEEP_H_
