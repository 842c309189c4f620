// Micro-benchmarks (google-benchmark) for the primitives the cost model
// prices: set_range in its three patterns, on the OO7 T2-B sequence (back
// to back and after the traversal) and in a small transaction after a large
// one (all through the transaction handle, the path lbc::Transaction takes),
// the T2-B commit with its log payload and update message, commit encoding,
// coherency message encode/decode (alone and with the apply), per-record update application, the log CRC, and the CpyCmp page
// diff.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <memory>

#include "bench/harness.h"
#include "src/base/crc32.h"
#include "src/base/rng.h"
#include "src/baselines/cpycmp.h"
#include "src/lbc/wire_format.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"

namespace {

void BM_SetRangeOrdered(benchmark::State& state) {
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  (void)*r->MapRegion(1, n * 16 + 16);
  for (auto _ : state) {
    rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(r->SetRange(txn, 1, i * 16, 8));
    }
    benchmark::DoNotOptimize(r->EndTransaction(txn, rvm::CommitMode::kNoFlush));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SetRangeOrdered)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SetRangeRedundant(benchmark::State& state) {
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  (void)*r->MapRegion(1, 4096);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    rvm::Rvm::TxnHandle txn = r->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(r->SetRange(txn, 1, 64, 8));
    }
    benchmark::DoNotOptimize(r->EndTransaction(txn, rvm::CommitMode::kNoFlush));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SetRangeRedundant)->Arg(1000);

// An Rvm with the OO7 database at paper scale mapped as region 1, and the
// declaration sequence of T2-B over it: 43 740 eight-byte calls that revisit
// composite parts out of address order.
struct Oo7T2B {
  store::MemStore store;
  std::unique_ptr<rvm::Rvm> rvm;
  rvm::Region* region = nullptr;
  bench::RecordingSink recorder;

  // False (with the bench marked failed) if the database cannot be built.
  // With `disk_logging` the commit writes its log payload to the MemStore.
  bool Open(benchmark::State& state, bool disk_logging = false) {
    rvm::RvmOptions options;
    options.disk_logging = disk_logging;
    rvm = std::move(*rvm::Rvm::Open(&store, 1, options));
    const oo7::Config config;
    const uint64_t size = oo7::Database::RequiredSize(config);
    region = *rvm->MapRegion(1, size);
    if (!oo7::Database::Build(region->data(), size, config).ok()) {
      state.SkipWithError("oo7 database build failed");
      return false;
    }
    (void)oo7::RunT2(oo7::Database(region->data()), recorder, oo7::Variant::kB);
    return true;
  }

  // One T2-B transaction's recorded calls through set_range.
  rvm::Rvm::TxnHandle DeclareOnly() {
    rvm::Rvm::TxnHandle txn = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (const auto& [offset, len] : recorder.ranges()) {
      benchmark::DoNotOptimize(rvm->SetRange(txn, 1, offset, len));
    }
    return txn;
  }

  // One T2-B transaction: the recorded calls, then commit.
  void Declare() {
    benchmark::DoNotOptimize(rvm->EndTransaction(DeclareOnly(), rvm::CommitMode::kNoFlush));
  }

  // The traversal alone, as the application runs it between its declares:
  // it walks the 5.7 MB database, which pushes the write set's last index
  // out of the nearer caches.
  void Traverse() {
    bench::RecordingSink discard;
    (void)oo7::RunT2(oo7::Database(region->data()), discard, oo7::Variant::kB);
  }
};

// The recorded T2-B sequence replayed through set_range + commit, back to
// back: the index and the write set stay hot from one iteration to the next.
void BM_SetRangeOo7T2B(benchmark::State& state) {
  Oo7T2B t2b;
  if (!t2b.Open(state)) {
    return;
  }
  for (auto _ : state) {
    t2b.Declare();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(t2b.recorder.ranges().size()));
}
BENCHMARK(BM_SetRangeOo7T2B);

// The same sequence with the traversal re-run, untimed, between iterations,
// so each transaction starts with the caches the application leaves, as in
// perfbench's oo7-fanout. The back-to-back bench above keeps its index hot
// from one iteration to the next, which flatters designs that probe a large
// table from the first call.
void BM_SetRangeOo7T2BAfterTraversal(benchmark::State& state) {
  Oo7T2B t2b;
  if (!t2b.Open(state)) {
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    t2b.Traverse();
    state.ResumeTiming();
    t2b.Declare();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(t2b.recorder.ranges().size()));
}
BENCHMARK(BM_SetRangeOo7T2BAfterTraversal);

// The T2-B commit alone, with its log: after an untimed traversal and
// declaration, the EndTransaction that sorts the write set and writes the
// log payload in one pass, with a commit hook that builds the update
// message as lbc's broadcast does, and the kNoFlush append to a MemStore
// log (synced and emptied, untimed, between iterations).
void BM_CommitOo7T2BAfterTraversal(benchmark::State& state) {
  Oo7T2B t2b;
  if (!t2b.Open(state, /*disk_logging=*/true)) {
    return;
  }
  uint64_t ranges = 0;
  t2b.rvm->SetCommitHook([&](const rvm::TransactionRecord& rec) {
    ranges += rec.ranges.size();
    benchmark::DoNotOptimize(lbc::EncodeUpdateRecord(rec, /*compress_headers=*/true, 0));
  });
  for (auto _ : state) {
    state.PauseTiming();
    (void)t2b.rvm->FlushLog();
    (void)t2b.rvm->ResetLog();
    t2b.Traverse();
    const rvm::Rvm::TxnHandle txn = t2b.DeclareOnly();
    state.ResumeTiming();
    benchmark::DoNotOptimize(t2b.rvm->EndTransaction(txn, rvm::CommitMode::kNoFlush));
  }
  state.SetItemsProcessed(static_cast<int64_t>(ranges));
}
BENCHMARK(BM_CommitOo7T2BAfterTraversal)->Unit(benchmark::kMicrosecond);

// A 16-range transaction at random offsets in the database region, timed
// alone, after an untimed preceding transaction on the same Rvm: T2-B when
// `after_large`, else another such 16-range transaction. The write set sizes
// its index from the last transaction's, and a small one must not pay for
// the large one's table. The mean of 1 000 iterations keeps every cache-miss
// and preemption outlier, so the `median_ns` counter reports the median
// iteration, which is the figure to compare.
void SmallTransactionAfter(benchmark::State& state, bool after_large) {
  Oo7T2B t2b;
  if (!t2b.Open(state)) {
    return;
  }
  constexpr int kRanges = 16;
  base::Rng rng(16);
  const uint64_t slots = t2b.region->size() / 8;
  auto small = [&](const std::array<uint64_t, kRanges>& offsets) {
    rvm::Rvm::TxnHandle txn = t2b.rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
    for (uint64_t offset : offsets) {
      benchmark::DoNotOptimize(t2b.rvm->SetRange(txn, 1, offset, 8));
    }
    benchmark::DoNotOptimize(t2b.rvm->EndTransaction(txn, rvm::CommitMode::kNoFlush));
  };
  std::array<uint64_t, kRanges> offsets;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(state.max_iterations));
  for (auto _ : state) {
    for (uint64_t& offset : offsets) {
      offset = 8 * rng.Uniform(slots);
    }
    if (after_large) {
      t2b.Declare();
    } else {
      small(offsets);
    }
    const auto start = std::chrono::steady_clock::now();
    small(offsets);
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    state.SetIterationTime(seconds.back());
  }
  state.SetItemsProcessed(state.iterations() * kRanges);
  std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2, seconds.end());
  state.counters["median_ns"] = seconds[seconds.size() / 2] * 1e9;
}

void BM_SetRangeSmallAfterLarge(benchmark::State& state) { SmallTransactionAfter(state, true); }
BENCHMARK(BM_SetRangeSmallAfterLarge)->UseManualTime()->Iterations(1000);

void BM_SetRangeSmallAfterSmall(benchmark::State& state) { SmallTransactionAfter(state, false); }
BENCHMARK(BM_SetRangeSmallAfterSmall)->UseManualTime()->Iterations(1000);

// The sparse OO7 pattern of Table 3: `ranges` eight-byte ranges, one per
// 8 KB page of region 1, under one lock. The record holds its own bytes.
rvm::TransactionRecord SparseRecord(int ranges) {
  std::vector<uint8_t> bytes(static_cast<size_t>(ranges) * 8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i / 8);
  }
  rvm::TransactionRecord txn;
  txn.node = 1;
  txn.commit_seq = 1;
  txn.locks = {{1, 1}};
  for (int i = 0; i < ranges; ++i) {
    txn.ranges.push_back({1, static_cast<uint64_t>(i) * 8192,
                          base::ByteSpan(bytes.data() + static_cast<size_t>(i) * 8, 8)});
  }
  return txn.Own();
}

void BM_EncodeUpdate(benchmark::State& state) {
  const int ranges = static_cast<int>(state.range(0));
  const rvm::TransactionRecord txn = SparseRecord(ranges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbc::EncodeUpdateRecord(txn, true));
  }
  state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_EncodeUpdate)->Arg(10)->Arg(500);

// The receive path: the decoded record views the message Buffer.
void BM_DecodeUpdate(benchmark::State& state) {
  const int ranges = static_cast<int>(state.range(0));
  const base::Buffer payload = lbc::EncodeUpdateRecord(SparseRecord(ranges), true);
  for (auto _ : state) {
    rvm::TransactionRecord out;
    benchmark::DoNotOptimize(lbc::DecodeUpdate(payload, &out));
  }
  state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_DecodeUpdate)->Arg(500);

// A receiver's whole per-record work outside the interlock: decode, then
// apply every range to the cached image under one lock.
void BM_DecodeApplyUpdate(benchmark::State& state) {
  const int ranges = static_cast<int>(state.range(0));
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  (void)*r->MapRegion(1, static_cast<uint64_t>(ranges) * 8192);
  const base::Buffer payload = lbc::EncodeUpdateRecord(SparseRecord(ranges), true);
  for (auto _ : state) {
    rvm::TransactionRecord out;
    benchmark::DoNotOptimize(lbc::DecodeUpdate(payload, &out));
    benchmark::DoNotOptimize(r->ApplyExternalRanges(out.ranges));
  }
  state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_DecodeApplyUpdate)->Arg(500);

void BM_ApplyExternalRanges(benchmark::State& state) {
  // One received record of 500 eight-byte ranges, applied under one lock.
  store::MemStore store;
  rvm::RvmOptions options;
  options.disk_logging = false;
  auto r = std::move(*rvm::Rvm::Open(&store, 1, options));
  (void)*r->MapRegion(1, 500 * 8192);
  const rvm::TransactionRecord record = SparseRecord(500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r->ApplyExternalRanges(record.ranges));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ApplyExternalRanges);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> buf(128 * 1024);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(base::Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32c);

void BM_CpyCmpDiffPage(benchmark::State& state) {
  std::vector<uint8_t> buf(8192, 0);
  baselines::CpyCmpEngine engine(buf.data(), buf.size());
  const int modified = static_cast<int>(state.range(0));
  for (auto _ : state) {
    engine.NoteWrite(0, 8);
    for (int i = 0; i < modified; ++i) {
      buf[static_cast<size_t>(i) * 8192 / static_cast<size_t>(modified)] ^= 1;
    }
    benchmark::DoNotOptimize(engine.CollectDiffs(1));
  }
  state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_CpyCmpDiffPage)->Arg(8)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
