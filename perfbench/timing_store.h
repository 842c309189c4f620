// TimingStore: a store::DurableStore decorator owned by the benchmark. It
// counts operations, bytes and nanoseconds per file class (redo log, region
// database file, checksum sidecar) and operation, and, while the tracer is
// on, records each operation as a span, so a layer's span can subtract the
// store time beneath it.
//
// It sits on top of the stack (TimingStore -> ResourceStore -> MemStore), so
// its times include any latency the ResourceStore injects: what the caller
// of the store waits for. Reads of log files go to a second, uncharged store
// holding the same files (the MemStore itself): that models an OS page cache
// serving recently written log bytes, so a checkpoint that reads the logs
// back does not pay the simulated disk latency per frame.
#ifndef PERFBENCH_TIMING_STORE_H_
#define PERFBENCH_TIMING_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/store/durable_store.h"

namespace perfbench {

enum class FileClass { kLog = 0, kRegion = 1, kSidecar = 2, kOther = 3 };
enum class StoreOp { kRead = 0, kWrite = 1, kAppend = 2, kSync = 3, kTruncate = 4 };
inline constexpr int kFileClasses = 4;
inline constexpr int kStoreOps = 5;

FileClass ClassifyFile(const std::string& name);

// Point-in-time copy of the counters.
struct StoreCounts {
  struct Cell {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    uint64_t nanos = 0;
  };
  std::array<std::array<Cell, kStoreOps>, kFileClasses> cells{};

  const Cell& at(FileClass c, StoreOp op) const {
    return cells[static_cast<int>(c)][static_cast<int>(op)];
  }
  uint64_t BytesWritten() const;  // Write + Append, every class
  StoreCounts operator-(const StoreCounts& earlier) const;
};

class TimingStore : public store::DurableStore {
 public:
  // Does not own `base` or `log_reads`; they must outlive this store and its
  // open files. `log_reads` serves every Read of a log file.
  TimingStore(store::DurableStore* base, store::DurableStore* log_reads)
      : base_(base), log_reads_(log_reads) {}

  base::Result<std::unique_ptr<store::DurableFile>> Open(const std::string& name,
                                                         bool create) override;
  base::Status Remove(const std::string& name) override { return base_->Remove(name); }
  base::Result<bool> Exists(const std::string& name) override { return base_->Exists(name); }
  base::Result<std::vector<std::string>> List() override { return base_->List(); }
  base::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  base::Status SyncDir() override { return base_->SyncDir(); }

  StoreCounts counts() const;
  void Record(FileClass c, StoreOp op, uint64_t bytes, uint64_t nanos);

 private:
  struct AtomicCell {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> nanos{0};
  };
  store::DurableStore* base_;
  store::DurableStore* log_reads_;
  std::array<std::array<AtomicCell, kStoreOps>, kFileClasses> cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_STORE_H_
