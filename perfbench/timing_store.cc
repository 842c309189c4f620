#include "perfbench/timing_store.h"

#include "perfbench/tracer.h"

namespace perfbench {

namespace {

// Span names per [file class][op], so a span's name says what it timed.
constexpr const char* kSpanNames[kFileClasses][kStoreOps] = {
    {"store.log.read", "store.log.write", "store.log.append", "store.log.sync",
     "store.log.truncate"},
    {"store.region.read", "store.region.write", "store.region.append", "store.region.sync",
     "store.region.truncate"},
    {"store.sidecar.read", "store.sidecar.write", "store.sidecar.append",
     "store.sidecar.sync", "store.sidecar.truncate"},
    {"store.other.read", "store.other.write", "store.other.append", "store.other.sync",
     "store.other.truncate"},
};

class TimingFile : public store::DurableFile {
 public:
  TimingFile(TimingStore* owner, FileClass cls, std::unique_ptr<store::DurableFile> base,
             std::unique_ptr<store::DurableFile> reads)
      : owner_(owner), cls_(cls), base_(std::move(base)), reads_(std::move(reads)) {}

  base::Result<size_t> Read(uint64_t offset, void* buf, size_t len) override {
    Timed t(this, StoreOp::kRead, len);
    return (reads_ ? reads_ : base_)->Read(offset, buf, len);
  }
  base::Status Write(uint64_t offset, base::ByteSpan data) override {
    Timed t(this, StoreOp::kWrite, data.size());
    return base_->Write(offset, data);
  }
  base::Result<uint64_t> Append(base::ByteSpan data) override {
    Timed t(this, StoreOp::kAppend, data.size());
    return base_->Append(data);
  }
  base::Status Sync() override {
    Timed t(this, StoreOp::kSync, 0);
    return base_->Sync();
  }
  base::Result<uint64_t> Size() const override { return base_->Size(); }
  base::Status Truncate(uint64_t size) override {
    Timed t(this, StoreOp::kTruncate, 0);
    return base_->Truncate(size);
  }

 private:
  // Times one operation into the owner's counters and, when tracing, a span.
  class Timed {
   public:
    Timed(TimingFile* file, StoreOp op, uint64_t bytes)
        : file_(file), op_(op), bytes_(bytes),
          span_(kSpanNames[static_cast<int>(file->cls_)][static_cast<int>(op)]),
          start_(NowNs()) {}
    ~Timed() { file_->owner_->Record(file_->cls_, op_, bytes_, NowNs() - start_); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TimingFile* file_;
    StoreOp op_;
    uint64_t bytes_;
    ScopedSpan span_;
    uint64_t start_;
  };

  TimingStore* owner_;
  FileClass cls_;
  std::unique_ptr<store::DurableFile> base_;
  std::unique_ptr<store::DurableFile> reads_;  // set for log files only
};

}  // namespace

FileClass ClassifyFile(const std::string& name) {
  if (name.starts_with("log_")) {
    return FileClass::kLog;
  }
  if (name.ends_with(".dbsum")) {
    return FileClass::kSidecar;
  }
  if (name.starts_with("region_")) {
    return FileClass::kRegion;
  }
  return FileClass::kOther;
}

uint64_t StoreCounts::BytesWritten() const {
  uint64_t total = 0;
  for (const auto& row : cells) {
    total += row[static_cast<int>(StoreOp::kWrite)].bytes +
             row[static_cast<int>(StoreOp::kAppend)].bytes;
  }
  return total;
}

StoreCounts StoreCounts::operator-(const StoreCounts& earlier) const {
  StoreCounts out;
  for (int c = 0; c < kFileClasses; ++c) {
    for (int op = 0; op < kStoreOps; ++op) {
      out.cells[c][op].ops = cells[c][op].ops - earlier.cells[c][op].ops;
      out.cells[c][op].bytes = cells[c][op].bytes - earlier.cells[c][op].bytes;
      out.cells[c][op].nanos = cells[c][op].nanos - earlier.cells[c][op].nanos;
    }
  }
  return out;
}

base::Result<std::unique_ptr<store::DurableFile>> TimingStore::Open(const std::string& name,
                                                                    bool create) {
  ASSIGN_OR_RETURN(auto file, base_->Open(name, create));
  const FileClass cls = ClassifyFile(name);
  std::unique_ptr<store::DurableFile> reads;
  if (cls == FileClass::kLog) {
    ASSIGN_OR_RETURN(reads, log_reads_->Open(name, /*create=*/false));
  }
  return std::unique_ptr<store::DurableFile>(
      std::make_unique<TimingFile>(this, cls, std::move(file), std::move(reads)));
}

void TimingStore::Record(FileClass c, StoreOp op, uint64_t bytes, uint64_t nanos) {
  AtomicCell& cell = cells_[static_cast<int>(c)][static_cast<int>(op)];
  cell.ops.fetch_add(1, std::memory_order_relaxed);
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.nanos.fetch_add(nanos, std::memory_order_relaxed);
}

StoreCounts TimingStore::counts() const {
  StoreCounts out;
  for (int c = 0; c < kFileClasses; ++c) {
    for (int op = 0; op < kStoreOps; ++op) {
      out.cells[c][op].ops = cells_[c][op].ops.load(std::memory_order_relaxed);
      out.cells[c][op].bytes = cells_[c][op].bytes.load(std::memory_order_relaxed);
      out.cells[c][op].nanos = cells_[c][op].nanos.load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace perfbench
