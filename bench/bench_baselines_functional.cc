// Functional baseline comparison on the full-size OO7 database: instead of
// the analytic lower bounds of Figures 1-3, this actually RUNS the three
// update-capture mechanisms on the same traversal and reports what each
// would put on the wire:
//
//   Log      — set_range ranges + compressed headers (the rvm runtime),
//   Cpy/Cmp  — twin/diff collection (real page compare, byte-exact diffs),
//   Page     — whole dirty pages (real write-invalidate protocol transfers).
//
// The diff engine typically finds FEWER bytes than Log declares (an
// incremented counter rarely changes all 8 bytes); Page ships three orders
// of magnitude more for sparse traversals. These are the mechanics behind
// the paper's Figure 1-3 orderings.
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/base/logging.h"
#include "src/baselines/cpycmp.h"
#include "src/baselines/page_dsm.h"
#include "src/oo7/traversals.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"

namespace {

class CpyCmpSink : public oo7::UpdateSink {
 public:
  explicit CpyCmpSink(baselines::CpyCmpEngine* engine) : engine_(engine) {}
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    engine_->NoteWrite(offset, len);
    return base::OkStatus();
  }

 private:
  baselines::CpyCmpEngine* engine_;
};

class PageDsmSink : public oo7::UpdateSink {
 public:
  explicit PageDsmSink(baselines::PageDsmNode* node) : node_(node) {}
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    uint64_t end = offset + (len == 0 ? 0 : len - 1);
    for (uint64_t page = offset / node_->page_size(); page * node_->page_size() <= end;
         ++page) {
      RETURN_IF_ERROR(node_->StartWrite(page * node_->page_size()));
    }
    return base::OkStatus();
  }

 private:
  baselines::PageDsmNode* node_;
};

class RvmSink : public oo7::UpdateSink {
 public:
  RvmSink(rvm::Rvm* rvm, rvm::TxnId txn) : rvm_(rvm), txn_(txn) {}
  base::Status SetRange(uint64_t offset, uint64_t len) override {
    return rvm_->SetRange(txn_, 1, offset, len);
  }

 private:
  rvm::Rvm* rvm_;
  rvm::TxnId txn_;
};

oo7::TraversalResult Run(const char* name, oo7::Database db, oo7::UpdateSink& sink) {
  char v = name[std::strlen(name) - 1];
  oo7::Variant variant = v == 'A'   ? oo7::Variant::kA
                         : v == 'B' ? oo7::Variant::kB
                                    : oo7::Variant::kC;
  if (std::strncmp(name, "T2", 2) == 0) {
    return oo7::RunT2(db, sink, variant);
  }
  if (std::strncmp(name, "T3", 2) == 0) {
    return oo7::RunT3(db, sink, variant);
  }
  return oo7::RunT12(db, sink, variant);
}

std::vector<uint8_t> BuildImage() {
  oo7::Config config;
  std::vector<uint8_t> image(oo7::Database::RequiredSize(config), 0);
  LBC_CHECK_OK(oo7::Database::Build(image.data(), image.size(), config));
  return image;
}

}  // namespace

int main() {
  std::printf("=== Functional baselines on full-size OO7 (bytes on wire) ===\n\n");
  std::printf("%-8s %14s %16s %14s %14s\n", "traversal", "Log bytes", "Cpy/Cmp bytes",
              "Page bytes", "dirty pages");
  for (const char* name : {"T12-A", "T2-A", "T2-B"}) {
    // Log: the rvm runtime's gathered ranges (data only, headers excluded to
    // compare capture precision).
    uint64_t log_bytes = 0;
    {
      std::vector<uint8_t> image = BuildImage();
      store::MemStore store;
      {
        auto file = std::move(*store.Open(rvm::RegionFileName(1), true));
        LBC_CHECK_OK(file->Write(0, base::ByteSpan(image.data(), image.size())));
      }
      rvm::RvmOptions options;
      options.disk_logging = false;
      auto rvm = std::move(*rvm::Rvm::Open(&store, 1, options));
      rvm::Region* region = *rvm->MapRegion(1, image.size());
      rvm::TxnId txn = rvm->BeginTransaction(rvm::RestoreMode::kNoRestore);
      RvmSink sink(rvm.get(), txn);
      LBC_CHECK_OK(Run(name, oo7::Database(region->data()), sink).status);
      LBC_CHECK_OK(rvm->EndTransaction(txn, rvm::CommitMode::kNoFlush));
      log_bytes = rvm->stats().bytes_logged;
    }

    // Cpy/Cmp: twin + byte-exact diff.
    uint64_t diff_bytes = 0, dirty_pages = 0;
    {
      std::vector<uint8_t> image = BuildImage();
      baselines::CpyCmpEngine engine(image.data(), image.size());
      CpyCmpSink sink(&engine);
      LBC_CHECK_OK(Run(name, oo7::Database(image.data()), sink).status);
      engine.CollectDiffs(1);
      diff_bytes = engine.metrics().diff_bytes.value();
      dirty_pages = engine.metrics().pages_compared.value();
    }

    // Page: the real write-invalidate protocol; dirty pages are then pulled
    // by the peer, whole.
    uint64_t page_bytes = 0;
    {
      std::vector<uint8_t> image = BuildImage();
      netsim::Fabric fabric;
      baselines::PageDsmNode manager(&fabric, 1, 1, image.size());
      baselines::PageDsmNode writer(&fabric, 2, 1, image.size());
      std::memcpy(manager.data(), image.data(), image.size());
      std::memcpy(writer.data(), image.data(), image.size());
      PageDsmSink sink(&writer);
      LBC_CHECK_OK(Run(name, oo7::Database(writer.data()), sink).status);
      for (uint64_t off = 0; off < image.size(); off += manager.page_size()) {
        LBC_CHECK_OK(manager.StartRead(off));
      }
      LBC_CHECK(std::memcmp(manager.data(), writer.data(), image.size()) == 0);
      page_bytes = writer.metrics().page_bytes_sent.value();
    }

    std::printf("%-8s %14llu %16llu %14llu %14llu\n", name,
                static_cast<unsigned long long>(log_bytes),
                static_cast<unsigned long long>(diff_bytes),
                static_cast<unsigned long long>(page_bytes),
                static_cast<unsigned long long>(dirty_pages));
  }
  std::printf("\nCpy/Cmp's comparison finds only the bytes that truly changed (often\n"
              "fewer than set_range declared); Page ships entire dirty pages — the\n"
              "~1000x gap for sparse traversals that Figures 1-3 quantify.\n");
  return 0;
}
