// Functional baselines driven by the real OO7 workload: the twin/diff
// engine's collected diffs must reconstruct the writer's image exactly, and
// the page-DSM protocol must converge both nodes byte-for-byte.
#include <gtest/gtest.h>

#include <cstring>

#include "src/baselines/cpycmp.h"
#include "src/baselines/page_dsm.h"
#include "src/oo7/traversals.h"

namespace {

// UpdateSink that twins pages ahead of each mutation.
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

// UpdateSink that takes page write faults ahead of each mutation.
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

TEST(CpyCmpOo7, DiffsReconstructTheWriterImage) {
  oo7::Config config = oo7::TinyConfig();
  std::vector<uint8_t> image(oo7::Database::RequiredSize(config), 0);
  ASSERT_TRUE(oo7::Database::Build(image.data(), image.size(), config).ok());
  std::vector<uint8_t> pristine = image;  // the peer's stale cache

  baselines::CpyCmpEngine engine(image.data(), image.size());
  CpyCmpSink sink(&engine);
  oo7::Database db(image.data());
  auto result = oo7::RunT3(db, sink, oo7::Variant::kB);
  ASSERT_TRUE(result.status.ok());

  auto diffs = engine.CollectDiffs(1);
  ASSERT_FALSE(diffs.empty());
  for (const auto& d : diffs) {
    std::memcpy(pristine.data() + d.offset, d.data.data(), d.data.size());
  }
  EXPECT_EQ(0, std::memcmp(pristine.data(), image.data(), image.size()))
      << "applying the diffs did not reproduce the writer's image";
}

TEST(CpyCmpOo7, DiffBytesNeverExceedDeclaredBytes) {
  // The comparison finds the bytes that ACTUALLY changed — a subset of what
  // set_range declared (e.g. x+1 usually flips one byte of the field).
  // This is Cpy/Cmp's precision advantage the paper's model credits it with.
  oo7::Config config = oo7::TinyConfig();
  std::vector<uint8_t> image(oo7::Database::RequiredSize(config), 0);
  ASSERT_TRUE(oo7::Database::Build(image.data(), image.size(), config).ok());
  baselines::CpyCmpEngine engine(image.data(), image.size());
  CpyCmpSink sink(&engine);
  oo7::Database db(image.data());
  auto result = oo7::RunT2(db, sink, oo7::Variant::kB);
  ASSERT_TRUE(result.status.ok());
  engine.CollectDiffs(1);
  EXPECT_LE(engine.metrics().diff_bytes.value(), result.updates * 8);
  EXPECT_GT(engine.metrics().diff_bytes.value(), 0u);
}

TEST(PageDsmOo7, ProtocolConvergesBothNodes) {
  oo7::Config config = oo7::TinyConfig();
  uint64_t size = oo7::Database::RequiredSize(config);
  std::vector<uint8_t> image(size, 0);
  ASSERT_TRUE(oo7::Database::Build(image.data(), image.size(), config).ok());

  netsim::Fabric fabric;
  baselines::PageDsmNode manager(&fabric, 1, 1, size);
  baselines::PageDsmNode writer(&fabric, 2, 1, size);
  // Warm start: both caches hold the database; the manager owns every page.
  std::memcpy(manager.data(), image.data(), size);
  std::memcpy(writer.data(), image.data(), size);

  // The writer runs an update traversal, taking ownership page by page.
  PageDsmSink sink(&writer);
  oo7::Database db(writer.data());
  auto result = oo7::RunT12(db, sink, oo7::Variant::kA);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(writer.metrics().write_faults.value(), 0u);
  EXPECT_GT(manager.metrics().pages_sent.value(), 0u);  // ownership transfers

  // The manager reads everything back: whole dirty pages travel.
  uint64_t writer_sent_before = writer.metrics().pages_sent.value();
  for (uint64_t offset = 0; offset < size; offset += manager.page_size()) {
    ASSERT_TRUE(manager.StartRead(offset).ok());
  }
  EXPECT_GT(writer.metrics().pages_sent.value(), writer_sent_before);
  EXPECT_EQ(0, std::memcmp(manager.data(), writer.data(), size))
      << "page DSM caches diverged";
}

TEST(PageDsmOo7, WholePagesTravelForSparseUpdates) {
  // The paper's core contrast: for sparse updates, Page ships ~8 KB per
  // dirty page where Log ships ~12 bytes per update.
  oo7::Config config = oo7::TinyConfig();
  uint64_t size = oo7::Database::RequiredSize(config);
  std::vector<uint8_t> image(size, 0);
  ASSERT_TRUE(oo7::Database::Build(image.data(), image.size(), config).ok());

  netsim::Fabric fabric;
  baselines::PageDsmNode manager(&fabric, 1, 1, size);
  baselines::PageDsmNode writer(&fabric, 2, 1, size);
  std::memcpy(manager.data(), image.data(), size);
  std::memcpy(writer.data(), image.data(), size);

  PageDsmSink sink(&writer);
  oo7::Database db(writer.data());
  auto result = oo7::RunT12(db, sink, oo7::Variant::kA);
  ASSERT_TRUE(result.status.ok());

  uint64_t page_bytes = manager.metrics().page_bytes_sent.value();
  uint64_t log_bytes = result.updates * 8;  // what Log would ship (data only)
  EXPECT_GT(page_bytes, log_bytes * 20) << "page transfer should dwarf modified bytes";
}

}  // namespace
