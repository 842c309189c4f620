// Tier-1 replay of the pinned fuzz corpora: every checked-in seed and every
// crash reproducer under fuzz/ runs through its harness entry point in the
// normal build. A harness aborts on any oracle violation (accepted-but-
// noncanonical input, unbounded decode, index/merge inconsistency), so this
// test keeps decoder totality gated on machines without libFuzzer — a
// regression on a pinned find fails CI even when nobody runs the fuzzers.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fuzz/harness.h"
#include "src/lbc/wire_format.h"

namespace fuzz {
namespace {

// Set by tests/CMakeLists.txt to <repo>/fuzz.
const char* FuzzDir() {
#ifdef LBC_FUZZ_DIR
  return LBC_FUZZ_DIR;
#else
  return "fuzz";
#endif
}

std::vector<uint8_t> ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// (harness, file, bytes) for every input under fuzz/<kind>/<harness>/.
struct PinnedInput {
  const Harness* harness;
  std::string file;
  std::vector<uint8_t> bytes;
};

std::vector<PinnedInput> CollectInputs(const std::string& kind) {
  std::vector<PinnedInput> inputs;
  std::filesystem::path root = std::filesystem::path(FuzzDir()) / kind;
  EXPECT_TRUE(std::filesystem::is_directory(root))
      << root << " missing — run gen_corpus to regenerate";
  for (const auto& dir : std::filesystem::directory_iterator(root)) {
    if (!dir.is_directory()) {
      continue;
    }
    const Harness* harness = FindHarness(dir.path().filename().c_str());
    EXPECT_NE(harness, nullptr)
        << "corpus directory " << dir.path() << " names no registered harness";
    if (harness == nullptr) {
      continue;
    }
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
      if (entry.is_regular_file()) {
        inputs.push_back({harness, entry.path().string(), ReadFileBytes(entry.path())});
      }
    }
  }
  return inputs;
}

// The update encoder sizes its buffer in one pass: the bytes it emits for
// every seed update are the seed's bytes, in a buffer exactly that long (a
// size miscount would grow it, and a grown vector keeps spare capacity).
TEST(FuzzRegression, UpdateEncoderSizesInOnePassAndKeepsTheSeedBytes) {
  size_t checked = 0;
  for (const auto& input : CollectInputs("corpus")) {
    if (std::string(input.harness->name) != "wire_update") {
      continue;
    }
    SCOPED_TRACE(input.file);
    rvm::TransactionRecord txn;
    uint64_t durable_seq = 0;
    ASSERT_TRUE(lbc::DecodeUpdate(base::ByteSpan(input.bytes.data(), input.bytes.size()),
                                  &txn, &durable_seq)
                    .ok());
    const std::vector<uint8_t> encoded =
        lbc::EncodeUpdateRecord(txn, /*compress_headers=*/input.bytes[1] == 1, durable_seq);
    EXPECT_EQ(input.bytes, encoded);
    EXPECT_EQ(encoded.size(), encoded.capacity());
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST(FuzzRegression, EveryHarnessHasSeeds) {
  auto inputs = CollectInputs("corpus");
  for (const Harness& h : AllHarnesses()) {
    size_t n = 0;
    for (const auto& input : inputs) {
      n += input.harness == &h ? 1 : 0;
    }
    EXPECT_GT(n, 0u) << "harness " << h.name << " has no checked-in corpus";
  }
}

TEST(FuzzRegression, CorpusReplaysClean) {
  for (const auto& input : CollectInputs("corpus")) {
    SCOPED_TRACE(input.file);
    EXPECT_EQ(input.harness->run(input.bytes.data(), input.bytes.size()), 0);
  }
}

TEST(FuzzRegression, PinnedCrashesReplayClean) {
  auto inputs = CollectInputs("crashes");
  EXPECT_FALSE(inputs.empty()) << "no pinned finds under fuzz/crashes";
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.file);
    EXPECT_EQ(input.harness->run(input.bytes.data(), input.bytes.size()), 0);
  }
}

// Cross-pollination: every pinned input through EVERY harness. Harnesses
// take arbitrary bytes by contract, so a seed for one decode surface must
// not wedge another (cheap: the corpora are tiny).
TEST(FuzzRegression, AllInputsThroughAllHarnesses) {
  for (const std::string& kind : {std::string("corpus"), std::string("crashes")}) {
    for (const auto& input : CollectInputs(kind)) {
      for (const Harness& h : AllHarnesses()) {
        SCOPED_TRACE(std::string(h.name) + " <- " + input.file);
        EXPECT_EQ(h.run(input.bytes.data(), input.bytes.size()), 0);
      }
    }
  }
}

}  // namespace
}  // namespace fuzz
