// Harnesses for the on-disk log surfaces: transaction payload decode, the
// framed log scan, the incremental-recovery index build, and the §3.4
// multi-log merge. Each one feeds arbitrary bytes through the same code
// recovery runs, then checks the round-trip differential oracle against the
// real encoders: whatever the decoder ACCEPTS must re-encode to the exact
// bytes it came from (the format is one-spelling canonical), and whatever
// the encoder EMITS must decode back to the same value. Every accepted
// transaction is also applied through the receiver's walk into a scratch
// image and held to the validator's own reading of it (CheckWalkApply).
#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/fuzz/container.h"
#include "src/fuzz/harness.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_index.h"
#include "src/rvm/log_io.h"
#include "src/rvm/log_merge.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/recovery.h"
#include "src/rvm/rvm.h"
#include "src/store/mem_store.h"

namespace fuzz {
namespace {

// Writes `data` as the named file of a fresh MemStore file namespace.
bool WriteFile(store::MemStore* store, const std::string& name, base::ByteSpan data) {
  auto file = store->Open(name, /*create=*/true);
  if (!file.ok()) {
    return false;
  }
  return (*file)->Write(0, data).ok();
}

// Structural bound shared by every accepted transaction: the decoder owns
// nothing the input bytes did not pay for.
void CheckTransactionBounds(const char* harness, const rvm::TransactionRecord& txn,
                            const uint8_t* data, size_t size) {
  if (txn.TotalBytes() > size) {
    OracleFailure(harness, "decoded range bytes exceed input size", data, size);
  }
  if (txn.locks.size() > size || txn.ranges.size() > size) {
    OracleFailure(harness, "decoded record count exceeds input size", data, size);
  }
}

}  // namespace

void CheckWalkApply(const char* harness, const rvm::TransactionRecord& rec,
                    const uint8_t* data, size_t size) {
  // The validator's account of the payload, range by range.
  std::vector<rvm::RangeImage> view;
  rvm::TransactionRecord checked;
  if (!rvm::DecodeTransaction(rec.payload, rec.bytes, &checked,
                              [&](const rvm::RangeImage& r) { view.push_back(r); })
           .ok() ||
      !(checked == rec)) {
    OracleFailure(harness, "an accepted record's payload does not validate", data, size);
  }
  // The one-spelling rule: the payload is what the range writer makes of
  // the record's prefix and the validator's ranges, byte for byte.
  if (!std::ranges::equal(
          rvm::MakeTransaction(rec.node, rec.commit_seq, rec.locks, view).payload,
          rec.payload)) {
    OracleFailure(harness, "an accepted payload is not the canonical spelling of its record",
                  data, size);
  }
  if (view.empty()) {
    return;
  }
  // One small scratch image, of the first range's region: ranges near its
  // start land, the others take the skip rule.
  constexpr uint64_t kImageBytes = 16 * 1024;
  const rvm::RegionId region = view.front().region;
  std::vector<uint8_t> want(kImageBytes, 0);
  base::StatusCode want_code = base::StatusCode::kOk;
  uint64_t want_applied = 0;
  for (const rvm::RangeImage& r : view) {
    const uint64_t len = r.data.size();
    if (r.region == region && len <= kImageBytes && r.offset <= kImageBytes - len) {
      std::copy(r.data.begin(), r.data.end(), want.begin() + static_cast<ptrdiff_t>(r.offset));
      ++want_applied;
    } else if (want_code == base::StatusCode::kOk) {
      want_code = r.region == region ? base::StatusCode::kOutOfRange
                                     : base::StatusCode::kNotFound;
    }
  }
  store::MemStore store;
  auto node = rvm::Rvm::Open(&store, /*node=*/1, rvm::RvmOptions{});
  if (!node.ok() || !(*node)->MapRegion(region, kImageBytes).ok()) {
    return;
  }
  // The receiver's apply: the walk over the payload's bytes.
  const base::StatusCode code = (*node)->ApplyExternalRanges(rec).code();
  if (code != want_code || (*node)->stats().external_updates_applied != want_applied ||
      !std::equal(want.begin(), want.end(), (*node)->GetRegion(region)->data())) {
    OracleFailure(harness, "the apply walk disagrees with the validator's reading", data,
                  size);
  }
}

int RunLogTransaction(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  // The record alone holds the Buffer its ranges view.
  rvm::TransactionRecord txn;
  if (!rvm::DecodeTransaction(base::Buffer::Copy(base::ByteSpan(data, size)), &txn).ok()) {
    return 0;  // rejected cleanly — the only other acceptable outcome
  }
  CheckTransactionBounds("log_transaction", txn, data, size);
  // Accepted inputs are canonical: CheckWalkApply rewrites the record from
  // its fields and ranges and requires the payload's exact bytes, and the
  // payload is the whole input.
  CheckWalkApply("log_transaction", txn, data, size);
  std::vector<uint8_t> re = rvm::EncodeTransaction(txn);
  if (re.size() != size || (size > 0 && std::memcmp(re.data(), data, size) != 0)) {
    OracleFailure("log_transaction", "Encode(Decode(x)) != x for accepted input",
                  data, size);
  }
  // And the encoder's output round-trips to the same value.
  rvm::TransactionRecord again;
  if (!rvm::DecodeTransaction(base::Buffer(std::move(re)), &again).ok() || !(again == txn)) {
    OracleFailure("log_transaction", "Decode(Encode(txn)) != txn", data, size);
  }
  return 0;
}

int RunLogFrameScan(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  store::MemStore store;
  if (!WriteFile(&store, rvm::LogFileName(0), base::ByteSpan(data, size))) {
    return 0;
  }
  // First the raw frame scan: it must stop inside the input, never read a
  // frame the bytes did not contain.
  {
    auto file = store.Open(rvm::LogFileName(0), /*create=*/false);
    if (!file.ok()) {
      return 0;
    }
    rvm::LogReader reader(file->get());
    base::ByteSpan payload;
    bool at_end = false;
    while (true) {
      if (!reader.ReadNext(&payload, &at_end).ok()) {
        return 0;  // read-side failure is a clean rejection
      }
      if (at_end) {
        break;
      }
      if (reader.offset() > size) {
        OracleFailure("log_frame_scan", "frame scan read past end of input", data, size);
      }
    }
  }
  // Then the recovery-grade scan. A DataLoss from a framed-but-bogus record
  // is fine; an accepted log must survive rewrite + rescan unchanged.
  bool torn = false;
  auto txns = rvm::ReadLogTransactions(&store, rvm::LogFileName(0), &torn);
  if (!txns.ok()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& txn : *txns) {
    CheckTransactionBounds("log_frame_scan", txn, data, size);
    CheckWalkApply("log_frame_scan", txn, data, size);
    total += txn.TotalBytes();
  }
  if (total > size) {
    OracleFailure("log_frame_scan", "decoded log bytes exceed input size", data, size);
  }
  auto rewritten = store.Open("rewrite.rvm", /*create=*/true);
  if (!rewritten.ok()) {
    return 0;
  }
  rvm::LogWriter writer(std::move(*rewritten));
  for (const auto& txn : *txns) {
    if (!writer.Append(txn.payload, false).ok()) {
      return 0;
    }
  }
  auto reread = rvm::ReadLogTransactions(&store, "rewrite.rvm");
  if (!reread.ok() || !(*reread == *txns)) {
    OracleFailure("log_frame_scan", "rewritten log does not rescan to the same history",
                  data, size);
  }
  return 0;
}

int RunLogIndexBuild(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  std::vector<base::ByteSpan> parts =
      SplitContainer(base::ByteSpan(data, size), /*max_parts=*/4);
  store::MemStore store;
  std::vector<std::string> names;
  for (size_t i = 0; i < parts.size(); ++i) {
    names.push_back(rvm::LogFileName(static_cast<rvm::NodeId>(i)));
    if (!WriteFile(&store, names.back(), parts[i])) {
      return 0;
    }
  }
  uint64_t written_before = store.total_bytes_written();
  auto index = rvm::LogIndex::Build(&store, names);
  if (!index.ok()) {
    return 0;
  }
  // The build's contract: read-only with respect to the store (a power cut
  // during it must degrade to a cut at its start).
  if (store.total_bytes_written() != written_before) {
    OracleFailure("log_index_build", "index build mutated the store", data, size);
  }
  // Internal consistency: every slice names a real range (its record, the
  // position of its header, its start) that actually intersects the page it
  // is indexed under.
  const auto& txns = index->transactions();
  std::set<std::tuple<uint32_t, uint32_t, uint64_t>> named;
  for (size_t t = 0; t < txns.size(); ++t) {
    const rvm::RangeList& ranges = txns[t].ranges;
    for (auto it = ranges.begin(); it != ranges.end(); ++it) {
      named.emplace(static_cast<uint32_t>(t),
                    static_cast<uint32_t>(it.header() - ranges.bytes().data()), it->offset);
    }
  }
  for (const auto& [region, page] : index->Pages()) {
    const auto* slices = index->SlicesFor(region, page);
    if (slices == nullptr || slices->empty()) {
      OracleFailure("log_index_build", "indexed page has no slices", data, size);
    }
    for (const auto& slice : *slices) {
      if (named.count({slice.txn, slice.pos, slice.offset}) == 0) {
        OracleFailure("log_index_build", "slice points outside the merged history",
                      data, size);
      }
      const rvm::RangeImage r = index->RangeOf(slice);
      uint64_t lo = r.offset / rvm::kDbPageSize;
      uint64_t hi = r.data.empty() ? lo : (r.offset + r.data.size() - 1) / rvm::kDbPageSize;
      if (r.data.empty() || r.region != region || page < lo || page > hi) {
        OracleFailure("log_index_build", "slice indexed under a page it does not touch",
                      data, size);
      }
    }
  }
  return 0;
}

int RunLogMerge(const uint8_t* data, size_t size) {
  if (size > kMaxInputBytes) {
    return 0;
  }
  std::vector<base::ByteSpan> parts =
      SplitContainer(base::ByteSpan(data, size), /*max_parts=*/4);
  store::MemStore store;
  std::vector<std::string> names;
  for (size_t i = 0; i < parts.size(); ++i) {
    names.push_back(rvm::LogFileName(static_cast<rvm::NodeId>(i)));
    if (!WriteFile(&store, names.back(), parts[i])) {
      return 0;
    }
  }
  auto merged = rvm::MergeLogs(&store, names);
  if (!merged.ok()) {
    return 0;  // DataLoss / FAILED_PRECONDITION (no legal order) are clean rejections
  }
  uint64_t total = 0;
  for (const auto& txn : *merged) {
    CheckTransactionBounds("log_merge", txn, data, size);
    CheckWalkApply("log_merge", txn, data, size);
    total += txn.TotalBytes();
  }
  if (total > size) {
    OracleFailure("log_merge", "merged history exceeds input size", data, size);
  }
  // Differential oracle against the offline merge utility: writing the
  // merged history out as a single log and recovering it — or merging it
  // again — must reproduce exactly the same serial history.
  if (!rvm::WriteMergedLog(&store, names, "merged.rvm").ok()) {
    OracleFailure("log_merge", "WriteMergedLog failed on a history MergeLogs accepted",
                  data, size);
  }
  auto reread = rvm::ReadLogTransactions(&store, "merged.rvm");
  if (!reread.ok() || !(*reread == *merged)) {
    OracleFailure("log_merge", "merged log does not recover to the merged history",
                  data, size);
  }
  auto again = rvm::MergeLogs(&store, {"merged.rvm"});
  if (!again.ok() || !(*again == *merged)) {
    OracleFailure("log_merge", "merge is not idempotent over its own output", data, size);
  }
  return 0;
}

}  // namespace fuzz
