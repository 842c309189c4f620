// Seed-corpus generator. Every seed is produced by the REAL encoders (or a
// real LogWriter / sidecar rebuild over a MemStore), so each harness starts
// from deep inside the accepted format instead of fighting the CRC frame
// from zero. Also regenerates the pinned regression inputs under crashes/:
// hand-built byte strings that historic decoder bugs ACCEPTED (dual varint
// spellings, truncated identifiers, wrapping ranges, trailing bytes, loose
// header padding) — each must now be rejected cleanly, and the tier-1
// fuzz_regression_test replays them through the harnesses forever.
//
// Usage: gen_corpus <output-root>   (writes <root>/corpus/<harness>/* and
//                                    <root>/crashes/<harness>/*)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/buffer.h"
#include "src/fuzz/container.h"
#include "src/lbc/wire_format.h"
#include "src/rvm/log_format.h"
#include "src/rvm/log_io.h"
#include "src/rvm/page_checksum.h"
#include "src/rvm/types.h"
#include "src/store/mem_store.h"

namespace {

std::string g_root;

void WriteSeed(const std::string& kind, const std::string& harness,
               const std::string& name, base::ByteSpan bytes) {
  std::filesystem::path dir = std::filesystem::path(g_root) / kind / harness;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

void Corpus(const std::string& harness, const std::string& name,
            const std::vector<uint8_t>& bytes) {
  WriteSeed("corpus", harness, name, base::ByteSpan(bytes.data(), bytes.size()));
}

void Crash(const std::string& harness, const std::string& name,
           const std::vector<uint8_t>& bytes) {
  WriteSeed("crashes", harness, name, base::ByteSpan(bytes.data(), bytes.size()));
}

// One range with the bytes it carries.
struct Range {
  rvm::RegionId region = 0;
  uint64_t offset = 0;
  std::vector<uint8_t> data;
};

rvm::TransactionRecord MakeTxn(rvm::NodeId node, uint64_t seq,
                               std::vector<rvm::LockRecord> locks,
                               const std::vector<Range>& ranges) {
  std::vector<rvm::RangeImage> images;
  for (const Range& r : ranges) {
    images.emplace_back(r.region, r.offset, base::ByteSpan(r.data));
  }
  return rvm::MakeTransaction(node, seq, std::move(locks), images);  // copies the bytes
}

Range MakeRange(rvm::RegionId region, uint64_t offset, size_t len, uint8_t fill) {
  return Range{region, offset, std::vector<uint8_t>(len, fill)};
}

// A small realistic history: two nodes, a shared lock ordering them, ranges
// near and far apart (so compressed wire headers use both encodings).
std::vector<rvm::TransactionRecord> SampleHistory() {
  return {
      MakeTxn(0, 1, {{7, 1}}, {MakeRange(1, 0, 64, 0xAB), MakeRange(1, 4096, 16, 0x01)}),
      MakeTxn(1, 1, {{7, 2}}, {MakeRange(1, 100, 32, 0xCD)}),
      MakeTxn(0, 2, {{7, 3}, {9, 1}},
              {MakeRange(2, 9000, 300, 0x5A), MakeRange(2, 600000, 8, 0xEE)}),
      MakeTxn(1, 2, {}, {}),
  };
}

// Serializes transactions into a framed log image via the real LogWriter.
std::vector<uint8_t> BuildLogBytes(const std::vector<rvm::TransactionRecord>& txns,
                                   bool with_checkpoint) {
  store::MemStore store;
  auto file = store.Open("log.rvm", /*create=*/true);
  rvm::LogWriter writer(std::move(*file));
  if (with_checkpoint) {
    std::vector<uint8_t> cp = rvm::EncodeCheckpoint();
    if (!writer.Append(base::ByteSpan(cp.data(), cp.size()), false).ok()) {
      std::exit(1);
    }
  }
  for (const auto& txn : txns) {
    std::vector<uint8_t> payload = rvm::EncodeTransaction(txn);
    if (!writer.Append(base::ByteSpan(payload.data(), payload.size()), false).ok()) {
      std::exit(1);
    }
  }
  auto reopened = store.Open("log.rvm", /*create=*/false);
  auto size = (*reopened)->Size();
  std::vector<uint8_t> bytes(*size);
  if (!(*reopened)->ReadExact(0, bytes.data(), bytes.size()).ok()) {
    std::exit(1);
  }
  return bytes;
}

std::vector<uint8_t> Container2(const std::vector<uint8_t>& a,
                                const std::vector<uint8_t>& b) {
  return fuzz::JoinContainer({base::ByteSpan(a.data(), a.size()),
                              base::ByteSpan(b.data(), b.size())});
}

void GenLogSeeds() {
  auto history = SampleHistory();
  Corpus("log_transaction", "empty-txn", rvm::EncodeTransaction(MakeTxn(0, 1, {}, {})));
  Corpus("log_transaction", "locks-and-ranges", rvm::EncodeTransaction(history[0]));
  Corpus("log_transaction", "multi-lock", rvm::EncodeTransaction(history[2]));

  std::vector<rvm::TransactionRecord> node0 = {history[0], history[2]};
  std::vector<rvm::TransactionRecord> node1 = {history[1], history[3]};
  std::vector<uint8_t> log0 = BuildLogBytes(node0, /*with_checkpoint=*/false);
  std::vector<uint8_t> log1 = BuildLogBytes(node1, /*with_checkpoint=*/false);
  Corpus("log_frame_scan", "two-txns", log0);
  Corpus("log_frame_scan", "with-checkpoint", BuildLogBytes(node1, true));
  {
    std::vector<uint8_t> torn = log0;
    torn.resize(torn.size() - 5);  // tear inside the last frame
    Corpus("log_frame_scan", "torn-tail", torn);
  }
  Corpus("log_merge", "single-log", log0);
  Corpus("log_merge", "two-node-merge", Container2(log0, log1));
  Corpus("log_index_build", "single-log", log1);
  Corpus("log_index_build", "two-node-merge", Container2(log0, log1));
  {
    // Node 1's log carries node 0's lock-7 record ahead of its own (the
    // successor forced its predecessor): the merge must count it once.
    std::vector<uint8_t> carried = BuildLogBytes({history[0], history[1]}, false);
    Corpus("log_merge", "carried-copy", Container2(log0, carried));
    Corpus("log_index_build", "carried-copy", Container2(log0, carried));
  }

  // Pinned finds (inputs the pre-hardening decoders accepted, or crashed on):
  // 1. Dual varint spelling: node 0 written as 0x80 0x00 instead of 0x00.
  {
    std::vector<uint8_t> canonical = rvm::EncodeTransaction(MakeTxn(0, 1, {}, {}));
    std::vector<uint8_t> loose = {canonical[0], 0x80, 0x00};
    loose.insert(loose.end(), canonical.begin() + 2, canonical.end());
    Crash("log_transaction", "nonminimal-varint-node", loose);
  }
  // 2. NodeId above UINT32_MAX: the old decoder static_cast-truncated it.
  {
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
    w.WriteVarint(uint64_t{1} << 40);  // node
    w.WriteVarint(1);                  // commit_seq
    w.WriteVarint(0);                  // n_locks
    w.WriteVarint(0);                  // n_ranges
    Crash("log_transaction", "node-id-overflows-u32", w.TakeBytes());
  }
  // 3. Range whose end wraps uint64 (offset UINT64_MAX, one data byte).
  {
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
    w.WriteVarint(0);
    w.WriteVarint(1);
    w.WriteVarint(0);  // n_locks
    w.WriteVarint(1);  // n_ranges
    w.WriteU8(0);      // absolute
    w.WriteVarint(1);  // region
    w.WriteVarint(UINT64_MAX);  // offset
    w.WriteVarint(1);  // len
    w.WriteU8(0xAA);
    Crash("log_transaction", "range-end-wraps-u64", w.TakeBytes());
  }
  // 4. Checkpoint record with trailing garbage: the old recovery scan
  //    cleared the recovered prefix on it.
  {
    store::MemStore store;
    auto file = store.Open("log.rvm", /*create=*/true);
    rvm::LogWriter writer(std::move(*file));
    std::vector<uint8_t> payload = rvm::EncodeTransaction(MakeTxn(0, 1, {}, {}));
    if (!writer.Append(base::ByteSpan(payload.data(), payload.size()), false).ok()) {
      std::exit(1);
    }
    std::vector<uint8_t> loose_cp = {
        static_cast<uint8_t>(rvm::LogRecordKind::kCheckpoint), 0xFF, 0xFF};
    if (!writer.Append(base::ByteSpan(loose_cp.data(), loose_cp.size()), false).ok()) {
      std::exit(1);
    }
    auto reopened = store.Open("log.rvm", /*create=*/false);
    auto size = (*reopened)->Size();
    std::vector<uint8_t> bytes(*size);
    if (!(*reopened)->ReadExact(0, bytes.data(), bytes.size()).ok()) {
      std::exit(1);
    }
    Crash("log_frame_scan", "checkpoint-trailing-bytes", bytes);
  }
}

void GenWireSeeds() {
  auto history = SampleHistory();
  for (bool compress : {false, true}) {
    std::string suffix = compress ? "compressed" : "uncompressed";
    Corpus("wire_update", "multi-range-" + suffix,
           lbc::EncodeUpdateRecord(history[2], compress));
    Corpus("wire_update", "near-ranges-" + suffix,
           lbc::EncodeUpdateRecord(history[0], compress));
  }
  // A durable watermark wide enough for a multi-byte varint.
  Corpus("wire_update", "watermark", lbc::EncodeUpdateRecord(history[2], true, 1'000'000));
  Corpus("wire_lock_request", "basic",
         lbc::EncodeLockRequest({.lock = 7, .requester = 2, .applied_seq = 5, .epoch = 1}));
  Corpus("wire_lock_forward", "basic",
         lbc::EncodeLockForward({.lock = 7, .requester = 3, .applied_seq = 9, .epoch = 2}));
  Corpus("wire_lock_revoke", "basic",
         lbc::EncodeLockRevoke({.lock = 9, .epoch = 4, .manager = 0}));
  Corpus("wire_lock_revoke_reply", "holding",
         lbc::EncodeLockRevokeReply({.lock = 9,
                                     .epoch = 4,
                                     .node = 2,
                                     .holding = true,
                                     .had_token = false,
                                     .token_seq = 11,
                                     .applied_seq = 10}));
  {
    lbc::LockTokenMsg token;
    token.lock = 7;
    token.token_seq = 3;
    token.epoch = 1;
    token.holder = 1;
    token.durable_seq = 300;
    Corpus("wire_lock_token", "no-piggyback", lbc::EncodeLockToken(token, true));
    token.piggyback = {history[0], history[1]};
    Corpus("wire_lock_token", "piggyback-compressed", lbc::EncodeLockToken(token, true));
    Corpus("wire_lock_token", "piggyback-uncompressed",
           lbc::EncodeLockToken(token, false));
  }

  // Pinned finds:
  // 1. Uncompressed update whose reserved padding is nonzero — the old
  //    decoder Skip()ed it unread (83 attacker bytes a forgery could hide in).
  {
    std::vector<uint8_t> loose =
        lbc::EncodeUpdateRecord(MakeTxn(0, 1, {}, {MakeRange(1, 0, 4, 0x11)}), false);
    // Layout: type(1) flag(1) node(1) seq(1) durable(1) n_locks(1)
    // n_ranges(1), then the range's tag(1) region(4) start(8) len(8) pad(83)
    // data(4). Byte 7+21 is the first padding byte.
    loose[7 + 21] = 0x42;
    Crash("wire_update", "nonzero-reserved-padding", loose);
  }
  // 2. Compression flag byte outside {0,1}: old decoder treated any nonzero
  //    value as "compressed".
  {
    std::vector<uint8_t> loose = lbc::EncodeUpdateRecord(history[1], true);
    loose[1] = 0x37;
    Crash("wire_update", "bad-compression-flag", loose);
  }
  // 3. Delta range whose re-materialized offset wraps uint64.
  {
    base::Writer w;
    w.WriteU8(static_cast<uint8_t>(lbc::MsgType::kUpdate));
    w.WriteU8(1);      // compressed
    w.WriteVarint(0);  // durable watermark
    // The log payload:
    w.WriteU8(static_cast<uint8_t>(rvm::LogRecordKind::kTransaction));
    w.WriteVarint(0);  // node
    w.WriteVarint(1);  // commit_seq
    w.WriteVarint(0);  // n_locks
    w.WriteVarint(2);  // n_ranges
    w.WriteU8(0);      // absolute
    w.WriteVarint(1);  // region
    w.WriteVarint(UINT64_MAX - 2);  // offset
    w.WriteVarint(0);  // len
    w.WriteU8(0x01);   // delta tag
    w.WriteVarint(1);  // region
    w.WriteVarint(100);  // delta: wraps past UINT64_MAX
    w.WriteVarint(0);  // len
    Crash("wire_update", "delta-offset-wraps-u64", w.TakeBytes());
  }
  // 4. Trailing byte after a complete lock request: the old lock decoders
  //    ignored unconsumed bytes.
  {
    std::vector<uint8_t> loose =
        lbc::EncodeLockRequest({.lock = 1, .requester = 1, .applied_seq = 0, .epoch = 0});
    loose.push_back(0x00);
    Crash("wire_lock_request", "trailing-byte", loose);
  }
  // 5. Same for the revoke reply, plus an undefined flag bit.
  {
    std::vector<uint8_t> loose = lbc::EncodeLockRevokeReply(
        {.lock = 1, .epoch = 1, .node = 1, .holding = false, .had_token = true,
         .token_seq = 1, .applied_seq = 1});
    loose[loose.size() - 3] |= 0x80;  // flags byte: set an undefined bit
    Crash("wire_lock_revoke_reply", "undefined-flag-bit", loose);
  }
}

void GenSidecarSeeds() {
  // A real database file + sidecar pair built by the rebuild path.
  store::MemStore store;
  constexpr rvm::RegionId kRegion = 1;
  std::vector<uint8_t> db(2 * rvm::kDbPageSize + 777);
  for (size_t i = 0; i < db.size(); ++i) {
    db[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  {
    auto file = store.Open(rvm::RegionFileName(kRegion), /*create=*/true);
    if (!(*file)->Write(0, base::ByteSpan(db.data(), db.size())).ok()) {
      std::exit(1);
    }
  }
  if (!rvm::RewriteRegionChecksums(&store, kRegion).ok()) {
    std::exit(1);
  }
  auto sc = store.Open(rvm::ChecksumFileName(kRegion), /*create=*/false);
  auto size = (*sc)->Size();
  std::vector<uint8_t> sidecar(*size);
  if (!(*sc)->ReadExact(0, sidecar.data(), sidecar.size()).ok()) {
    std::exit(1);
  }
  Corpus("page_sidecar", "clean-pair", Container2(sidecar, db));
  {
    std::vector<uint8_t> rotten = sidecar;
    rotten[rvm::kChecksumHeaderSize + 3] ^= 0x40;  // rot inside entry 0's CRC
    Corpus("page_sidecar", "rotten-entry", Container2(rotten, db));
  }
  {
    std::vector<uint8_t> truncated = sidecar;
    truncated.resize(rvm::kChecksumHeaderSize + 5);  // tear mid-entry
    Corpus("page_sidecar", "torn-sidecar", Container2(truncated, db));
  }
  // Pinned find: a huge page index used to overflow the entry-offset
  // arithmetic (page * 8 + 16 wraps uint64 and aliases a low entry). The
  // harness probes those indices against whatever sidecar it is given.
  Crash("page_sidecar", "entry-offset-overflow", Container2(sidecar, db));
  // Pinned find: a container whose parts are all empty (count=2, first part
  // length 0, empty remainder) drove zero-length MemStore writes whose
  // std::memcpy received null src/dst pointers — UB even at size 0, caught
  // by UBSan in the sidecar, index-build, and merge harnesses.
  Crash("page_sidecar", "empty-parts-container", {0x02, 0x00, 0x00, 0x00});
  Crash("log_index_build", "empty-log-parts",
        {0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 2;
  }
  g_root = argv[1];
  GenLogSeeds();
  GenWireSeeds();
  GenSidecarSeeds();
  std::fprintf(stderr, "corpus written under %s\n", g_root.c_str());
  return 0;
}
