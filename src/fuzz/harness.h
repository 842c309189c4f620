// Fuzz harness registry: one entry point per untrusted-byte decode surface.
//
// Every byte string the system ever parses back — log frames and transaction
// payloads off disk, coherency/lock messages off the wire, checksum sidecars,
// the §3.4 multi-log merge and the incremental-recovery index build — has a
// harness here. A harness consumes arbitrary bytes and must terminate with a
// clean verdict: any input either decodes correctly or is rejected with a
// base::Status. Undefined behavior, unbounded allocation, a hang, or an
// accepted-but-wrong record (checked by round-trip differential oracles
// against the real encoders) aborts the process — which is what libFuzzer,
// the standalone driver, and the tier-1 regression replay all detect.
//
// The registry is compiled into the normal build (not just LBC_FUZZ): the
// tier-1 fuzz_regression_test replays every pinned corpus and crash file
// through these entry points, so decoder totality stays gated on machines
// without libFuzzer. scripts/lint.py cross-checks fuzz/REGISTRY against the
// Decode* declarations in src/ so a new decoder cannot ship unfuzzed.
#ifndef SRC_FUZZ_HARNESS_H_
#define SRC_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/rvm/types.h"

namespace fuzz {

// Which structure-aware mutator fits the harness's input shape.
enum class MutatorKind {
  kRaw,   // plain byte mutation only
  kLog,   // frame-preserving log mutator (CRC-framed records, containers)
  kWire,  // wire-envelope mutator (type tag + message body)
};

struct Harness {
  const char* name;
  // libFuzzer signature: returns 0 (any other outcome is an abort).
  int (*run)(const uint8_t* data, size_t size);
  MutatorKind mutator;
};

// All registered harnesses, in stable order.
const std::vector<Harness>& AllHarnesses();

// nullptr when no harness has that name.
const Harness* FindHarness(const char* name);

// Oracle failure: prints the message (and a short hex dump of the offending
// input when provided) and aborts, so every driver flavor records a find.
[[noreturn]] void OracleFailure(const char* harness, const char* message,
                                const uint8_t* data, size_t size);

// Inputs larger than this are ignored by every harness: per-input memory is
// bounded by a small multiple of this (decoded structures are amplification-
// checked against the input size inside each harness).
inline constexpr size_t kMaxInputBytes = 1 << 20;

// Checks `rec`, an accepted record, against the validator's reading of its
// payload, range by range. Aborts unless the payload is the canonical
// spelling of that reading (the range writer's rewrite of the record's
// node, commit_seq, locks and ranges gives the same bytes), and unless
// applying `rec` through rvm::Rvm::ApplyExternalRanges (the receiver's walk
// over its payload) into a scratch region image gives the image, status and
// applied count that applying the reading gives.
void CheckWalkApply(const char* harness, const rvm::TransactionRecord& rec,
                    const uint8_t* data, size_t size);

// --- harness entry points (one per decode surface) --------------------------
// Grouped by trust boundary; see fuzz/REGISTRY for the decoder mapping.

int RunLogTransaction(const uint8_t* data, size_t size);   // DecodeTransaction
int RunLogFrameScan(const uint8_t* data, size_t size);     // LogReader frame scan
int RunLogIndexBuild(const uint8_t* data, size_t size);    // LogIndex::Build
int RunLogMerge(const uint8_t* data, size_t size);         // §3.4 multi-log merge
int RunWireUpdate(const uint8_t* data, size_t size);       // lbc::DecodeUpdate
int RunWireLockRequest(const uint8_t* data, size_t size);  // DecodeLockRequest
int RunWireLockForward(const uint8_t* data, size_t size);  // DecodeLockForward
int RunWireLockToken(const uint8_t* data, size_t size);    // DecodeLockToken
int RunWireLockRevoke(const uint8_t* data, size_t size);   // DecodeLockRevoke
int RunWireLockRevokeReply(const uint8_t* data, size_t size);  // DecodeLockRevokeReply
int RunPageSidecar(const uint8_t* data, size_t size);      // sidecar parse/verify

}  // namespace fuzz

#endif  // SRC_FUZZ_HARNESS_H_
