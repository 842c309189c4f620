// Byte buffers and binary serialization cursors.
//
// Writer appends little-endian fixed-width integers, varints, and raw byte
// ranges into a growable buffer. Reader consumes the same encodings with
// bounds checking, returning DATA_LOSS on truncation so callers can treat a
// short read as a torn log record.
#ifndef SRC_BASE_BUFFER_H_
#define SRC_BASE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace base {

using ByteSpan = std::span<const uint8_t>;

inline ByteSpan AsBytes(const void* data, size_t len) {
  return ByteSpan(static_cast<const uint8_t*>(data), len);
}

// Immutable, refcounted byte buffer. Copying a Buffer bumps a refcount and
// shares the underlying bytes — this is what lets one encoded commit record
// fan out to every peer (and sit in every ReliableChannel retransmit queue)
// without per-peer copies. The bytes are immutable for the buffer's whole
// lifetime, so concurrent readers need no synchronization.
//
// Constructing from a std::vector adopts the vector's storage (one move, no
// copy); Copy() is the explicit copying constructor for borrowed spans.
class Buffer {
 public:
  Buffer() = default;
  // Implicit: lets existing call sites that built a std::vector payload keep
  // compiling while the storage is adopted rather than copied.
  Buffer(std::vector<uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : block_(bytes.empty()
                   ? nullptr
                   : std::make_shared<const std::vector<uint8_t>>(std::move(bytes))) {}
  Buffer(std::initializer_list<uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : Buffer(std::vector<uint8_t>(bytes)) {}

  static Buffer Copy(ByteSpan data) {
    Buffer out;  // the bytes go straight into the shared block
    if (!data.empty()) {
      out.block_ = std::make_shared<const std::vector<uint8_t>>(data.begin(), data.end());
    }
    return out;
  }

  const uint8_t* data() const { return block_ ? block_->data() : nullptr; }
  size_t size() const { return block_ ? block_->size() : 0; }
  bool empty() const { return size() == 0; }
  uint8_t operator[](size_t i) const { return (*block_)[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size(); }
  ByteSpan span() const { return ByteSpan(data(), size()); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
  }
  friend bool operator==(const Buffer& a, const std::vector<uint8_t>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
  }
  friend bool operator==(const std::vector<uint8_t>& a, const Buffer& b) {
    return b == a;
  }

  // Number of Buffer handles sharing these bytes (0 for an empty buffer).
  // Diagnostic only — racy the instant it returns.
  long use_count() const { return block_ ? block_.use_count() : 0; }

 private:
  std::shared_ptr<const std::vector<uint8_t>> block_;
};

// Bytes Writer::WriteVarint emits for `v`.
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) {
    ++n;
  }
  return n;
}

// Growable append-only byte buffer used to build log records and messages.
// Every write claims its bytes with one capacity check and then stores
// through a pointer, so an encoder that sizes its output first and passes
// the size to the constructor never grows and pays no per-byte check.
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve)
      : bytes_(reserve), pos_(bytes_.data()), end_(bytes_.data() + reserve) {}
  // The cursor points into the storage: no copies.
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void WriteU8(uint8_t v) { *Claim(1) = v; }
  void WriteU16(uint16_t v) { WriteLittleEndian(v); }
  void WriteU32(uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(uint64_t v) { WriteLittleEndian(v); }

  // LEB128 unsigned varint: 1 byte for values < 128, etc.
  void WriteVarint(uint64_t v) {
    if (static_cast<size_t>(end_ - pos_) < kMaxVarintSize) {
      Reserve(VarintSize(v));  // near the end: size it exactly
    }
    uint8_t* p = pos_;
    while (v >= 0x80) {
      *p++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<uint8_t>(v);
    pos_ = p;
  }

  void WriteBytes(ByteSpan data) {
    if (!data.empty()) {
      std::memcpy(Claim(data.size()), data.data(), data.size());
    }
  }
  void WriteBytes(const void* data, size_t len) { WriteBytes(AsBytes(data, len)); }

  // Length-prefixed string/blob.
  void WriteLengthPrefixed(ByteSpan data) {
    WriteVarint(data.size());
    WriteBytes(data);
  }
  void WriteString(const std::string& s) {
    WriteLengthPrefixed(AsBytes(s.data(), s.size()));
  }

  // Overwrites previously written bytes in place (e.g. to back-patch a
  // record length or checksum once the payload is known). Out-of-bounds
  // offsets are programming errors.
  void PatchU32(size_t offset, uint32_t v) {
    if (offset + sizeof(v) > size()) {
      __builtin_trap();
    }
    std::memcpy(bytes_.data() + offset, &v, sizeof(v));
  }

  size_t size() const { return pos_ - bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }
  ByteSpan span() const { return ByteSpan(bytes_.data(), size()); }
  std::vector<uint8_t> TakeBytes() {
    bytes_.resize(size());
    pos_ = end_ = nullptr;
    return std::exchange(bytes_, {});
  }
  void Clear() { pos_ = bytes_.data(); }

 private:
  static constexpr size_t kMaxVarintSize = 10;

  // Makes room for `n` more bytes.
  void Reserve(size_t n) {
    if (static_cast<size_t>(end_ - pos_) < n) [[unlikely]] {
      Grow(n);
    }
  }
  // The next `n` bytes, growing the storage when they do not fit.
  uint8_t* Claim(size_t n) {
    Reserve(n);
    uint8_t* p = pos_;
    pos_ += n;
    return p;
  }
  // Out of line: a sized writer never calls it, and keeping it out of
  // every inlined write keeps the encoders small.
  void Grow(size_t n);

  template <typename T>
  void WriteLittleEndian(T v) {
    // Host is little-endian on all supported targets; memcpy keeps this
    // well-defined regardless of alignment.
    std::memcpy(Claim(sizeof(v)), &v, sizeof(v));
  }

  std::vector<uint8_t> bytes_;  // storage: written up to pos_, room up to end_
  uint8_t* pos_ = nullptr;
  uint8_t* end_ = nullptr;
};

// Bounds-checked sequential reader over a byte span. All read methods return
// DATA_LOSS when the remaining bytes are too short; this is how torn log
// tails are detected during recovery.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }

  Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU16(uint16_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }

  Status ReadVarint(uint64_t* out) {
    if (const char* error = TakeVarint(out)) {
      return DataLoss(error);
    }
    return OkStatus();
  }

  // ReadVarint without a Status, for hot decode loops: nullptr, or why not.
  const char* TakeVarint(uint64_t* out) {
    uint64_t value = 0;
    int shift = 0;
    size_t pos = pos_;
    while (true) {
      if (pos >= data_.size()) {
        return "varint truncated";
      }
      uint8_t byte = data_[pos++];
      if (shift >= 63 && (byte & ~uint8_t{1})) {
        return "varint overflow";
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // Writer emits minimal encodings only; a terminal zero group after
        // the first byte (e.g. 0x80 0x00 for 0) is a second spelling of the
        // same value. Rejecting it keeps every accepted value one-encoding
        // canonical, so decode-then-re-encode is byte-identical and a forged
        // duplicate record cannot dodge byte-level comparison or dedup.
        if (byte == 0 && shift > 0) {
          return "non-minimal varint";
        }
        break;
      }
      shift += 7;
    }
    pos_ = pos;
    *out = value;
    return nullptr;
  }

  // Varint bounded to uint32 identifiers (NodeId, RegionId). A value above
  // UINT32_MAX would silently truncate at the cast site — an accepted-but-
  // wrong record — so it is rejected here instead.
  Status ReadVarint32(uint32_t* out) {
    uint64_t wide = 0;
    RETURN_IF_ERROR(ReadVarint(&wide));
    if (wide > UINT32_MAX) {
      return DataLoss("varint exceeds 32-bit identifier");
    }
    *out = static_cast<uint32_t>(wide);
    return OkStatus();
  }

  // Returns a view into the underlying data (no copy).
  Status ReadBytes(size_t len, ByteSpan* out) {
    if (remaining() < len) {
      return DataLoss("byte range truncated");
    }
    *out = data_.subspan(pos_, len);
    pos_ += len;
    return OkStatus();
  }

  Status ReadLengthPrefixed(ByteSpan* out) {
    uint64_t len = 0;
    RETURN_IF_ERROR(ReadVarint(&len));
    return ReadBytes(len, out);
  }

  Status ReadString(std::string* out) {
    ByteSpan bytes;
    RETURN_IF_ERROR(ReadLengthPrefixed(&bytes));
    out->assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    return OkStatus();
  }

  Status Skip(size_t len) {
    if (remaining() < len) {
      return DataLoss("skip past end");
    }
    pos_ += len;
    return OkStatus();
  }

 private:
  Status ReadRaw(void* out, size_t n) {
    if (remaining() < n) {
      return DataLoss("fixed field truncated");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return OkStatus();
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

// Hex dump helper for diagnostics and test failure messages.
std::string HexDump(ByteSpan data, size_t max_bytes = 64);

}  // namespace base

#endif  // SRC_BASE_BUFFER_H_
