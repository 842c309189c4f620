#include "src/base/buffer.h"

#include <algorithm>
#include <cstdio>

namespace base {

void Writer::Grow(size_t n) {
  const size_t used = size();
  bytes_.resize(std::max({bytes_.size() * 2, used + n, size_t{64}}));
  pos_ = bytes_.data() + used;
  end_ = bytes_.data() + bytes_.size();
}

std::string HexDump(ByteSpan data, size_t max_bytes) {
  std::string out;
  size_t n = data.size() < max_bytes ? data.size() : max_bytes;
  char tmp[4];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(tmp, sizeof(tmp), "%02x ", data[i]);
    out += tmp;
  }
  if (n < data.size()) {
    out += "...";
  }
  return out;
}

}  // namespace base
