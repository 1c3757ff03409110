#include "util/bitio.h"

namespace psc {

void BitWriter::bits(std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) {
    bit(((value >> i) & 1u) != 0);
  }
}

void BitWriter::ue(std::uint32_t value) {
  // codeNum = value; written as (leadingZeroBits) zeros, 1, then the
  // leadingZeroBits-wide remainder of (value + 1).
  std::uint64_t code = std::uint64_t{value} + 1;
  int len = 0;
  for (std::uint64_t v = code; v > 1; v >>= 1) ++len;
  for (int i = 0; i < len; ++i) bit(false);
  bit(true);
  for (int i = len - 1; i >= 0; --i) bit(((code >> i) & 1u) != 0);
}

void BitWriter::se(std::int32_t value) {
  // H.264 9.1.1 mapping: v>0 -> 2v-1, v<=0 -> -2v.
  std::uint32_t mapped =
      value > 0 ? static_cast<std::uint32_t>(2 * value - 1)
                : static_cast<std::uint32_t>(-2 * static_cast<std::int64_t>(value));
  ue(mapped);
}

Bytes BitWriter::take() {
  while (nbits_ != 0) bit(false);
  const BytesView v = view();
  return Bytes(v.begin(), v.end());
}

Result<bool> BitReader::bit() {
  if (pos_ >= data_.size() * 8) {
    return make_error("truncated", "bit read past end");
  }
  const std::uint8_t byte = data_[pos_ / 8];
  const bool b = ((byte >> (7 - pos_ % 8)) & 1u) != 0;
  ++pos_;
  return b;
}

Result<std::uint32_t> BitReader::bits(int count) {
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i) {
    auto b = bit();
    if (!b) return b.error();
    v = (v << 1) | (b.value() ? 1u : 0u);
  }
  return v;
}

Result<std::uint32_t> BitReader::ue() {
  int zeros = 0;
  for (;;) {
    auto b = bit();
    if (!b) return b.error();
    if (b.value()) break;
    if (++zeros > 31) {
      return make_error("malformed", "exp-golomb prefix too long");
    }
  }
  auto rest = bits(zeros);
  if (!rest) return rest.error();
  return (1u << zeros) - 1 + rest.value();
}

Result<std::int32_t> BitReader::se() {
  auto u = ue();
  if (!u) return u.error();
  const std::uint32_t k = u.value();
  // Inverse of the se(v) mapping.
  if (k % 2 == 1) return static_cast<std::int32_t>((k + 1) / 2);
  return -static_cast<std::int32_t>(k / 2);
}

}  // namespace psc
