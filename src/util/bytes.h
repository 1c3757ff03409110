// Bounds-checked byte-order-aware readers and writers.
//
// All multi-byte integers on the wire in this codebase (RTMP, FLV, MPEG-TS,
// ADTS) are big-endian unless a function says otherwise (AMF0 doubles are
// IEEE-754 big-endian as well).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace psc {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Appends big-endian encoded fields to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Start from an existing (cleared) buffer — lets arena-pooled storage
  /// back the writer so refilling it allocates nothing.
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16be(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u24be(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32be(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32le(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  }
  void u64be(std::uint64_t v) {
    u32be(static_cast<std::uint32_t>(v >> 32));
    u32be(static_cast<std::uint32_t>(v));
  }
  void f64be(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64be(bits);
  }
  void raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void raw(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void fill(std::size_t n, std::uint8_t v) { buf_.insert(buf_.end(), n, v); }

  /// Make room for `n` more bytes so the appends that follow do not
  /// reallocate. Grows at least geometrically: reserving exactly
  /// size()+n before every append would reallocate on every call.
  void reserve_more(std::size_t n) {
    if (buf_.capacity() - buf_.size() < n) {
      buf_.reserve(std::max(buf_.size() + n, 2 * buf_.capacity()));
    }
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity — for scratch writers that
  /// are refilled on a hot path.
  void clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

/// Reads big-endian fields from a non-owning view; every accessor is
/// bounds-checked and reports truncation as an Error.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return truncation("u8");
    return data_[pos_++];
  }
  Result<std::uint16_t> u16be() {
    if (remaining() < 2) return truncation("u16be");
    std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u24be() {
    if (remaining() < 3) return truncation("u24be");
    std::uint32_t v = (std::uint32_t{data_[pos_]} << 16) |
                      (std::uint32_t{data_[pos_ + 1]} << 8) |
                      data_[pos_ + 2];
    pos_ += 3;
    return v;
  }
  Result<std::uint32_t> u32be() {
    if (remaining() < 4) return truncation("u32be");
    std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                      (std::uint32_t{data_[pos_ + 1]} << 16) |
                      (std::uint32_t{data_[pos_ + 2]} << 8) |
                      data_[pos_ + 3];
    pos_ += 4;
    return v;
  }
  Result<std::uint32_t> u32le() {
    if (remaining() < 4) return truncation("u32le");
    std::uint32_t v = std::uint32_t{data_[pos_]} |
                      (std::uint32_t{data_[pos_ + 1]} << 8) |
                      (std::uint32_t{data_[pos_ + 2]} << 16) |
                      (std::uint32_t{data_[pos_ + 3]} << 24);
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> u64be() {
    auto hi = u32be();
    if (!hi) return hi.error();
    auto lo = u32be();
    if (!lo) return lo.error();
    return (std::uint64_t{hi.value()} << 32) | lo.value();
  }
  Result<double> f64be() {
    auto bits = u64be();
    if (!bits) return bits.error();
    double v;
    std::uint64_t b = bits.value();
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }
  Result<BytesView> view(std::size_t n) {
    if (remaining() < n) return truncation("view");
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  Result<Bytes> bytes(std::size_t n) {
    auto v = view(n);
    if (!v) return v.error();
    return Bytes(v.value().begin(), v.value().end());
  }
  Result<std::string> string(std::size_t n) {
    auto v = view(n);
    if (!v) return v.error();
    return to_string(v.value());
  }
  Status skip(std::size_t n) {
    if (remaining() < n) {
      return Error{"truncated", "skip past end of buffer"};
    }
    pos_ += n;
    return {};
  }

 private:
  Error truncation(const char* what) const {
    return make_error("truncated",
                      std::string("not enough bytes for ") + what);
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace psc
