// Bit-granular I/O with Exp-Golomb coding, as used by H.264 RBSP syntax
// (SPS/PPS/slice headers) and by ADTS header fields.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"

namespace psc {

/// MSB-first bit writer. `rbsp_trailing_bits()` byte-aligns with the H.264
/// stop bit pattern. The first kInlineBytes bytes live inside the object,
/// so the parameter-set and slice headers the encoder writes every frame
/// never touch the heap; longer streams spill to a vector.
class BitWriter {
 public:
  void bit(bool b) {
    cur_ = static_cast<std::uint8_t>((cur_ << 1) | (b ? 1 : 0));
    if (++nbits_ == 8) flush_byte();
  }

  void bits(std::uint32_t value, int count);

  /// Unsigned Exp-Golomb (H.264 ue(v)).
  void ue(std::uint32_t value);

  /// Signed Exp-Golomb (H.264 se(v)).
  void se(std::int32_t value);

  /// H.264 rbsp_trailing_bits(): a 1 bit then 0 bits to byte alignment.
  void rbsp_trailing_bits() {
    bit(true);
    while (nbits_ != 0) bit(false);
  }

  bool byte_aligned() const { return nbits_ == 0; }
  /// The whole bytes written so far (a partial last byte is not
  /// included). Valid until the next write.
  BytesView view() const {
    return size_ <= kInlineBytes ? BytesView(inline_.data(), size_)
                                 : BytesView(spill_);
  }
  /// Pads to byte alignment with zeros and returns the bytes.
  Bytes take();

 private:
  static constexpr std::size_t kInlineBytes = 32;

  void flush_byte() {
    if (size_ < kInlineBytes) {
      inline_[size_] = cur_;
    } else {
      if (size_ == kInlineBytes) spill_.assign(inline_.begin(), inline_.end());
      spill_.push_back(cur_);
    }
    ++size_;
    cur_ = 0;
    nbits_ = 0;
  }

  std::array<std::uint8_t, kInlineBytes> inline_{};
  Bytes spill_;
  std::size_t size_ = 0;
  std::uint8_t cur_ = 0;
  int nbits_ = 0;
};

/// MSB-first bit reader over a byte view; bounds-checked.
class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  Result<bool> bit();
  Result<std::uint32_t> bits(int count);
  Result<std::uint32_t> ue();
  Result<std::int32_t> se();

  std::size_t bits_consumed() const { return pos_; }
  std::size_t bits_remaining() const { return data_.size() * 8 - pos_; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;  // in bits
};

}  // namespace psc
