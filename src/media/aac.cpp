#include "media/aac.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace psc::media {

namespace {
// ADTS sampling frequency table (ISO/IEC 14496-3).
constexpr int kSampleRates[] = {96000, 88200, 64000, 48000, 44100, 32000,
                                24000, 22050, 16000, 12000, 11025, 8000};
constexpr std::size_t kAdtsHeaderSize = 7;
}  // namespace

Result<int> adts_sampling_index(int sample_rate) {
  for (std::size_t i = 0; i < std::size(kSampleRates); ++i) {
    if (kSampleRates[i] == sample_rate) return static_cast<int>(i);
  }
  return make_error("unsupported", "no ADTS index for this sample rate");
}

Bytes write_adts_frame(const AudioConfig& cfg, std::size_t payload_bytes,
                       std::uint64_t filler_seed) {
  const auto sf_index = adts_sampling_index(cfg.sample_rate);
  if (!sf_index) {
    throw std::invalid_argument("ADTS has no index for sample rate " +
                                std::to_string(cfg.sample_rate));
  }
  const std::size_t frame_len = kAdtsHeaderSize + payload_bytes;
  Bytes out(frame_len);
  // Header: syncword(12) ID(1)=0 layer(2)=0 protection_absent(1)=1
  out[0] = 0xFF;
  out[1] = 0xF1;
  // profile(2)=01 (AAC-LC), sf_index(4), private(1)=0, channel_cfg(3) hi bit
  const int channel_cfg = cfg.channels;
  out[2] = static_cast<std::uint8_t>((1 << 6) | (sf_index.value() << 2) |
                                     ((channel_cfg >> 2) & 0x1));
  // channel_cfg lo 2 bits, orig/copy, home, copyright id bit/start,
  // frame_length hi 2 bits
  out[3] = static_cast<std::uint8_t>(((channel_cfg & 0x3) << 6) |
                                     ((frame_len >> 11) & 0x3));
  out[4] = static_cast<std::uint8_t>((frame_len >> 3) & 0xFF);
  // frame_length lo 3 bits + buffer fullness hi 5 bits (0x7FF = VBR)
  out[5] = static_cast<std::uint8_t>(((frame_len & 0x7) << 5) | 0x1F);
  // buffer fullness lo 6 bits + number_of_raw_data_blocks(2)=0
  out[6] = 0xFC;

  // Same 4-step LCG jump as the video slice filler (media/h264.cpp):
  // state_{n+k} = A^k * state_n + C_k breaks the serial multiply chain;
  // the byte stream is identical to the one-step loop.
  constexpr std::uint64_t kA = 6364136223846793005ull;
  constexpr std::uint64_t kC = 1442695040888963407ull;
  constexpr std::uint64_t kA2 = kA * kA;
  constexpr std::uint64_t kC2 = kA * kC + kC;
  constexpr std::uint64_t kA3 = kA2 * kA;
  constexpr std::uint64_t kC3 = kA * kC2 + kC;
  constexpr std::uint64_t kA4 = kA3 * kA;
  constexpr std::uint64_t kC4 = kA * kC3 + kC;
  std::uint64_t state = filler_seed * 0x9E3779B97F4A7C15ull + 0xA5;
  std::uint8_t* p = out.data() + kAdtsHeaderSize;
  std::uint8_t* const pe = out.data() + out.size();
  for (; pe - p >= 4; p += 4) {
    const std::uint64_t s1 = state * kA + kC;
    const std::uint64_t s2 = state * kA2 + kC2;
    const std::uint64_t s3 = state * kA3 + kC3;
    const std::uint64_t s4 = state * kA4 + kC4;
    p[0] = static_cast<std::uint8_t>(s1 >> 33);
    p[1] = static_cast<std::uint8_t>(s2 >> 33);
    p[2] = static_cast<std::uint8_t>(s3 >> 33);
    p[3] = static_cast<std::uint8_t>(s4 >> 33);
    state = s4;
  }
  while (p != pe) {
    state = state * kA + kC;
    *p++ = static_cast<std::uint8_t>(state >> 33);
  }
  return out;
}

Result<AdtsFrameInfo> parse_adts_header(BytesView data) {
  if (data.size() < kAdtsHeaderSize) {
    return make_error("truncated", "ADTS header needs 7 bytes");
  }
  if (data[0] != 0xFF || (data[1] & 0xF0) != 0xF0) {
    return make_error("malformed", "bad ADTS syncword");
  }
  AdtsFrameInfo info;
  const int sf_index = (data[2] >> 2) & 0xF;
  if (sf_index >= static_cast<int>(std::size(kSampleRates))) {
    return make_error("malformed", "reserved ADTS sampling index");
  }
  info.sample_rate = kSampleRates[sf_index];
  info.channels = ((data[2] & 0x1) << 2) | ((data[3] >> 6) & 0x3);
  info.frame_length = static_cast<std::size_t>((data[3] & 0x3) << 11 |
                                               data[4] << 3 | data[5] >> 5);
  if (info.frame_length < kAdtsHeaderSize) {
    return make_error("malformed", "ADTS frame_length smaller than header");
  }
  return info;
}

AacEncoder::AacEncoder(const AudioConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), state_(seed) {
  if (!adts_sampling_index(cfg.sample_rate)) {
    throw std::invalid_argument("AAC encoder: ADTS has no index for sample "
                                "rate " + std::to_string(cfg.sample_rate));
  }
}

MediaSample AacEncoder::next_frame() {
  // VBR: frame sizes fluctuate ~±30% around the mean implied by the
  // target bitrate.
  const double frames_per_s =
      static_cast<double>(cfg_.sample_rate) / cfg_.samples_per_frame;
  const double mean_payload =
      cfg_.target_bitrate / 8.0 / frames_per_s - 7.0;
  state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
  const double u =
      static_cast<double>(state_ >> 11) / 9007199254740992.0;  // [0,1)
  const double scale = 0.7 + 0.6 * u;
  const auto payload = static_cast<std::size_t>(
      std::max(8.0, std::round(mean_payload * scale)));

  MediaSample s;
  s.kind = SampleKind::Audio;
  s.pts = seconds(static_cast<double>(frame_index_) / frames_per_s);
  s.dts = s.pts;
  s.keyframe = true;
  s.data = write_adts_frame(cfg_, payload, state_);
  ++frame_index_;
  return s;
}

}  // namespace psc::media
