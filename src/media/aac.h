// AAC-LC in ADTS framing.
//
// Periscope audio is AAC at 44.1 kHz, VBR ~32 or ~64 kbps (paper §5.2).
// We write syntactically valid ADTS headers over deterministic filler
// payloads; the demuxers and the analysis pipeline parse these headers to
// recover sample rate, channel count and per-frame sizes (hence audio
// bitrate).
#pragma once

#include <cstdint>

#include "media/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::media {

struct AdtsFrameInfo {
  int sample_rate = 44100;
  int channels = 1;
  std::size_t frame_length = 0;  // including the 7-byte header
};

/// Map a sample rate to the 4-bit ADTS sampling_frequency_index.
Result<int> adts_sampling_index(int sample_rate);

/// Serialise one ADTS frame (7-byte header, no CRC) with `payload_bytes`
/// of deterministic filler, in one allocation. Throws
/// std::invalid_argument when `cfg.sample_rate` has no ADTS index: the
/// header cannot state it truthfully.
Bytes write_adts_frame(const AudioConfig& cfg, std::size_t payload_bytes,
                       std::uint64_t filler_seed);

/// Parse the header of the ADTS frame starting at data[0].
Result<AdtsFrameInfo> parse_adts_header(BytesView data);

/// An AAC encoder stub: draws VBR frame sizes around the target bitrate
/// and emits timed ADTS samples.
class AacEncoder {
 public:
  /// Throws std::invalid_argument when `cfg.sample_rate` is not one of
  /// the twelve ADTS sampling frequencies.
  AacEncoder(const AudioConfig& cfg, std::uint64_t seed);

  /// Next audio sample; PTS advances by samples_per_frame/sample_rate.
  MediaSample next_frame();

  Duration frame_duration() const {
    return seconds(static_cast<double>(cfg_.samples_per_frame) /
                   cfg_.sample_rate);
  }

 private:
  AudioConfig cfg_;
  std::uint64_t state_;
  std::uint64_t frame_index_ = 0;
};

}  // namespace psc::media
