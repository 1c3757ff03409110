// HLS playlists (M3U8): media and master playlist writers and parsers.
// The live window an edge serves is hls::EdgeLog (edge_log.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/units.h"

namespace psc::hls {

struct SegmentRef {
  std::string uri;
  Duration duration{0};
  std::uint64_t sequence = 0;
  /// #EXT-X-DISCONTINUITY precedes this segment (encoder restart / splice).
  bool discontinuity = false;
};

/// Upper bound accepted for EXTINF / TARGETDURATION values. Real segments
/// are seconds long; rejecting anything past a day keeps hostile values
/// (1e300, inf, nan) out of downstream float->int casts.
constexpr double kMaxSegmentDurationS = 86400.0;

struct MediaPlaylist {
  int version = 3;
  Duration target_duration{4};
  std::uint64_t media_sequence = 0;
  /// #EXT-X-DISCONTINUITY-SEQUENCE: discontinuities that precede the first
  /// segment listed (RFC 8216 §4.3.3.3). Written only when non-zero.
  std::uint64_t discontinuity_sequence = 0;
  bool ended = false;  // #EXT-X-ENDLIST present
  std::vector<SegmentRef> segments;
};

std::string write_m3u8(const MediaPlaylist& pl);
Result<MediaPlaylist> parse_m3u8(const std::string& text);

/// One rendition in a master playlist (#EXT-X-STREAM-INF).
struct VariantRef {
  std::string uri;             // media playlist URI
  double bandwidth_bps = 0;    // BANDWIDTH attribute
  int width = 0, height = 0;   // RESOLUTION attribute (0 = omitted)
};

std::string write_master_m3u8(const std::vector<VariantRef>& variants);
Result<std::vector<VariantRef>> parse_master_m3u8(const std::string& text);

}  // namespace psc::hls
