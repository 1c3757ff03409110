#include "hls/playlist.h"

#include <cmath>
#include <cstdlib>
#include <optional>

#include "util/strings.h"

namespace psc::hls {

namespace {

/// Parse a duration attribute value. Playlists come from the network, so
/// reject anything that is not a finite, non-negative, sane number of
/// seconds — "inf", "nan" and 1e300 all parse under atof() and then blow
/// up the float->int casts in write_m3u8().
std::optional<double> parse_duration_s(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text) return std::nullopt;
  if (!std::isfinite(v) || v < 0.0 || v > kMaxSegmentDurationS) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::string write_m3u8(const MediaPlaylist& pl) {
  std::string out = "#EXTM3U\n";
  out += strf("#EXT-X-VERSION:%d\n", pl.version);
  out += strf("#EXT-X-TARGETDURATION:%d\n",
              static_cast<int>(std::ceil(to_s(pl.target_duration))));
  out += strf("#EXT-X-MEDIA-SEQUENCE:%llu\n",
              static_cast<unsigned long long>(pl.media_sequence));
  for (const SegmentRef& seg : pl.segments) {
    if (seg.discontinuity) out += "#EXT-X-DISCONTINUITY\n";
    out += strf("#EXTINF:%.3f,\n", to_s(seg.duration));
    out += seg.uri + "\n";
  }
  if (pl.ended) out += "#EXT-X-ENDLIST\n";
  return out;
}

Result<MediaPlaylist> parse_m3u8(const std::string& text) {
  MediaPlaylist pl;
  pl.target_duration = seconds(0);
  const std::vector<std::string> lines = split(text, '\n');
  if (lines.empty() || trim(lines[0]) != "#EXTM3U") {
    return make_error("m3u8", "missing #EXTM3U header");
  }
  Duration pending_duration{-1};
  bool pending_discontinuity = false;
  std::uint64_t seq = 0;
  bool seq_set = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string line{trim(lines[i])};
    if (line.empty()) continue;
    if (starts_with(line, "#EXT-X-VERSION:")) {
      const long v = std::strtol(line.c_str() + 15, nullptr, 10);
      if (v < 1 || v > 1000) {
        return make_error("m3u8", "unreasonable #EXT-X-VERSION");
      }
      pl.version = static_cast<int>(v);
    } else if (starts_with(line, "#EXT-X-TARGETDURATION:")) {
      const auto d = parse_duration_s(line.c_str() + 22);
      if (!d) return make_error("m3u8", "bad #EXT-X-TARGETDURATION value");
      pl.target_duration = seconds(*d);
    } else if (starts_with(line, "#EXT-X-MEDIA-SEQUENCE:")) {
      char* end = nullptr;
      const char* digits = line.c_str() + 22;
      const unsigned long long v = std::strtoull(digits, &end, 10);
      if (end == digits || *digits == '-') {
        return make_error("m3u8", "bad #EXT-X-MEDIA-SEQUENCE value");
      }
      pl.media_sequence = v;
      seq = pl.media_sequence;
      seq_set = true;
    } else if (starts_with(line, "#EXTINF:")) {
      const auto d = parse_duration_s(line.c_str() + 8);
      if (!d) return make_error("m3u8", "bad #EXTINF duration");
      pending_duration = seconds(*d);
    } else if (line == "#EXT-X-DISCONTINUITY") {
      pending_discontinuity = true;
    } else if (starts_with(line, "#EXT-X-ENDLIST")) {
      pl.ended = true;
    } else if (!starts_with(line, "#")) {
      if (pending_duration.count() < 0) {
        return make_error("m3u8", "segment URI without #EXTINF");
      }
      SegmentRef seg;
      seg.uri = line;
      seg.duration = pending_duration;
      seg.sequence = seq_set ? seq : pl.media_sequence;
      seg.discontinuity = pending_discontinuity;
      ++seq;
      seq_set = true;
      pl.segments.push_back(std::move(seg));
      pending_duration = seconds(-1);
      pending_discontinuity = false;
    }
  }
  return pl;
}

std::string write_master_m3u8(const std::vector<VariantRef>& variants) {
  std::string out = "#EXTM3U\n";
  for (const VariantRef& v : variants) {
    out += strf("#EXT-X-STREAM-INF:BANDWIDTH=%.0f", v.bandwidth_bps);
    if (v.width > 0 && v.height > 0) {
      out += strf(",RESOLUTION=%dx%d", v.width, v.height);
    }
    out += "\n" + v.uri + "\n";
  }
  return out;
}

Result<std::vector<VariantRef>> parse_master_m3u8(const std::string& text) {
  const std::vector<std::string> lines = split(text, '\n');
  if (lines.empty() || trim(lines[0]) != "#EXTM3U") {
    return make_error("m3u8", "missing #EXTM3U header");
  }
  std::vector<VariantRef> out;
  std::optional<VariantRef> pending;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string line{trim(lines[i])};
    if (line.empty()) continue;
    if (starts_with(line, "#EXT-X-STREAM-INF:")) {
      VariantRef v;
      for (const std::string& attr : split(line.substr(18), ',')) {
        if (starts_with(attr, "BANDWIDTH=")) {
          char* end = nullptr;
          const double bw = std::strtod(attr.c_str() + 10, &end);
          if (end == attr.c_str() + 10 || !std::isfinite(bw) || bw < 0.0 ||
              bw > 1e12) {
            return make_error("m3u8", "bad BANDWIDTH value");
          }
          v.bandwidth_bps = bw;
        } else if (starts_with(attr, "RESOLUTION=")) {
          const auto dims = split(attr.substr(11), 'x');
          if (dims.size() == 2) {
            const long w = std::strtol(dims[0].c_str(), nullptr, 10);
            const long h = std::strtol(dims[1].c_str(), nullptr, 10);
            if (w > 0 && w <= 100000 && h > 0 && h <= 100000) {
              v.width = static_cast<int>(w);
              v.height = static_cast<int>(h);
            }
          }
        }
      }
      pending = v;
    } else if (!starts_with(line, "#")) {
      if (!pending) {
        return make_error("m3u8", "variant URI without #EXT-X-STREAM-INF");
      }
      pending->uri = line;
      out.push_back(*pending);
      pending.reset();
    }
  }
  return out;
}

}  // namespace psc::hls
