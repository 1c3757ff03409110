// The HLS edge, written once for the simulated CDN edge (service::CdnEdge)
// and the real-socket gateway: one rendition's log of packaged segments
// with the time each became servable, its live and VOD playlists, lookup
// by sequence, the segment-URI scheme and the /hls/ request path split.
// The two servers differ only in their playlist leaf names.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "hls/playlist.h"
#include "hls/segmenter.h"
#include "util/units.h"

namespace psc::hls {

/// BANDWIDTH a master playlist advertises for the source rendition.
constexpr double kSourceBandwidthBps = 400e3;

/// `leaf` under rendition `rendition`: the source (0) has no prefix,
/// ladder rendition k lives under "r<k>/".
std::string rendition_uri(std::size_t rendition, std::string_view leaf);
/// "seg_<n>.ts" under rendition `rendition`.
std::string segment_uri(std::size_t rendition, std::uint64_t sequence);
/// The sequence number of a canonical "seg_<n>.ts" leaf.
std::optional<std::uint64_t> parse_segment_leaf(std::string_view leaf);

/// A request path /hls/<stream>/[r<k>/]<leaf>, split. `rendition` is k
/// (k >= 1) when the canonical prefix is present, else 0.
struct EdgePath {
  std::string_view stream;
  std::size_t rendition = 0;
  std::string_view leaf;
};
std::optional<EdgePath> split_edge_path(std::string_view path);

struct EdgeSegment {
  Segment segment;
  TimePoint available_at{};
  /// #EXT-X-DISCONTINUITY precedes this segment (its timestamps restart).
  bool discontinuity = false;
};

/// Segments are appended in sequence order with non-decreasing
/// `available_at` (each server delivers them in order), so the servable
/// ones are a prefix and a sequence number maps to an index. A deque, so
/// references handed out stay valid as segments are appended.
class EdgeLog {
 public:
  EdgeLog(std::size_t rendition, Duration target, std::size_t window)
      : rendition_(rendition), target_(target), window_(window) {}

  void append(Segment seg, TimePoint available_at);
  /// Drop the oldest segments until at most `keep` remain.
  void retain_last(std::size_t keep);
  void clear() {
    segments_.clear();
    dropped_discontinuities_ = 0;
  }

  /// The stream ended: the live playlist carries #EXT-X-ENDLIST.
  void end_stream() { ended_ = true; }
  /// The stream restarts: ENDLIST goes, and the next segment appended
  /// follows a discontinuity.
  void reopen();
  bool ended() const { return ended_; }

  /// The live playlist as served at `now`: the last `window` segments
  /// servable by then. Once a segment that follows a discontinuity has
  /// left the window, #EXT-X-DISCONTINUITY-SEQUENCE counts it (RFC 8216
  /// §6.2.2).
  MediaPlaylist live(TimePoint now) const;
  /// The replay playlist: every segment, #EXT-X-ENDLIST set.
  MediaPlaylist vod() const;
  /// Segment `sequence`, or nullptr when it is not servable at `now`.
  const EdgeSegment* find(std::uint64_t sequence, TimePoint now) const;

  std::size_t size() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }
  const EdgeSegment& operator[](std::size_t i) const { return segments_[i]; }
  auto begin() const { return segments_.begin(); }
  auto end() const { return segments_.end(); }

 private:
  MediaPlaylist render(std::size_t first, std::size_t last, bool ended) const;
  std::uint64_t first_sequence() const {
    return segments_.empty() ? 0 : segments_.front().segment.sequence;
  }

  std::size_t rendition_;
  Duration target_;
  std::size_t window_;
  std::deque<EdgeSegment> segments_;
  /// Discontinuities among the segments retain_last() dropped.
  std::uint64_t dropped_discontinuities_ = 0;
  bool ended_ = false;
  bool discontinuity_next_ = false;
};

}  // namespace psc::hls
