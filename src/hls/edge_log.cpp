#include "hls/edge_log.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <utility>

namespace psc::hls {

namespace {

/// A run of decimal digits spanning all of `text`, without overflow.
std::optional<std::uint64_t> parse_digits(std::string_view text) {
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

}  // namespace

std::string rendition_uri(std::size_t rendition, std::string_view leaf) {
  std::string out;
  if (rendition != 0) out = "r" + std::to_string(rendition) + "/";
  out += leaf;
  return out;
}

std::string segment_uri(std::size_t rendition, std::uint64_t sequence) {
  return rendition_uri(rendition, "seg_" + std::to_string(sequence) + ".ts");
}

std::optional<std::uint64_t> parse_segment_leaf(std::string_view leaf) {
  if (!leaf.starts_with("seg_") || !leaf.ends_with(".ts")) {
    return std::nullopt;
  }
  const std::string_view digits = leaf.substr(4, leaf.size() - 7);
  // Canonical only: "seg_05.ts" names no segment.
  if (digits.size() > 1 && digits[0] == '0') return std::nullopt;
  return parse_digits(digits);
}

std::optional<EdgePath> split_edge_path(std::string_view path) {
  constexpr std::string_view kPrefix = "/hls/";
  if (!path.starts_with(kPrefix)) return std::nullopt;
  path.remove_prefix(kPrefix.size());
  const std::size_t slash = path.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  EdgePath out{path.substr(0, slash), 0, path.substr(slash + 1)};
  const std::size_t rs = out.leaf.find('/');
  if (out.leaf.starts_with('r') && rs != std::string_view::npos) {
    const auto k = parse_digits(out.leaf.substr(1, rs - 1));
    if (k && *k >= 1) {
      out.rendition = *k;
      out.leaf.remove_prefix(rs + 1);
    }
  }
  return out;
}

void EdgeLog::append(Segment seg, TimePoint available_at) {
  assert(segments_.empty() ||
         (seg.sequence == segments_.back().segment.sequence + 1 &&
          available_at >= segments_.back().available_at));
  segments_.push_back(EdgeSegment{std::move(seg), available_at,
                                  std::exchange(discontinuity_next_, false)});
}

void EdgeLog::retain_last(std::size_t keep) {
  while (segments_.size() > keep) {
    if (segments_.front().discontinuity) ++dropped_discontinuities_;
    segments_.pop_front();
  }
}

void EdgeLog::reopen() {
  ended_ = false;
  discontinuity_next_ = !segments_.empty();
}

MediaPlaylist EdgeLog::live(TimePoint now) const {
  std::size_t servable = segments_.size();
  while (servable > 0 && segments_[servable - 1].available_at > now) {
    --servable;
  }
  return render(servable - std::min(servable, window_), servable, ended_);
}

MediaPlaylist EdgeLog::vod() const {
  return render(0, segments_.size(), /*ended=*/true);
}

MediaPlaylist EdgeLog::render(std::size_t first, std::size_t last,
                              bool ended) const {
  MediaPlaylist pl;
  pl.target_duration = target_;
  pl.ended = ended;
  pl.media_sequence = first_sequence() + first;
  pl.discontinuity_sequence = dropped_discontinuities_;
  for (std::size_t i = 0; i < first; ++i) {
    if (segments_[i].discontinuity) ++pl.discontinuity_sequence;
  }
  pl.segments.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) {
    const EdgeSegment& es = segments_[i];
    pl.segments.push_back(SegmentRef{
        segment_uri(rendition_, es.segment.sequence), es.segment.duration,
        es.segment.sequence, es.discontinuity});
  }
  return pl;
}

const EdgeSegment* EdgeLog::find(std::uint64_t sequence,
                                 TimePoint now) const {
  if (sequence < first_sequence() ||
      sequence - first_sequence() >= segments_.size()) {
    return nullptr;
  }
  const EdgeSegment& es = segments_[sequence - first_sequence()];
  return es.available_at <= now ? &es : nullptr;
}

}  // namespace psc::hls
