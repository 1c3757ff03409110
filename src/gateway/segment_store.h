// Per-stream HLS packaging state for the interop gateway.
//
// The store is the sim-side segmenter pipeline behind the HTTP listener:
// published samples (Annex-B video / ADTS audio, exactly what the
// MediaOrigin fan-out path carries) run through the same hls::Segmenter
// the deterministic campaigns use, and completed segments land in an
// arena-backed window that HTTP responses serve zero-copy.
//
// Torn-segment freedom is structural: only whole segments returned by
// Segmenter::push()/flush() are ever committed to the window — a shutdown
// mid-publish flushes the open partial segment through the same
// close_segment path, so every stored `ts_data` is a whole number of
// 188-byte TS packets and demuxes cleanly (pinned by
// GatewayLifecycle.MidPublishShutdownLeavesNoTornSegment).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "hls/edge_log.h"
#include "hls/segmenter.h"
#include "media/types.h"
#include "obs/metrics.h"
#include "util/buffer.h"
#include "util/units.h"

namespace psc::gateway {

struct SegmentStoreConfig {
  Duration segment_target = seconds(3.6);
  std::size_t playlist_window = 6;
  /// Segments retained per stream beyond the playlist window (a fetcher
  /// holding a stale playlist can still resolve recently expired URIs).
  std::size_t retain_extra = 4;
};

class SegmentStore {
 public:
  explicit SegmentStore(const SegmentStoreConfig& cfg) : cfg_(cfg) {}

  /// Arena backing segment buffers (nullptr = plain heap).
  void set_arena(util::BufferArena* arena) { arena_ = arena; }
  /// Metric sink (nullptr = off).
  void set_metrics(obs::Registry* reg);

  // --- ingest (driven by MediaOrigin stream hooks) ---
  void on_publish_start(const std::string& stream, TimePoint now);
  void on_sample(const std::string& stream, const media::MediaSample& sample,
                 TimePoint now);
  /// Publisher left (or the gateway is shutting down): flush the open
  /// partial segment and mark the playlist ENDLIST. A later publish of the
  /// same key reopens the playlist; its first segment follows an
  /// #EXT-X-DISCONTINUITY, since its timestamps restart.
  void on_publish_end(const std::string& stream, TimePoint now);
  /// Flush every live stream (graceful-shutdown path).
  void flush_all(TimePoint now);

  // --- serving ---
  struct Stream {
    hls::Segmenter segmenter;
    hls::EdgeLog segments;
    /// When the current publish started, until it commits a segment.
    std::optional<TimePoint> awaiting_first_segment;

    Stream(Duration target, std::size_t window)
        : segmenter(target), segments(0, target, window) {}
  };

  const Stream* find_stream(std::string_view stream) const;
  const std::map<std::string, Stream, std::less<>>& streams() const {
    return streams_;
  }

  std::uint64_t segments_stored() const { return segments_stored_; }

 private:
  void commit(Stream& st, hls::Segment seg, TimePoint now);

  SegmentStoreConfig cfg_;
  util::BufferArena* arena_ = nullptr;
  std::map<std::string, Stream, std::less<>> streams_;
  std::uint64_t segments_stored_ = 0;
  obs::Counter* segments_total_ = nullptr;
  obs::Counter* publishes_total_ = nullptr;
  obs::Histogram* first_segment_latency_ = nullptr;
  obs::Histogram* segment_duration_ = nullptr;
};

}  // namespace psc::gateway
