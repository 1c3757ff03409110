// The live media pipeline of one broadcast:
//
//   phone encoder --uplink link--> RTMP origin (EC2)
//                                   |--> push to RTMP viewers (no delay)
//                                   '--> segmenter -> packaging delay
//                                         -> CDN transfer -> HLS edge
//
// The origin keeps the last three GOPs so a joining RTMP viewer receives
// an immediately decodable burst (this is what makes RTMP join fast).
// HLS viewers fetch segments from the edge; a segment only exists once
// it has been cut (target 3.6 s), transcoded/packaged and shipped to the
// CDN — the structural source of the 5 s+ delivery latency the paper
// measured for HLS.
//
// Segment lifetimes: a segment is cut when a keyframe closes it, lives in
// the packaging-delay event and then on the CDN link, and lands in its
// rendition's edge log. The log keeps its bytes only while a viewer can
// still fetch them. HLS viewers attach to the pipeline as consumers
// (attach_consumer(), as RTMP viewers attach to the origin), each with a
// low-water mark: the lowest sequence it may still request. A segment's
// TS bytes go back to the arena once its sequence is below every
// consumer's mark and it has left the live window, in every rendition —
// the window condition keeps it for a live viewer that has yet to join.
// Its metadata stays, so both playlists are unchanged; a GET for it
// throws std::logic_error. With no consumer attached (a replay recorded
// for later, the tests' bare pipelines) nothing is evicted. Each evicted
// byte counts in `pipeline_segment_bytes_evicted_total`.
//
// The HLS half is released (release_hls()) as soon as it cannot be
// fetched: when the session's viewer plays RTMP — in the paper, Periscope
// put a broadcast on the HLS/CDN path only past ~100 viewers — and at
// retirement. After that the open segment and the edge logs are gone,
// samples stop at the origin, and a segment still in flight is dropped
// where it lands.
//
// Broadcaster-side impairments: the uplink has throughput noise plus
// occasional multi-second "hiccups" (rate collapse), which surface as
// viewer-side stalls even on unconstrained access links — the paper saw
// such stalls in the unlimited-bandwidth dataset.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hls/edge_log.h"
#include "hls/segmenter.h"
#include "media/encoder.h"
#include "media/transcode.h"
#include "net/link.h"
#include "obs/bundle.h"
#include "service/broadcast.h"
#include "service/origin_server.h"
#include "sim/simulation.h"

namespace psc::service {

/// One lower-quality rendition of the transcode ladder.
struct RenditionSpec {
  std::string name;
  media::TranscodeProfile profile;
  /// BANDWIDTH advertised in the master playlist.
  double nominal_bandwidth_bps = 200e3;
};

struct PipelineConfig {
  Duration encode_latency = millis(80);
  Duration uplink_latency = millis(40);
  Duration origin_to_cdn_latency = millis(30);
  BitRate origin_to_cdn_rate = 1e9;
  Duration packaging_delay = millis(1200);  // transcode + repackage
  Duration segment_target = seconds(3.6);
  std::size_t playlist_window = 6;
  /// Uplink hiccups: mean time between events and duration range.
  double hiccup_rate_per_min = 0.5;
  Duration hiccup_min = seconds(2);
  Duration hiccup_max = seconds(6);
  /// Lower renditions produced by the packager in addition to the source
  /// ("possibly while transcoding it to multiple qualities", §5.1).
  /// Empty = single-quality HLS, which is what the paper observed.
  std::vector<RenditionSpec> transcode_ladder;
  /// Arena backing the packaged segments (nullptr = plain heap). Owned by
  /// the caller (Study owns one per campaign shard) and must outlive the
  /// pipeline and every capture/response still holding a segment slice.
  util::BufferArena* arena = nullptr;
};

class LiveBroadcastPipeline {
 public:
  LiveBroadcastPipeline(sim::Simulation& sim, const BroadcastInfo& info,
                        const PipelineConfig& cfg);

  /// Start producing at the current sim time; production stops when
  /// stop() is called or `run_for` elapses.
  void start(Duration run_for);
  void stop() { running_ = false; }

  /// Stop and free bulk buffers. The object must stay alive until the
  /// simulation has drained all events that may still reference it
  /// (Study keeps retired pipelines for exactly that reason); after
  /// retire() those events are no-ops.
  void retire() {
    running_ = false;
    origin_.clear();
    release_hls();
  }

  /// Stop packaging HLS for good: every rendition's open segment and edge
  /// log are discarded, later samples stop at the origin, and a segment
  /// still in packaging or on the CDN link is dropped when it lands. A
  /// session whose viewer plays RTMP calls this once accessVideo answers,
  /// since nobody fetches its edge. Idempotent; the RTMP side is untouched.
  void release_hls();

  /// --- RTMP side ---
  /// The origin's stream: RTMP viewers attach to it for the join burst
  /// (the source's AVC config, then its GOP backlog) and live samples.
  OriginStream& origin() { return origin_; }

  /// --- HLS side ---
  /// Number of renditions (1 = source only; ladder adds more).
  std::size_t rendition_count() const { return renditions_.size(); }
  /// Rendition `r` on the CDN edge: the segments that have landed there,
  /// its live and replay (VOD) playlists. Replays are served from the same
  /// CDN edges — which is why the paper measured replay power == live power.
  const hls::EdgeLog& edge_log(std::size_t r = 0) const {
    return renditions_[r].edge;
  }
  /// The master playlist listing every rendition.
  std::string master_playlist() const;

  /// --- HLS consumers ---
  /// The low-water mark of a live viewer that has not read a playlist
  /// yet: the live window's first sequence, wherever the window is when
  /// a segment is considered. A replay viewer starts at 0.
  static constexpr std::uint64_t kLiveWindow = UINT64_MAX;
  /// Register a viewer that may request any sequence from `low_water` on.
  /// Returns a non-zero token. Throws std::logic_error when a segment it
  /// may request was already evicted.
  int attach_consumer(std::uint64_t low_water);
  /// Move consumer `token`'s mark (to a sequence not yet evicted) and
  /// evict what no consumer can fetch any more.
  void advance_consumer(int token, std::uint64_t low_water);
  /// The viewer is done. Once the last consumer detaches, nothing more is
  /// evicted.
  void detach_consumer(int token);

  /// Broadcaster NTP epoch (wall-clock at pts 0).
  double epoch_s() const { return epoch_s_; }

  const BroadcastInfo& info() const { return info_; }

  std::uint64_t samples_produced() const { return samples_produced_; }

  /// Attach a metric/trace sink (nullptr = off): per-segment counter and
  /// a cut-to-edge delivery-latency histogram — the packaging + CDN
  /// transfer path that dominates HLS end-to-end delay (Fig. 5).
  void set_obs(obs::Obs* obs);

  /// Earliest simulation time at which no scheduled event can still
  /// reference this object (hiccup chains are bounded by stop_at, link
  /// deliveries by their busy horizons) — destroying it after this point
  /// is safe.
  TimePoint safe_destroy_at() const {
    TimePoint t = stop_at_;
    t = std::max(t, uplink_.busy_until());
    t = std::max(t, cdn_link_.busy_until());
    return t + cfg_.packaging_delay + cfg_.hiccup_max + seconds(10);
  }

 private:
  void produce_next();
  void on_sample_at_origin(TimePoint now, media::MediaSample sample);
  void schedule_hiccup();
  /// Evict, in every rendition, the segments below every consumer's mark
  /// that have left the live window.
  void evict_unreachable();

  struct RenditionState {
    RenditionSpec spec;
    hls::Segmenter segmenter;
    hls::EdgeLog edge;
  };

  sim::Simulation& sim_;
  BroadcastInfo info_;
  PipelineConfig cfg_;
  Rng rng_;
  double epoch_s_ = 0;
  media::BroadcastSource source_;
  net::Link uplink_;
  net::Link cdn_link_;

  bool running_ = false;
  bool hls_released_ = false;
  TimePoint stop_at_{};
  OriginStream origin_;
  std::vector<RenditionState> renditions_;
  std::map<int, std::uint64_t> consumers_;  // token -> low-water mark
  int next_consumer_ = 0;
  std::uint64_t samples_produced_ = 0;
  obs::Obs* obs_ = nullptr;
  obs::Counter* segments_shipped_ = nullptr;
  obs::Counter* hls_released_total_ = nullptr;
  obs::Counter* bytes_evicted_ = nullptr;
  obs::Histogram* segment_delivery_ = nullptr;
};

/// Builds the encoder configs implied by a BroadcastInfo.
media::VideoConfig video_config_for(const BroadcastInfo& info);
media::AudioConfig audio_config_for(const BroadcastInfo& info);
media::ContentModelConfig content_config_for(const BroadcastInfo& info);

}  // namespace psc::service
