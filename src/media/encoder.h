// The broadcaster-side encoder: content model -> rate control -> H.264
// access units + AAC frames, emitted in decode order with correct PTS/DTS
// reordering for B frames.
//
// Every IDR access unit carries SPS+PPS in-band (as live encoders do so
// that mid-stream joiners can sync), and an NTP-timestamp SEI is embedded
// about once per second — the hook the paper used to measure delivery
// latency end-to-end.
#pragma once

#include <deque>
#include <optional>

#include "media/aac.h"
#include "media/content.h"
#include "media/h264.h"
#include "media/rate_control.h"
#include "media/types.h"
#include "util/rng.h"

namespace psc::media {

class VideoEncoder {
 public:
  /// `broadcast_epoch_s` is the broadcaster wall-clock (NTP) time at
  /// pts=0; embedded SEI timestamps are epoch + pts.
  VideoEncoder(const VideoConfig& cfg, const ContentModelConfig& content,
               double broadcast_epoch_s, Rng rng);

  /// Encode the next source frame (decode order). Returns nullopt when the
  /// source frame was lost (capture glitch) — the PTS gap is visible
  /// downstream.
  std::optional<MediaSample> next_frame();

  const Sps& sps() const { return sps_; }
  const Pps& pps() const { return pps_; }
  const VideoConfig& config() const { return cfg_; }
  ContentClass content_class() const { return content_.content_class(); }

 private:
  FrameType frame_type_for(std::uint64_t gop_pos) const;
  MediaSample encode_one(std::uint64_t display_idx, FrameType type);

  VideoConfig cfg_;
  ContentModel content_;
  RateController rc_;
  Sps sps_;
  Pps pps_;
  Bytes param_sets_;  // Annex-B SPS + PPS, prefixed to every IDR
  Rng rng_;
  double epoch_s_;

  std::uint64_t display_idx_ = 0;  // source frame counter (display order)
  std::uint64_t dts_emitted_ = 0;  // emitted sample counter (decode order)
  std::uint64_t frame_num_ = 0;    // H.264 frame_num (references only)
  double next_sei_pts_s_ = 0.0;
  std::deque<MediaSample> pending_;  // decode-order output queue
};

/// Merges one video and one audio elementary stream into a single
/// DTS-ordered sample feed — what the RTMP origin and the HLS packager
/// consume.
class BroadcastSource {
 public:
  BroadcastSource(const VideoConfig& vcfg, const AudioConfig& acfg,
                  const ContentModelConfig& content, double broadcast_epoch_s,
                  Rng rng);

  /// Next sample in DTS order across both streams.
  MediaSample next_sample();

  const VideoEncoder& video() const { return video_; }

 private:
  void refill_video();

  VideoEncoder video_;
  AacEncoder audio_;
  std::optional<MediaSample> pending_video_;
  std::optional<MediaSample> pending_audio_;
};

}  // namespace psc::media
