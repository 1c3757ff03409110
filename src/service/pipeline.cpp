#include "service/pipeline.h"

#include <algorithm>

#include "media/transcode.h"

#include "util/strings.h"

namespace psc::service {

media::VideoConfig video_config_for(const BroadcastInfo& info) {
  media::VideoConfig v;
  if (info.portrait) {
    v.width = 320;
    v.height = 568;
  } else {
    v.width = 568;
    v.height = 320;
  }
  v.fps = 30.0;
  v.target_bitrate = info.video_bitrate;
  v.gop = info.gop;
  v.gop_length = 36;
  v.frame_loss_prob = info.frame_loss_prob;
  return v;
}

media::AudioConfig audio_config_for(const BroadcastInfo& info) {
  media::AudioConfig a;
  a.target_bitrate = info.audio_bitrate;
  return a;
}

media::ContentModelConfig content_config_for(const BroadcastInfo& info) {
  media::ContentModelConfig c;
  c.content_class = info.content;
  return c;
}

LiveBroadcastPipeline::LiveBroadcastPipeline(sim::Simulation& sim,
                                             const BroadcastInfo& info,
                                             const PipelineConfig& cfg)
    : sim_(sim),
      info_(info),
      cfg_(cfg),
      rng_(info.seed),
      epoch_s_(to_s(sim.now())),
      source_(video_config_for(info), audio_config_for(info),
              content_config_for(info), to_s(sim.now()), Rng(info.seed)),
      uplink_(sim, info.uplink_bitrate, cfg.uplink_latency),
      cdn_link_(sim, cfg.origin_to_cdn_rate, cfg.origin_to_cdn_latency) {
  uplink_.set_noise(rng_.fork(3), seconds(2), 0.75, 1.1);
  origin_.set_config({source_.video().sps(), source_.video().pps()});
  // Rendition 0 is always the untouched source; the ladder follows.
  const auto add_rendition = [this](RenditionSpec spec) {
    const std::size_t r = renditions_.size();
    renditions_.push_back(RenditionState{
        std::move(spec), hls::Segmenter(cfg_.segment_target),
        hls::EdgeLog(r, cfg_.segment_target, cfg_.playlist_window)});
    renditions_.back().segmenter.set_arena(cfg_.arena);
  };
  add_rendition(RenditionSpec{"source", {}, hls::kSourceBandwidthBps});
  for (const RenditionSpec& spec : cfg_.transcode_ladder) add_rendition(spec);
}

void LiveBroadcastPipeline::set_obs(obs::Obs* obs) {
  obs_ = obs;
  if (obs == nullptr) {
    segments_shipped_ = nullptr;
    segment_delivery_ = nullptr;
    hls_released_total_ = nullptr;
    return;
  }
  segments_shipped_ = &obs->metrics.counter("pipeline_segments_total");
  segment_delivery_ = &obs->metrics.histogram("pipeline_segment_delivery_s");
  hls_released_total_ = &obs->metrics.counter("pipeline_hls_released_total");
}

void LiveBroadcastPipeline::release_hls() {
  if (hls_released_) return;
  hls_released_ = true;
  // Counted only while producing: a retirement is not an RTMP viewer.
  if (running_ && hls_released_total_ != nullptr) hls_released_total_->add(1);
  for (auto& r : renditions_) {
    r.edge.clear();
    r.segmenter.discard();  // the open partial segment's buffer
  }
}

void LiveBroadcastPipeline::start(Duration run_for) {
  running_ = true;
  stop_at_ = sim_.now() + run_for;
  produce_next();
  schedule_hiccup();
}

void LiveBroadcastPipeline::schedule_hiccup() {
  if (cfg_.hiccup_rate_per_min <= 0) return;
  const Duration gap =
      seconds(rng_.exponential(cfg_.hiccup_rate_per_min / 60.0));
  // A hiccup after production ends is pointless — and not scheduling it
  // bounds this object's event horizon (see safe_destroy_at()).
  if (sim_.now() + gap >= stop_at_) return;
  sim_.schedule_after(gap, [this] {
    if (!running_ || sim_.now() >= stop_at_) return;
    const BitRate normal = info_.uplink_bitrate;
    const Duration dur = seconds(
        rng_.uniform(to_s(cfg_.hiccup_min), to_s(cfg_.hiccup_max)));
    uplink_.set_rate(normal * 0.05);
    sim_.schedule_after(dur, [this, normal] { uplink_.set_rate(normal); });
    schedule_hiccup();
  });
}

void LiveBroadcastPipeline::produce_next() {
  if (!running_ || sim_.now() >= stop_at_) return;
  media::MediaSample sample = source_.next_sample();
  ++samples_produced_;

  // The sample finishes encoding at epoch + dts + encode latency; ship it
  // up the broadcaster link then.
  const TimePoint ready =
      time_at(epoch_s_) + sample.dts + cfg_.encode_latency;
  const Duration next_gap = ready <= sim_.now() ? Duration{0}
                                                : ready - sim_.now();
  sim_.schedule_after(next_gap, [this, sample = std::move(sample)]() mutable {
    if (!running_) return;
    // Model the upload cost with the sample's own size (pacing-only
    // send); metadata rides along in the closure rather than being
    // re-parsed at the origin.
    const std::size_t wire_size = sample.data.size();
    uplink_.send(wire_size,
                 [this, sample = std::move(sample)](
                     TimePoint t, util::BufferSlice /*data*/) mutable {
                   on_sample_at_origin(t, std::move(sample));
                 });
    produce_next();
  });
}

void LiveBroadcastPipeline::on_sample_at_origin(TimePoint now,
                                                media::MediaSample sample) {
  if (!running_) return;  // retired: in-flight uplink deliveries are no-ops
  // RTMP: backlog and fan-out. The HLS packager reads the origin's copy;
  // fan-out never retires the pipeline (retirement is a scheduled event).
  const media::MediaSample& out = origin_.push(std::move(sample));
  if (hls_released_) return;

  // HLS: segment each rendition, package, ship to the edge. Ladder
  // renditions run the sample through the transcoder first.
  for (std::size_t r = 0; r < renditions_.size(); ++r) {
    std::optional<hls::Segment> completed;
    if (r == 0) {
      completed = renditions_[r].segmenter.push(out);
    } else {
      auto transcoded =
          media::transcode_sample(out, renditions_[r].spec.profile);
      if (!transcoded) continue;
      completed = renditions_[r].segmenter.push(transcoded.value());
    }
    if (!completed) continue;
    hls::Segment seg = std::move(*completed);
    const TimePoint cut = now;
    sim_.schedule_after(
        cfg_.packaging_delay, [this, r, cut, seg = std::move(seg)]() mutable {
          if (hls_released_) return;
          // Pacing-only send: the edge cache receives the segment object
          // itself; nobody reads the wire bytes.
          const std::size_t wire_size = seg.ts_data.size();
          cdn_link_.send(wire_size,
                         [this, r, cut, seg = std::move(seg)](
                             TimePoint t, util::BufferSlice /*d*/) mutable {
                           if (hls_released_) return;
                           renditions_[r].edge.append(std::move(seg), t);
                           if (segments_shipped_ != nullptr) {
                             segments_shipped_->add(1);
                             segment_delivery_->record(to_s(t - cut));
                             obs_->trace.complete(
                                 "service", strf("ship r%zu", r), cut, t);
                           }
                         });
        });
  }
}

std::string LiveBroadcastPipeline::master_playlist() const {
  std::vector<hls::VariantRef> variants;
  for (std::size_t r = 0; r < renditions_.size(); ++r) {
    hls::VariantRef v;
    v.uri = hls::rendition_uri(r, "playlist.m3u8");
    v.bandwidth_bps = renditions_[r].spec.nominal_bandwidth_bps;
    variants.push_back(std::move(v));
  }
  return hls::write_master_m3u8(variants);
}

}  // namespace psc::service
