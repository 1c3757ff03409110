#include "media/encoder.h"

#include <cmath>

namespace psc::media {

VideoEncoder::VideoEncoder(const VideoConfig& cfg,
                           const ContentModelConfig& content,
                           double broadcast_epoch_s, Rng rng)
    : cfg_(cfg),
      content_(content, rng.fork(1)),
      rc_(cfg),
      rng_(rng.fork(2)),
      epoch_s_(broadcast_epoch_s) {
  sps_.width = cfg_.width;
  sps_.height = cfg_.height;
  pps_.pic_init_qp = 26;
  append_annexb_nal(param_sets_,
                    NalUnit{NalType::Sps, 3, write_sps_rbsp(sps_)});
  append_annexb_nal(param_sets_,
                    NalUnit{NalType::Pps, 3, write_pps_rbsp(pps_)});
}

FrameType VideoEncoder::frame_type_for(std::uint64_t gop_pos) const {
  if (gop_pos == 0) return FrameType::I;
  switch (cfg_.gop) {
    case GopPattern::IOnly:
      return FrameType::I;
    case GopPattern::IP:
      return FrameType::P;
    case GopPattern::IBP:
      return (gop_pos % 2 == 1) ? FrameType::B : FrameType::P;
  }
  return FrameType::P;
}

MediaSample VideoEncoder::encode_one(std::uint64_t display_idx,
                                     FrameType type) {
  const double frame_period = 1.0 / cfg_.fps;
  const double complexity = content_.next_frame_complexity();
  const int qp = rc_.pick_qp(type, complexity);

  const double noise = std::exp(rng_.normal(0.0, 0.15));
  const double bits =
      expected_frame_bits(type, qp, complexity, cfg_.width, cfg_.height) *
      noise;
  rc_.on_frame_encoded(bits);

  const bool idr = type == FrameType::I;
  SliceHeader hdr;
  hdr.type = type;
  hdr.idr = idr;
  if (idr) frame_num_ = 0;
  hdr.frame_num = static_cast<std::uint32_t>(
      frame_num_ & ((1u << sps_.log2_max_frame_num) - 1));
  if (type != FrameType::B) ++frame_num_;
  hdr.qp = qp;

  // Assemble the access unit directly into the sample buffer: the
  // parameter sets written once at construction, the SEI via the per-NAL
  // append, then the slice in fused streaming form — byte-identical to
  // annexb_wrap over the equivalent NalUnit list, without materialising
  // the slice RBSP/EBSP.
  const auto payload = static_cast<std::size_t>(std::max(40.0, bits / 8.0));
  Bytes data;
  data.reserve(payload + payload / 64 + 192);
  if (idr) data.insert(data.end(), param_sets_.begin(), param_sets_.end());
  const double pts_s = static_cast<double>(display_idx) * frame_period;
  if (pts_s >= next_sei_pts_s_) {
    append_annexb_nal(data, make_ntp_sei(ntp_from_seconds(epoch_s_ + pts_s)));
    next_sei_pts_s_ = pts_s + 1.0;
  }
  append_annexb_slice(data, hdr, sps_, pps_, payload, display_idx);

  MediaSample s;
  s.kind = SampleKind::Video;
  // PTS offset of one frame period keeps pts >= dts under B reordering.
  // Computed as (index+1)*period — the same expression shape as DTS — so
  // pts==dts compares exactly in floating point when indices coincide.
  s.pts = seconds(static_cast<double>(display_idx + 1) * frame_period);
  s.dts = seconds(static_cast<double>(dts_emitted_++) * frame_period);
  s.keyframe = idr;
  s.data = std::move(data);
  s.frame_type = type;
  s.encoded_qp = qp;
  return s;
}

std::optional<MediaSample> VideoEncoder::next_frame() {
  const auto take = [this]() {
    MediaSample out = std::move(pending_.front());
    pending_.pop_front();
    return out;
  };
  if (!pending_.empty()) return take();

  if (cfg_.frame_loss_prob > 0 && rng_.bernoulli(cfg_.frame_loss_prob)) {
    // Source frame lost before encoding; consume the display slot so the
    // PTS gap shows downstream, but emit nothing.
    content_.next_frame_complexity();
    ++display_idx_;
    ++dts_emitted_;
    return std::nullopt;
  }

  const FrameType t = frame_type_for(display_idx_ % cfg_.gop_length);
  if (t == FrameType::B) {
    // Decode order: the reference following the B is encoded and emitted
    // first, then the B itself.
    const std::uint64_t b_idx = display_idx_;
    const std::uint64_t ref_idx = display_idx_ + 1;
    FrameType ref_type = frame_type_for(ref_idx % cfg_.gop_length);
    if (ref_type == FrameType::B) ref_type = FrameType::P;
    pending_.push_back(encode_one(ref_idx, ref_type));
    pending_.push_back(encode_one(b_idx, FrameType::B));
    display_idx_ += 2;
  } else {
    pending_.push_back(encode_one(display_idx_, t));
    ++display_idx_;
  }
  return take();
}

BroadcastSource::BroadcastSource(const VideoConfig& vcfg,
                                 const AudioConfig& acfg,
                                 const ContentModelConfig& content,
                                 double broadcast_epoch_s, Rng rng)
    : video_(vcfg, content, broadcast_epoch_s, rng.fork(11)),
      audio_(acfg, rng.fork(12).engine()()) {}

void BroadcastSource::refill_video() {
  while (!pending_video_) {
    auto s = video_.next_frame();
    if (s) {
      pending_video_ = std::move(s);
      return;
    }
    // Frame lost: try the next source frame. Audio keeps flowing
    // regardless, so this cannot loop forever in practice; still, bound it.
    static constexpr int kMaxConsecutiveLosses = 1000;
    for (int i = 0; i < kMaxConsecutiveLosses && !s; ++i) {
      s = video_.next_frame();
    }
    if (s) pending_video_ = std::move(s);
    return;
  }
}

MediaSample BroadcastSource::next_sample() {
  if (!pending_video_) refill_video();
  if (!pending_audio_) pending_audio_ = audio_.next_frame();

  if (pending_video_ && pending_video_->dts <= pending_audio_->dts) {
    MediaSample out = std::move(*pending_video_);
    pending_video_.reset();
    return out;
  }
  MediaSample out = std::move(*pending_audio_);
  pending_audio_.reset();
  return out;
}

}  // namespace psc::media
