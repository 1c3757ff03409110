#include "flv/flv.h"

namespace psc::flv {

std::array<std::uint8_t, 5> video_tag_header(
    bool keyframe, AvcPacketType pkt_type, std::int32_t composition_time_ms) {
  const auto frame_flag = keyframe ? VideoFrameFlag::Keyframe
                                   : VideoFrameFlag::Interframe;
  const auto cts = static_cast<std::uint32_t>(composition_time_ms);
  return {static_cast<std::uint8_t>(
              (static_cast<std::uint8_t>(frame_flag) << 4) | kCodecAvc),
          static_cast<std::uint8_t>(pkt_type),
          static_cast<std::uint8_t>(cts >> 16),
          static_cast<std::uint8_t>(cts >> 8), static_cast<std::uint8_t>(cts)};
}

std::array<std::uint8_t, 2> audio_tag_header(AacPacketType pkt_type) {
  // SoundFormat=10 (AAC), SoundRate=3 (44kHz), SoundSize=1, SoundType=1.
  return {static_cast<std::uint8_t>((kSoundFormatAac << 4) | 0x0F),
          static_cast<std::uint8_t>(pkt_type)};
}

Bytes make_video_tag(bool keyframe, AvcPacketType pkt_type,
                     std::int32_t composition_time_ms, BytesView data) {
  const auto header =
      video_tag_header(keyframe, pkt_type, composition_time_ms);
  Bytes out;
  out.reserve(header.size() + data.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

Bytes make_avc_sequence_header(const media::Sps& sps, const media::Pps& pps) {
  const Bytes cfg = media::write_avc_decoder_config(sps, pps);
  return make_video_tag(/*keyframe=*/true, AvcPacketType::SequenceHeader,
                        /*composition_time_ms=*/0, cfg);
}

Bytes make_audio_tag(AacPacketType pkt_type, BytesView data) {
  const auto header = audio_tag_header(pkt_type);
  Bytes out;
  out.reserve(header.size() + data.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

namespace {

constexpr std::size_t kVideoTagHeaderSize = 5;
constexpr std::size_t kAudioTagHeaderSize = 2;

}  // namespace

Result<VideoTagView> view_video_tag(BytesView body) {
  ByteReader r(body);
  auto b0 = r.u8();
  if (!b0) return b0.error();
  if ((b0.value() & 0x0F) != kCodecAvc) {
    return make_error("unsupported", "non-AVC video tag");
  }
  VideoTagView tag;
  tag.keyframe =
      ((b0.value() >> 4) & 0x0F) == static_cast<int>(VideoFrameFlag::Keyframe);
  auto pt = r.u8();
  if (!pt) return pt.error();
  tag.packet_type = static_cast<AvcPacketType>(pt.value());
  auto cts = r.u24be();
  if (!cts) return cts.error();
  // Sign-extend 24-bit composition time.
  std::int32_t v = static_cast<std::int32_t>(cts.value());
  if (v & 0x800000) v |= static_cast<std::int32_t>(0xFF000000u);
  tag.composition_time_ms = v;
  tag.data = body.subspan(kVideoTagHeaderSize);
  return tag;
}

Result<AudioTagView> view_audio_tag(BytesView body) {
  ByteReader r(body);
  auto b0 = r.u8();
  if (!b0) return b0.error();
  if ((b0.value() >> 4) != kSoundFormatAac) {
    return make_error("unsupported", "non-AAC audio tag");
  }
  AudioTagView tag;
  auto pt = r.u8();
  if (!pt) return pt.error();
  tag.packet_type = static_cast<AacPacketType>(pt.value());
  tag.data = body.subspan(kAudioTagHeaderSize);
  return tag;
}

namespace {

/// The owning tag of a view: header fields only, `data` left empty.
VideoTag header_of(const VideoTagView& v) {
  VideoTag tag;
  tag.keyframe = v.keyframe;
  tag.packet_type = v.packet_type;
  tag.composition_time_ms = v.composition_time_ms;
  return tag;
}

AudioTag header_of(const AudioTagView& v) {
  AudioTag tag;
  tag.packet_type = v.packet_type;
  return tag;
}

/// Moves `body` minus its first `header` bytes into `data`, shifting the
/// payload down in place instead of copying it to a new buffer.
void take_payload(Bytes& data, Bytes&& body, std::size_t header) {
  body.erase(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(header));
  data = std::move(body);
}

}  // namespace

Result<VideoTag> parse_video_tag(BytesView body) {
  auto view = view_video_tag(body);
  if (!view) return view.error();
  VideoTag tag = header_of(view.value());
  tag.data.assign(view.value().data.begin(), view.value().data.end());
  return tag;
}

Result<VideoTag> parse_video_tag(Bytes&& body) {
  auto view = view_video_tag(body);
  if (!view) return view.error();
  VideoTag tag = header_of(view.value());
  take_payload(tag.data, std::move(body), kVideoTagHeaderSize);
  return tag;
}

Result<AudioTag> parse_audio_tag(BytesView body) {
  auto view = view_audio_tag(body);
  if (!view) return view.error();
  AudioTag tag = header_of(view.value());
  tag.data.assign(view.value().data.begin(), view.value().data.end());
  return tag;
}

Result<AudioTag> parse_audio_tag(Bytes&& body) {
  auto view = view_audio_tag(body);
  if (!view) return view.error();
  AudioTag tag = header_of(view.value());
  take_payload(tag.data, std::move(body), kAudioTagHeaderSize);
  return tag;
}

}  // namespace psc::flv
