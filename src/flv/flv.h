// FLV audio/video tag payload format.
//
// RTMP carries audio and video messages whose payloads are FLV tag bodies:
// a VideoTagHeader (frame type + codec id + AVC packet type + composition
// time) in front of AVCC video data, and an AudioTagHeader in front of AAC
// data. The paper's pipeline used wireshark's RTMP dissector to pull these
// chunks out and "joined them after dropping some bytes of unknown
// meaning" — those bytes are precisely these tag headers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "media/h264.h"
#include "media/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::flv {

enum class VideoFrameFlag : std::uint8_t { Keyframe = 1, Interframe = 2 };
enum class AvcPacketType : std::uint8_t { SequenceHeader = 0, Nalu = 1 };
enum class AacPacketType : std::uint8_t { SequenceHeader = 0, Raw = 1 };

constexpr std::uint8_t kCodecAvc = 7;
constexpr std::uint8_t kSoundFormatAac = 10;

/// The 5 header bytes of a video tag body: [frame_type|codec]
/// [avc_packet_type] [cts24].
std::array<std::uint8_t, 5> video_tag_header(bool keyframe,
                                             AvcPacketType pkt_type,
                                             std::int32_t composition_time_ms);
/// The 2 header bytes of an AAC audio tag body.
std::array<std::uint8_t, 2> audio_tag_header(AacPacketType pkt_type);

/// Video tag body: video_tag_header(...) followed by `data`.
Bytes make_video_tag(bool keyframe, AvcPacketType pkt_type,
                     std::int32_t composition_time_ms, BytesView data);

/// The AVC sequence-header tag carrying the AVCDecoderConfigurationRecord.
Bytes make_avc_sequence_header(const media::Sps& sps, const media::Pps& pps);

/// Audio tag body: [format|rate|size|type] [aac_packet_type] [data].
Bytes make_audio_tag(AacPacketType pkt_type, BytesView data);

struct VideoTag {
  bool keyframe = false;
  AvcPacketType packet_type = AvcPacketType::Nalu;
  std::int32_t composition_time_ms = 0;
  Bytes data;  // AVCC NALs or decoder config
};

struct AudioTag {
  AacPacketType packet_type = AacPacketType::Raw;
  Bytes data;
};

/// A tag's header fields, with its payload viewed in place in the body
/// it was read from (valid as long as that body is).
struct VideoTagView {
  bool keyframe = false;
  AvcPacketType packet_type = AvcPacketType::Nalu;
  std::int32_t composition_time_ms = 0;
  BytesView data;
};
struct AudioTagView {
  AacPacketType packet_type = AacPacketType::Raw;
  BytesView data;
};
Result<VideoTagView> view_video_tag(BytesView body);
Result<AudioTagView> view_audio_tag(BytesView body);

/// The same, with the payload copied out of `body`.
Result<VideoTag> parse_video_tag(BytesView body);
Result<AudioTag> parse_audio_tag(BytesView body);
/// The same, taking over `body`: the tag's data is `body` with the header
/// stripped in place, so no second buffer is allocated. `body` is left
/// unspecified on success and untouched on error.
Result<VideoTag> parse_video_tag(Bytes&& body);
Result<AudioTag> parse_audio_tag(Bytes&& body);

}  // namespace psc::flv
