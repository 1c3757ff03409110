// Wire bytes of the per-sample media path, pinned by digest: the RTMP
// chunk stream a ServerSession (and a PublisherSession) writes for one
// broadcast, the Segmenter's TS segments for the same samples, and a run
// of ADTS frames. The writers may change how they build these bytes,
// never which bytes they build.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "flv/flv.h"
#include "hls/segmenter.h"
#include "media/aac.h"
#include "media/encoder.h"
#include "rtmp/session.h"
#include "testing/fuzz_target.h"

namespace psc {
namespace {

/// The first sample lands this far into the stream, so the video
/// message after the t=0 sequence header carries a timestamp delta of
/// 0xFFFFFF ms or more: an extended timestamp repeated on every
/// continuation chunk of the IDR, and an extended fmt 0 header on the
/// first audio message.
constexpr double kStreamOffsetS = 16777.5;

/// ~600 video frames (20 s at 30 fps) of an IBP broadcast plus its audio,
/// in DTS order. Every seventh video sample is re-timed to present
/// 40 ms before it decodes, so composition times run both negative and
/// positive.
std::vector<media::MediaSample> broadcast_samples() {
  media::BroadcastSource src(media::VideoConfig{}, media::AudioConfig{},
                             media::ContentModelConfig{}, 1000.0, Rng(21));
  std::vector<media::MediaSample> out;
  int video = 0;
  while (video < 600) {
    media::MediaSample s = src.next_sample();
    s.dts += seconds(kStreamOffsetS);
    s.pts += seconds(kStreamOffsetS);
    if (s.kind == media::SampleKind::Video && video++ % 7 == 3) {
      s.pts = s.dts - millis(40);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::uint32_t wire_ms(Duration d) {
  return static_cast<std::uint32_t>(std::llround(to_ms(d)));
}

std::uint64_t digest(BytesView b) { return testing::fnv1a(b); }

media::VideoEncoder param_source() {
  return media::VideoEncoder(media::VideoConfig{},
                             media::ContentModelConfig{}, 0.0, Rng(1));
}

/// Every byte a ServerSession writes to one player: handshake, connect
/// replies (SetChunkSize 4096 among them), play replies, the AVC
/// sequence header and one message per sample. The player decodes it
/// all; its samples land in `received`.
Bytes server_stream(const std::vector<media::MediaSample>& samples,
                    std::vector<media::MediaSample>* received) {
  rtmp::ClientSession::Callbacks cbs;
  cbs.on_sample = [received](media::MediaSample s) {
    received->push_back(std::move(s));
  };
  rtmp::ClientSession client("live", "pinned", 7, std::move(cbs));
  rtmp::ServerSession server(8);
  Bytes wire;
  const auto drain = [&] {
    const Bytes b = server.take_output();
    wire.insert(wire.end(), b.begin(), b.end());
    EXPECT_TRUE(client.on_input(b).ok());
  };
  for (int i = 0; i < 16 && !server.playing(); ++i) {
    if (client.has_output()) (void)server.on_input(client.take_output());
    if (server.has_output()) drain();
  }
  EXPECT_TRUE(server.playing());
  const media::VideoEncoder enc = param_source();
  server.send_avc_config(enc.sps(), enc.pps());
  drain();
  // Drained at varying batch sizes: the chunk stream must not depend on
  // when the viewer's link pulls it.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    server.send_sample(samples[i]);
    if (i % 5 != 2) drain();
  }
  drain();
  return wire;
}

TEST(WireBytes, StreamCoversEveryHeaderCase) {
  const std::vector<media::MediaSample> samples = broadcast_samples();
  ASSERT_GT(samples.size(), 1200u);
  bool idr_with_params = false, negative_cts = false, positive_cts = false;
  for (const media::MediaSample& s : samples) {
    if (s.kind != media::SampleKind::Video) continue;
    if (s.pts < s.dts) negative_cts = true;
    if (s.pts > s.dts) positive_cts = true;
    if (s.keyframe && s.data.size() > 4096 && s.data[4] == 0x67) {
      idr_with_params = true;  // SPS first, then PPS, SEI and the slice
    }
  }
  EXPECT_TRUE(idr_with_params);
  EXPECT_TRUE(negative_cts);
  EXPECT_TRUE(positive_cts);
  EXPECT_GT(wire_ms(samples.front().dts), 0xFFFFFFu);
}

TEST(WireBytes, ServerSessionChunkStreamIsPinned) {
  const std::vector<media::MediaSample> samples = broadcast_samples();
  std::vector<media::MediaSample> received;
  const Bytes wire = server_stream(samples, &received);
  EXPECT_EQ(wire.size(), 847551u);
  EXPECT_EQ(digest(wire), 0xb52f4e00d9115295ull);

  // The player gets back every sample with its timing.
  ASSERT_EQ(received.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const media::MediaSample& sent = samples[i];
    const media::MediaSample& got = received[i];
    ASSERT_EQ(got.kind, sent.kind) << i;
    EXPECT_EQ(wire_ms(got.dts), wire_ms(sent.dts)) << i;
    if (sent.kind == media::SampleKind::Video) {
      EXPECT_EQ(std::llround(to_ms(got.pts - got.dts)),
                std::llround(to_ms(sent.pts - sent.dts)))
          << i;
      EXPECT_EQ(got.keyframe, sent.keyframe) << i;
      EXPECT_EQ(got.data, media::annexb_to_avcc(sent.data).value()) << i;
    } else {
      EXPECT_EQ(got.data, sent.data) << i;
    }
  }
}

TEST(WireBytes, PublisherSessionChunkStreamIsPinned) {
  const std::vector<media::MediaSample> samples = broadcast_samples();
  rtmp::PublisherSession pub("live", "pinned-key", 9);
  rtmp::ServerSession srv(10);
  std::size_t published = 0;
  rtmp::ServerSession::PublishCallbacks cbs;
  cbs.on_sample = [&](media::MediaSample) { ++published; };
  srv.set_publish_callbacks(std::move(cbs));
  Bytes wire;
  const auto drain = [&] {
    const Bytes b = pub.take_output();
    wire.insert(wire.end(), b.begin(), b.end());
    EXPECT_TRUE(srv.on_input(b).ok());
  };
  for (int i = 0; i < 32 && !pub.publishing(); ++i) {
    if (pub.has_output()) drain();
    if (srv.has_output()) (void)pub.on_input(srv.take_output());
  }
  ASSERT_TRUE(pub.publishing());
  const media::VideoEncoder enc = param_source();
  pub.send_avc_config(enc.sps(), enc.pps());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    pub.send_sample(samples[i]);
    if (i % 3 == 0) drain();
  }
  drain();
  EXPECT_EQ(published, samples.size());
  EXPECT_EQ(wire.size(), 853089u);
  EXPECT_EQ(digest(wire), 0xd9056e2ebc88211eull);
}

TEST(WireBytes, SegmenterTsSegmentsArePinned) {
  const std::vector<media::MediaSample> samples = broadcast_samples();
  hls::Segmenter seg;
  std::vector<hls::Segment> segments;
  for (const media::MediaSample& s : samples) {
    if (auto done = seg.push(s)) segments.push_back(std::move(*done));
  }
  if (auto done = seg.flush()) segments.push_back(std::move(*done));
  ASSERT_EQ(segments.size(), 6u);
  Bytes all;
  for (const hls::Segment& s : segments) {
    ASSERT_EQ(s.ts_data.size() % mpegts::kTsPacketSize, 0u);
    all.insert(all.end(), s.ts_data.begin(), s.ts_data.end());
  }
  EXPECT_EQ(all.size(), 997904u);
  EXPECT_EQ(digest(all), 0xa619fe05d702d70cull);
}

TEST(WireBytes, AdtsFramesArePinned) {
  Bytes all;
  const auto add = [&all](const Bytes& b) {
    all.insert(all.end(), b.begin(), b.end());
  };
  media::AudioConfig mono;
  media::AudioConfig stereo48;
  stereo48.sample_rate = 48000;
  stereo48.channels = 2;
  stereo48.target_bitrate = 64e3;
  for (std::size_t payload : {0, 1, 3, 4, 5, 8, 63, 64, 255, 2041}) {
    add(media::write_adts_frame(mono, payload, payload * 31 + 7));
    add(media::write_adts_frame(stereo48, payload, payload));
  }
  media::AacEncoder enc(mono, 77);
  media::AacEncoder enc48(stereo48, 78);
  for (int i = 0; i < 200; ++i) {
    add(enc.next_frame().data);
    add(enc48.next_frame().data);
  }
  EXPECT_EQ(all.size(), 58204u);
  EXPECT_EQ(digest(all), 0x01074cb8e9caee68ull);
}

/// The fused writer against the reference composition: for every sample,
/// ChunkWriter::write of flv::make_video_tag(annexb_to_avcc(data)) (or
/// flv::make_audio_tag(data)) on a writer in the same state. Run at two
/// chunk sizes, so continuation headers fall inside tag headers, length
/// prefixes and NAL bytes alike.
TEST(WireBytes, MediaMessageWriterMatchesReferenceComposition) {
  const std::vector<media::MediaSample> samples = broadcast_samples();
  for (const std::uint32_t chunk_size : {4096u, 7u}) {
    rtmp::ChunkWriter fused_chunks(chunk_size);
    rtmp::ChunkWriter ref_chunks(chunk_size);
    rtmp::MediaMessageWriter writer;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const media::MediaSample& s = samples[i];
      ByteWriter fused;
      ASSERT_TRUE(writer.write(fused_chunks, fused, 1, s));
      rtmp::Message msg;
      msg.timestamp_ms = wire_ms(s.dts);
      msg.stream_id = 1;
      std::uint32_t csid = rtmp::kCsidAudio;
      if (s.kind == media::SampleKind::Video) {
        msg.type = rtmp::MessageType::Video;
        msg.payload = flv::make_video_tag(
            s.keyframe, flv::AvcPacketType::Nalu,
            static_cast<std::int32_t>(std::llround(to_ms(s.pts - s.dts))),
            media::annexb_to_avcc(s.data).value());
        csid = rtmp::kCsidVideo;
      } else {
        msg.type = rtmp::MessageType::Audio;
        msg.payload = flv::make_audio_tag(flv::AacPacketType::Raw, s.data);
      }
      ByteWriter ref;
      ref_chunks.write(ref, csid, msg);
      ASSERT_EQ(fused.bytes(), ref.bytes()) << "sample " << i << " chunk "
                                            << chunk_size;
    }
  }
}

/// A video sample whose Annex-B framing does not parse must leave no
/// trace: the chunk stream equals one where it was never sent, even when
/// the bad NAL follows a good one in the same sample.
TEST(WireBytes, MalformedAnnexBSampleIsDroppedWhole) {
  const std::vector<media::MediaSample> samples = broadcast_samples();
  std::vector<media::MediaSample> good(samples.begin(), samples.begin() + 80);
  std::vector<media::MediaSample> with_bad;
  std::size_t video = 40;
  while (good[video].kind != media::SampleKind::Video) ++video;
  const auto bad_sample = [&](Bytes data) {
    media::MediaSample s = good[video];
    s.data = std::move(data);
    return s;
  };
  const Bytes valid_nal = {0x00, 0x00, 0x00, 0x01, 0x09, 0xF0};
  Bytes second_forbidden = valid_nal;
  second_forbidden.insert(second_forbidden.end(),
                          {0x00, 0x00, 0x01, 0x85, 0x11});
  Bytes second_empty = valid_nal;
  second_empty.insert(second_empty.end(), {0x00, 0x00, 0x01});
  const std::vector<media::MediaSample> bad = {
      bad_sample({0x12, 0x34, 0x56, 0x78}), bad_sample(second_forbidden),
      bad_sample(second_empty), bad_sample({})};
  for (std::size_t i = 0; i < good.size(); ++i) {
    with_bad.push_back(good[i]);
    if (i % 10 == 5 && i / 10 < bad.size()) with_bad.push_back(bad[i / 10]);
  }
  std::vector<media::MediaSample> got_good, got_bad;
  const Bytes a = server_stream(good, &got_good);
  const Bytes b = server_stream(with_bad, &got_bad);
  EXPECT_EQ(a, b);
  EXPECT_EQ(got_good.size(), good.size());

  rtmp::ChunkWriter chunks;
  rtmp::MediaMessageWriter writer;
  ByteWriter out;
  for (const media::MediaSample& s : bad) {
    EXPECT_FALSE(media::annexb_to_avcc(s.data).ok());
    EXPECT_FALSE(writer.write(chunks, out, 1, s));
  }
  EXPECT_EQ(out.size(), 0u);
}

}  // namespace
}  // namespace psc
