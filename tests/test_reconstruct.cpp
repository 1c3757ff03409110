// Capture-reconstruction tests against encoder ground truth: the offline
// pipeline must recover QPs, frame types, frame pattern, missing frames
// and NTP marks purely from wire bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "analysis/reconstruct.h"
#include "analysis/stats.h"
#include "flv/flv.h"
#include "hls/segmenter.h"
#include "media/encoder.h"
#include "mpegts/mpegts.h"
#include "rtmp/chunk.h"
#include "rtmp/handshake.h"
#include "rtmp/session.h"

namespace psc::analysis {
namespace {

/// Build an RTMP client-side capture by running a loopback session and
/// recording the server->client bytes with fake timestamps.
struct RtmpFixture {
  net::Capture capture;
  std::vector<int> true_qps;
  std::vector<media::FrameType> true_types;
  int sei_count = 0;

  explicit RtmpFixture(const media::VideoConfig& vcfg, double epoch_s = 100.0,
                       int frames = 300) {
    rtmp::ClientSession client("live", "bcast", 1, {});
    rtmp::ServerSession server(2);
    double now = epoch_s;
    auto shuttle = [&] {
      if (client.has_output()) (void)server.on_input(client.take_output());
      if (server.has_output()) {
        capture.record(time_at(now), server.take_output());
      }
    };
    for (int i = 0; i < 8 && !server.playing(); ++i) {
      shuttle();
      if (server.has_output() || client.has_output()) continue;
      // client needs server bytes: feed them
      ;
    }
    // Loopback until playing.
    for (int i = 0; i < 8 && !server.playing(); ++i) {
      if (client.has_output()) (void)server.on_input(client.take_output());
      if (server.has_output()) {
        Bytes b = server.take_output();
        capture.record_copy(time_at(now), b);
        (void)client.on_input(b);
      }
    }
    media::VideoEncoder enc(vcfg, media::ContentModelConfig{}, epoch_s,
                            Rng(9));
    server.send_avc_config(enc.sps(), enc.pps());
    for (int i = 0; i < frames; ++i) {
      auto s = enc.next_frame();
      if (!s) continue;
      true_qps.push_back(s->encoded_qp);
      true_types.push_back(s->frame_type);
      auto nals = media::split_annexb(s->data);
      for (const auto& nal : nals.value()) {
        if (media::parse_ntp_sei(nal)) ++sei_count;
      }
      now = epoch_s + to_s(s->dts) + 0.2;  // constant 200 ms delivery
      server.send_sample(*s);
      capture.record(time_at(now), server.take_output());
    }
  }
};

TEST(ReconstructRtmp, RecoversQpsExactly) {
  media::VideoConfig vcfg;
  RtmpFixture fx(vcfg);
  auto a = reconstruct_rtmp(fx.capture);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_EQ(a.value().frames.size(), fx.true_qps.size());
  for (std::size_t i = 0; i < fx.true_qps.size(); ++i) {
    EXPECT_EQ(a.value().frames[i].qp, fx.true_qps[i]) << "frame " << i;
    EXPECT_EQ(a.value().frames[i].type, fx.true_types[i]) << "frame " << i;
  }
}

TEST(ReconstructRtmp, RecoversResolutionFromSps) {
  media::VideoConfig vcfg;
  vcfg.width = 568;
  vcfg.height = 320;
  RtmpFixture fx(vcfg);
  auto a = reconstruct_rtmp(fx.capture);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().width, 568);
  EXPECT_EQ(a.value().height, 320);
}

TEST(ReconstructRtmp, NtpMarksAndConstantDeliveryLatency) {
  RtmpFixture fx(media::VideoConfig{}, 500.0);
  auto a = reconstruct_rtmp(fx.capture);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(static_cast<int>(a.value().ntp_marks.size()), fx.sei_count);
  ASSERT_FALSE(a.value().ntp_marks.empty());
  for (const NtpMark& m : a.value().ntp_marks) {
    EXPECT_NEAR(m.delivery_latency_s(), 0.2, 0.05);
  }
}

TEST(ReconstructRtmp, FramePatternDetection) {
  media::VideoConfig ibp;
  ibp.gop = media::GopPattern::IBP;
  EXPECT_EQ(reconstruct_rtmp(RtmpFixture(ibp).capture).value().frame_pattern(),
            FramePattern::IBP);
  media::VideoConfig ip;
  ip.gop = media::GopPattern::IP;
  EXPECT_EQ(reconstruct_rtmp(RtmpFixture(ip).capture).value().frame_pattern(),
            FramePattern::IPOnly);
  media::VideoConfig ionly;
  ionly.gop = media::GopPattern::IOnly;
  EXPECT_EQ(
      reconstruct_rtmp(RtmpFixture(ionly).capture).value().frame_pattern(),
      FramePattern::IOnly);
}

TEST(ReconstructRtmp, MissingFramesDetected) {
  media::VideoConfig lossy;
  lossy.frame_loss_prob = 0.05;
  lossy.gop = media::GopPattern::IP;
  RtmpFixture fx(lossy, 100.0, 600);
  auto a = reconstruct_rtmp(fx.capture);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(a.value().missing_frames(), 5u);
}

TEST(ReconstructRtmp, IOnlyStreamsHaveHigherBitrateAtSameQp) {
  // The paper traced the RTMP bitrate outliers to poor-efficiency
  // I-only coding.
  media::VideoConfig ibp;
  ibp.gop = media::GopPattern::IBP;
  media::VideoConfig ionly = ibp;
  ionly.gop = media::GopPattern::IOnly;
  auto a_ibp = reconstruct_rtmp(RtmpFixture(ibp, 100, 600).capture);
  auto a_ionly = reconstruct_rtmp(RtmpFixture(ionly, 100, 600).capture);
  ASSERT_TRUE(a_ibp.ok());
  ASSERT_TRUE(a_ionly.ok());
  // Rate control pushes the I-only stream's QP far higher; even so, it
  // cannot fully compensate and bitrate stays elevated.
  EXPECT_GT(a_ionly.value().avg_qp(), a_ibp.value().avg_qp() + 4);
  EXPECT_GT(a_ionly.value().video_bitrate_bps(),
            a_ibp.value().video_bitrate_bps());
}

TEST(ReconstructRtmp, TruncatedCaptureFails) {
  net::Capture cap;
  cap.record(time_at(0), Bytes(100, 0x03));
  EXPECT_FALSE(reconstruct_rtmp(cap).ok());
}

/// HLS capture: segment the encoder output, record each segment as one
/// capture packet (one GET response).
struct HlsFixture {
  net::Capture capture;
  std::vector<int> true_qps;
  std::size_t segments = 0;

  explicit HlsFixture(const media::VideoConfig& vcfg, int frames = 2200) {
    media::BroadcastSource src(vcfg, media::AudioConfig{},
                               media::ContentModelConfig{}, 50.0, Rng(11));
    hls::Segmenter segmenter(seconds(3.6));
    double now = 60.0;
    for (int i = 0; i < frames; ++i) {
      const media::MediaSample s = src.next_sample();
      if (s.kind == media::SampleKind::Video) {
        true_qps.push_back(s.encoded_qp);
      }
      auto done = segmenter.push(s);
      if (done) {
        now += 3.6;
        capture.record(time_at(now), done->ts_data);
        ++segments;
      }
    }
  }
};

TEST(ReconstructHls, RecoversSegmentsAndQps) {
  media::VideoConfig vcfg;
  HlsFixture fx(vcfg);
  ASSERT_GT(fx.segments, 3u);
  auto a = reconstruct_hls(fx.capture);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  EXPECT_EQ(a.value().segments.size(), fx.segments);
  // Frames inside completed segments are a prefix of the encoded ones.
  ASSERT_LE(a.value().frames.size(), fx.true_qps.size());
  EXPECT_GT(a.value().frames.size(), 300u);
  // Compare the QP multiset of the first segment's frames (order inside
  // a segment follows DTS; ground truth is decode order too).
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.value().frames[i].qp, fx.true_qps[i]) << i;
  }
}

TEST(ReconstructHls, SegmentDurationsNear36) {
  HlsFixture fx(media::VideoConfig{});
  auto a = reconstruct_hls(fx.capture);
  ASSERT_TRUE(a.ok());
  int near = 0;
  for (const SegmentInfo& s : a.value().segments) {
    if (std::abs(to_s(s.duration) - 3.6) < 0.2) ++near;
  }
  EXPECT_GE(near * 3, static_cast<int>(a.value().segments.size()) * 2);
}

TEST(ReconstructHls, PerSegmentBitrateAndQpPopulated) {
  HlsFixture fx(media::VideoConfig{});
  auto a = reconstruct_hls(fx.capture);
  ASSERT_TRUE(a.ok());
  for (const SegmentInfo& s : a.value().segments) {
    EXPECT_GT(s.video_bitrate_bps, 20e3);
    EXPECT_LT(s.video_bitrate_bps, 3e6);
    EXPECT_GE(s.avg_qp, 18);
    EXPECT_LE(s.avg_qp, 44);
    EXPECT_GT(s.frames, 50u);
  }
}

TEST(ReconstructHls, AudioParametersRecovered) {
  HlsFixture fx(media::VideoConfig{});
  auto a = reconstruct_hls(fx.capture);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().audio_sample_rate, 44100);
  EXPECT_EQ(a.value().audio_channels, 1);
  EXPECT_GT(a.value().audio_bitrate_bps, 15e3);
  EXPECT_LT(a.value().audio_bitrate_bps, 90e3);
}

TEST(ReconstructHls, EmptyCaptureYieldsEmptyAnalysis) {
  net::Capture cap;
  auto a = reconstruct_hls(cap);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().frames.empty());
  EXPECT_TRUE(a.value().segments.empty());
}

TEST(StreamAnalysisStats, BitrateFpsQpMath) {
  StreamAnalysis a;
  for (int i = 0; i < 60; ++i) {
    FrameRecord f;
    f.pts = seconds(i / 30.0);
    f.bytes = 1000;
    f.qp = 25 + (i % 3);
    f.type = media::FrameType::P;
    a.frames.push_back(f);
  }
  EXPECT_NEAR(a.video_duration_s(), 2.0, 0.05);
  EXPECT_NEAR(a.video_bitrate_bps(), 60 * 8000 / 2.0, 2e4);
  EXPECT_NEAR(a.fps(), 30.0, 0.5);
  EXPECT_NEAR(a.avg_qp(), 26.0, 0.01);
  EXPECT_GT(a.qp_stddev(), 0.5);
}

// ---- Pins: reconstruction equals the whole-NAL reference path ----
//
// The reference below flattens the capture, splits every access unit into
// whole unescaped NALs (split_avcc / split_annexb) and parses those. The
// library reads the capture packet by packet and unescapes only what it
// parses; on every capture here both must agree field by field.

namespace reference {

struct DecodeState {
  std::optional<media::Sps> sps;
  std::optional<media::Pps> pps;
};

void analyze_access_unit(const std::vector<media::NalUnit>& nals,
                         DecodeState& state, Duration pts, TimePoint arrival,
                         std::size_t wire_bytes, StreamAnalysis& out) {
  FrameRecord rec;
  rec.pts = pts;
  rec.arrival = arrival;
  rec.bytes = wire_bytes;
  bool have_slice = false;
  for (const media::NalUnit& nal : nals) {
    switch (nal.type) {
      case media::NalType::Sps: {
        auto sps = media::parse_sps_rbsp(nal.rbsp);
        if (sps) {
          state.sps = sps.value();
          out.width = sps.value().width;
          out.height = sps.value().height;
        }
        break;
      }
      case media::NalType::Pps: {
        auto pps = media::parse_pps_rbsp(nal.rbsp);
        if (pps) state.pps = pps.value();
        break;
      }
      case media::NalType::Sei: {
        auto ntp = media::parse_ntp_sei(nal);
        if (ntp) {
          out.ntp_marks.push_back(
              NtpMark{media::seconds_from_ntp(*ntp), arrival});
        }
        break;
      }
      case media::NalType::IdrSlice:
      case media::NalType::NonIdrSlice: {
        if (!state.sps || !state.pps) break;
        auto hdr = media::parse_slice_header(nal, *state.sps, *state.pps);
        if (hdr) {
          rec.type = hdr.value().type;
          rec.qp = hdr.value().qp;
          have_slice = true;
        }
        break;
      }
      default:
        break;
    }
  }
  if (have_slice) out.frames.push_back(rec);
}

void note_adts(BytesView data, StreamAnalysis& out,
               std::size_t* audio_bytes) {
  auto info = media::parse_adts_header(data);
  if (!info) return;
  out.audio_sample_rate = info.value().sample_rate;
  out.audio_channels = info.value().channels;
  *audio_bytes += data.size();
}

Result<StreamAnalysis> rtmp(const net::Capture& cap) {
  StreamAnalysis out;
  const Bytes& payload = cap.payload();
  const std::size_t hs = 1 + 2 * rtmp::kHandshakeBlobSize;
  if (payload.size() < hs) {
    return make_error("capture", "capture shorter than RTMP handshake");
  }
  DecodeState state;
  std::size_t audio_bytes = 0;
  rtmp::ChunkReader reader;
  for (const net::Capture::Packet& pkt : cap.packets()) {
    const std::size_t begin = std::max(pkt.offset, hs);
    const std::size_t end = pkt.offset + pkt.size;
    if (end <= begin) continue;
    if (auto s = reader.push(BytesView(payload).subspan(begin, end - begin));
        !s) {
      return s.error();
    }
    reader.drain([&](const rtmp::Message& msg) {
      if (msg.type == rtmp::MessageType::Video) {
        auto tag = flv::parse_video_tag(msg.payload);
        if (!tag) return;
        if (tag.value().packet_type == flv::AvcPacketType::SequenceHeader) {
          auto cfg = media::parse_avc_decoder_config(tag.value().data);
          if (cfg) {
            state.sps = cfg.value().sps;
            state.pps = cfg.value().pps;
            out.width = cfg.value().sps.width;
            out.height = cfg.value().sps.height;
          }
          return;
        }
        auto nals = media::split_avcc(tag.value().data);
        if (!nals) return;
        const Duration pts =
            millis(static_cast<double>(msg.timestamp_ms) +
                   tag.value().composition_time_ms);
        analyze_access_unit(nals.value(), state, pts, pkt.time,
                            msg.payload.size(), out);
      } else if (msg.type == rtmp::MessageType::Audio) {
        auto tag = flv::parse_audio_tag(msg.payload);
        if (!tag) return;
        note_adts(tag.value().data, out, &audio_bytes);
      }
    });
  }
  const double dur = out.video_duration_s();
  if (dur > 0) {
    out.audio_bitrate_bps = static_cast<double>(audio_bytes) * 8.0 / dur;
  }
  return out;
}

Result<StreamAnalysis> hls(const net::Capture& cap) {
  StreamAnalysis out;
  DecodeState state;
  std::size_t audio_bytes = 0;
  const Bytes& payload = cap.payload();
  for (const net::Capture::Packet& pkt : cap.packets()) {
    mpegts::TsDemuxer demux;
    if (auto s = demux.push(BytesView(payload).subspan(pkt.offset, pkt.size));
        !s) {
      return s.error();
    }
    demux.flush();
    SegmentInfo seg;
    seg.bytes = pkt.size;
    double pts_lo = 1e18, pts_hi = -1e18;
    std::size_t seg_video_bytes = 0;
    std::vector<double> seg_qps;
    for (const mpegts::TsSample& s : demux.take_samples()) {
      if (s.kind == media::SampleKind::Video) {
        auto nals = media::split_annexb(s.data);
        if (!nals) continue;
        const std::size_t before = out.frames.size();
        analyze_access_unit(nals.value(), state, s.pts, pkt.time,
                            s.data.size(), out);
        if (out.frames.size() > before) {
          seg_qps.push_back(out.frames.back().qp);
          ++seg.frames;
        }
        seg_video_bytes += s.data.size();
        pts_lo = std::min(pts_lo, to_s(s.pts));
        pts_hi = std::max(pts_hi, to_s(s.pts));
      } else {
        note_adts(s.data, out, &audio_bytes);
      }
    }
    if (seg.frames > 0 && pts_hi > pts_lo) {
      seg.duration = seconds(pts_hi - pts_lo + 1.0 / 30.0);
      seg.video_bitrate_bps =
          static_cast<double>(seg_video_bytes) * 8.0 / to_s(seg.duration);
      seg.avg_qp = mean(seg_qps);
      out.segments.push_back(seg);
    }
  }
  const double dur = out.video_duration_s();
  if (dur > 0) {
    out.audio_bitrate_bps = static_cast<double>(audio_bytes) * 8.0 / dur;
  }
  return out;
}

}  // namespace reference

/// Field-by-field equality; doubles must match exactly.
void expect_same(const Result<StreamAnalysis>& got,
                 const Result<StreamAnalysis>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.error().to_string(), want.error().to_string());
    return;
  }
  const StreamAnalysis& a = got.value();
  const StreamAnalysis& b = want.value();
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.height, b.height);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < b.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].type, b.frames[i].type) << "frame " << i;
    EXPECT_EQ(a.frames[i].qp, b.frames[i].qp) << "frame " << i;
    EXPECT_EQ(a.frames[i].bytes, b.frames[i].bytes) << "frame " << i;
    EXPECT_EQ(to_s(a.frames[i].pts), to_s(b.frames[i].pts)) << "frame " << i;
    EXPECT_EQ(to_s(a.frames[i].arrival), to_s(b.frames[i].arrival))
        << "frame " << i;
  }
  ASSERT_EQ(a.ntp_marks.size(), b.ntp_marks.size());
  for (std::size_t i = 0; i < b.ntp_marks.size(); ++i) {
    EXPECT_EQ(a.ntp_marks[i].ntp_s, b.ntp_marks[i].ntp_s) << "mark " << i;
    EXPECT_EQ(to_s(a.ntp_marks[i].arrival), to_s(b.ntp_marks[i].arrival))
        << "mark " << i;
  }
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < b.segments.size(); ++i) {
    EXPECT_EQ(to_s(a.segments[i].duration), to_s(b.segments[i].duration))
        << "segment " << i;
    EXPECT_EQ(a.segments[i].bytes, b.segments[i].bytes) << "segment " << i;
    EXPECT_EQ(a.segments[i].video_bitrate_bps,
              b.segments[i].video_bitrate_bps)
        << "segment " << i;
    EXPECT_EQ(a.segments[i].avg_qp, b.segments[i].avg_qp) << "segment " << i;
    EXPECT_EQ(a.segments[i].frames, b.segments[i].frames) << "segment " << i;
  }
  EXPECT_EQ(a.audio_sample_rate, b.audio_sample_rate);
  EXPECT_EQ(a.audio_channels, b.audio_channels);
  EXPECT_EQ(a.audio_bitrate_bps, b.audio_bitrate_bps);
}

/// The capture's byte stream re-recorded in packets of `sizes` (cycled);
/// each new packet arrives when the old capture had delivered its last
/// byte.
net::Capture rechunk(const net::Capture& cap,
                     const std::vector<std::size_t>& sizes) {
  const Bytes& all = cap.payload();
  net::Capture out;
  std::size_t pos = 0;
  for (std::size_t k = 0; pos < all.size(); ++k) {
    const std::size_t n = std::min(sizes[k % sizes.size()], all.size() - pos);
    out.record_copy(cap.time_of_byte(pos + n - 1),
                    BytesView(all).subspan(pos, n));
    pos += n;
  }
  return out;
}

constexpr std::size_t kHandshake = 1 + 2 * rtmp::kHandshakeBlobSize;

TEST(ReconstructPin, RtmpHandshakeEndsMidPacket) {
  const RtmpFixture fx(media::VideoConfig{});
  expect_same(reconstruct_rtmp(fx.capture), reference::rtmp(fx.capture));
  // Handshake ending inside the third packet, exactly at a packet end,
  // and inside a first packet that also carries chunks; odd sizes make
  // chunks straddle packets throughout.
  for (const std::vector<std::size_t>& sizes :
       {std::vector<std::size_t>{1000, 1000, 1500, 37, 4096, 777, 1},
        std::vector<std::size_t>{1, rtmp::kHandshakeBlobSize,
                                 rtmp::kHandshakeBlobSize, 129, 3001},
        std::vector<std::size_t>{kHandshake + 300, 61, 2048, 5}}) {
    const net::Capture cap = rechunk(fx.capture, sizes);
    SCOPED_TRACE(sizes.front());
    const auto got = reconstruct_rtmp(cap);
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(got.value().frames.size(), fx.true_qps.size());
    expect_same(got, reference::rtmp(cap));
  }
}

TEST(ReconstructPin, RtmpShortCapturesFailAlike) {
  const RtmpFixture fx(media::VideoConfig{}, 100.0, 10);
  for (const std::size_t keep : {std::size_t{0}, kHandshake - 1, kHandshake,
                                 kHandshake + 1, kHandshake + 500}) {
    const Bytes& all = fx.capture.payload();
    net::Capture cap;
    if (keep > 0) {
      cap.record_copy(time_at(1), BytesView(all).first(keep / 2));
      cap.record_copy(time_at(2),
                      BytesView(all).subspan(keep / 2, keep - keep / 2));
    }
    SCOPED_TRACE(keep);
    expect_same(reconstruct_rtmp(cap), reference::rtmp(cap));
  }
}

TEST(ReconstructPin, HlsMultiSegment) {
  const HlsFixture fx(media::VideoConfig{});
  ASSERT_GT(fx.segments, 3u);
  expect_same(reconstruct_hls(fx.capture), reference::hls(fx.capture));
  media::VideoConfig ip;
  ip.gop = media::GopPattern::IP;
  const HlsFixture fx_ip(ip, 1500);
  expect_same(reconstruct_hls(fx_ip.capture), reference::hls(fx_ip.capture));
}

/// A slice NAL of frame `type` whose RBSP is its header padded with 0xAA
/// to `rbsp_bytes`; with `escape_at` set, an 00 00 01 run is placed so
/// that the emulation-prevention 03 lands at that index of the escaped
/// payload.
media::NalUnit crafted_slice(media::FrameType type, bool idr,
                             std::uint32_t frame_num, int qp,
                             std::size_t rbsp_bytes,
                             std::optional<std::size_t> escape_at) {
  media::SliceHeader hdr;
  hdr.type = type;
  hdr.idr = idr;
  hdr.frame_num = frame_num;
  hdr.qp = qp;
  media::NalUnit nal =
      media::make_slice_nal(hdr, media::Sps{}, media::Pps{}, 0, 0);
  if (nal.rbsp.size() < rbsp_bytes) nal.rbsp.resize(rbsp_bytes, 0xAA);
  if (escape_at) {
    const std::size_t at = *escape_at - 2;
    nal.rbsp[at] = 0x00;
    nal.rbsp[at + 1] = 0x00;
    nal.rbsp[at + 2] = 0x01;
  }
  return nal;
}

/// Three-second stream of crafted access units: a 12-frame IBP GOP with
/// SPS, PPS and an NTP SEI on every keyframe, and slices that are short
/// (under 64 payload bytes), that carry an escape at every index around
/// the 64-byte cut, or that are malformed.
std::vector<media::MediaSample> crafted_samples() {
  const media::Sps sps;
  const media::Pps pps;
  const media::NalUnit sps_nal{media::NalType::Sps, 3,
                               media::write_sps_rbsp(sps)};
  const media::NalUnit pps_nal{media::NalType::Pps, 3,
                               media::write_pps_rbsp(pps)};
  std::vector<media::MediaSample> out;
  for (int i = 0; i < 90; ++i) {
    const bool key = i % 12 == 0;
    const media::FrameType type = key              ? media::FrameType::I
                                  : i % 3 == 1     ? media::FrameType::P
                                                   : media::FrameType::B;
    const int qp = 20 + i % 17;
    const auto frame_num = static_cast<std::uint32_t>(i);
    std::vector<media::NalUnit> nals;
    if (key) {
      nals.push_back(sps_nal);
      nals.push_back(pps_nal);
      nals.push_back(
          media::make_ntp_sei(media::ntp_from_seconds(1000.0 + i / 30.0)));
    }
    const std::size_t variant = static_cast<std::size_t>(i) % 15;
    if (variant < 4) {
      // Short slices: header only, and 10 / 40 / 63 RBSP bytes.
      const std::size_t sizes[] = {0, 10, 40, 63};
      nals.push_back(
          crafted_slice(type, key, frame_num, qp, sizes[variant], {}));
    } else if (variant < 12) {
      // The escape's 03 at escaped-payload index 60..67: before, at and
      // after the 64-byte cut.
      nals.push_back(crafted_slice(type, key, frame_num, qp, 120,
                                   std::size_t{60} + (variant - 4)));
    } else if (variant == 12) {
      // Malformed: an all-zero slice header (exp-golomb prefix too long).
      media::NalUnit bad{key ? media::NalType::IdrSlice
                             : media::NalType::NonIdrSlice,
                         2, Bytes(90, 0x00)};
      bad.rbsp.push_back(0x80);
      nals.push_back(bad);
    } else {
      // Ordinary filler-padded slices.
      media::SliceHeader hdr;
      hdr.type = type;
      hdr.idr = key;
      hdr.frame_num = frame_num;
      hdr.qp = qp;
      nals.push_back(media::make_slice_nal(hdr, sps, pps, 700, 5 + i));
    }
    media::MediaSample s;
    s.kind = media::SampleKind::Video;
    s.dts = seconds(i / 30.0);
    s.pts = s.dts;
    s.keyframe = key;
    s.frame_type = type;
    s.encoded_qp = qp;
    s.data = media::annexb_wrap(nals);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ReconstructPin, CraftedSlicesEscapeAtCut) {
  // The escape lands where the crafted slice says it does.
  for (std::size_t at = 60; at < 68; ++at) {
    const media::NalUnit nal = crafted_slice(media::FrameType::P, false, 1,
                                             30, 120, at);
    const Bytes& esc = nal.escaped();
    ASSERT_GT(esc.size(), at);
    EXPECT_EQ(esc[at], 0x03) << at;
    EXPECT_EQ(esc[at - 1], 0x00) << at;
    EXPECT_EQ(esc[at - 2], 0x00) << at;
  }
  const std::vector<media::MediaSample> samples = crafted_samples();

  // HLS: the crafted stream cut into 1 s segments.
  net::Capture hls_cap;
  hls::Segmenter segmenter(seconds(1.0));
  for (const media::MediaSample& s : samples) {
    if (auto seg = segmenter.push(s)) {
      hls_cap.record(time_at(2000 + to_s(s.dts)), seg->ts_data);
    }
  }
  if (auto seg = segmenter.flush()) {
    hls_cap.record(time_at(2005), seg->ts_data);
  }
  const auto hls_got = reconstruct_hls(hls_cap);
  ASSERT_TRUE(hls_got.ok()) << hls_got.error().to_string();
  // Every slice but the malformed ones yields a frame.
  EXPECT_EQ(hls_got.value().frames.size(), 84u);
  expect_same(hls_got, reference::hls(hls_cap));

  // RTMP: the same access units as AVCC over a chunk stream.
  rtmp::ClientSession client("live", "bcast", 1, {});
  rtmp::ServerSession server(2);
  net::Capture rtmp_cap;
  for (int i = 0; i < 8 && !server.playing(); ++i) {
    if (client.has_output()) (void)server.on_input(client.take_output());
    if (server.has_output()) {
      const Bytes b = server.take_output();
      rtmp_cap.record_copy(time_at(2000), b);
      (void)client.on_input(b);
    }
  }
  server.send_avc_config(media::Sps{}, media::Pps{});
  for (const media::MediaSample& s : samples) {
    server.send_sample(s);
    rtmp_cap.record(time_at(2000.1 + to_s(s.dts)), server.take_output());
  }
  const auto rtmp_got = reconstruct_rtmp(rtmp_cap);
  ASSERT_TRUE(rtmp_got.ok()) << rtmp_got.error().to_string();
  EXPECT_EQ(rtmp_got.value().frames.size(), 84u);
  expect_same(rtmp_got, reference::rtmp(rtmp_cap));
  const net::Capture odd = rechunk(rtmp_cap, {333, 1, 4097});
  expect_same(reconstruct_rtmp(odd), reference::rtmp(odd));
}

/// Access units whose framing is broken after a good slice: the whole
/// unit is dropped, so each contributes no frame.
std::vector<Bytes> broken_avcc_units(const Bytes& slice) {
  const auto prefixed = [](const Bytes& nal) {
    Bytes out = {0, 0, 0, static_cast<std::uint8_t>(nal.size())};
    out.insert(out.end(), nal.begin(), nal.end());
    return out;
  };
  const Bytes good = prefixed(slice);
  std::vector<Bytes> units;
  Bytes forbidden = good;  // a NAL with forbidden_zero_bit set
  const Bytes bad_nal = {0x86, 0x05, 0x10};
  const Bytes bad = prefixed(bad_nal);
  forbidden.insert(forbidden.end(), bad.begin(), bad.end());
  units.push_back(forbidden);
  Bytes empty = good;  // a zero-length NAL
  empty.insert(empty.end(), {0, 0, 0, 0});
  units.push_back(empty);
  Bytes short_len = good;  // a length cut short
  short_len.insert(short_len.end(), {0, 0});
  units.push_back(short_len);
  Bytes overrun = good;  // a length past the end
  overrun.insert(overrun.end(), {0, 0, 0, 9, 0x41, 0x9A});
  units.push_back(overrun);
  return units;
}

TEST(ReconstructPin, BrokenFramingDropsTheAccessUnit) {
  const media::Sps sps;
  const media::Pps pps;
  media::SliceHeader hdr;
  hdr.type = media::FrameType::I;
  hdr.idr = true;
  hdr.qp = 31;
  const Bytes slice = media::serialize_nal(
      media::make_slice_nal(hdr, sps, pps, 100, 3));
  ASSERT_LT(slice.size(), 256u);

  // RTMP: a bare chunk stream behind handshake bytes; good units around
  // the broken ones.
  ByteWriter wire;
  wire.raw(Bytes(kHandshake, 0x00));
  rtmp::ChunkWriter chunks;
  rtmp::Message msg;
  msg.type = rtmp::MessageType::Video;
  msg.stream_id = 1;
  msg.payload = flv::make_avc_sequence_header(sps, pps);
  chunks.write(wire, rtmp::kCsidVideo, msg);
  std::vector<Bytes> units = broken_avcc_units(slice);
  const Bytes good(units.front().begin(),
                   units.front().begin() + 4 + slice.size());
  units.insert(units.begin(), good);
  units.push_back(good);
  for (const Bytes& unit : units) {
    msg.timestamp_ms += 33;
    msg.payload =
        flv::make_video_tag(true, flv::AvcPacketType::Nalu, 0, unit);
    chunks.write(wire, rtmp::kCsidVideo, msg);
  }
  net::Capture rtmp_cap;
  rtmp_cap.record(time_at(5), wire.take());
  const auto rtmp_got = reconstruct_rtmp(rtmp_cap);
  ASSERT_TRUE(rtmp_got.ok()) << rtmp_got.error().to_string();
  EXPECT_EQ(rtmp_got.value().frames.size(), 2u);
  expect_same(rtmp_got, reference::rtmp(rtmp_cap));

  // HLS: the same slice behind a forbidden-bit NAL, an empty NAL and no
  // start code at all.
  const Bytes sps_pps = media::annexb_wrap(
      {media::NalUnit{media::NalType::Sps, 3, media::write_sps_rbsp(sps)},
       media::NalUnit{media::NalType::Pps, 3, media::write_pps_rbsp(pps)}});
  const auto annexb = [](std::initializer_list<BytesView> pieces) {
    Bytes out;
    for (const BytesView p : pieces) out.insert(out.end(), p.begin(), p.end());
    return out;
  };
  const Bytes code = {0, 0, 0, 1};
  const Bytes bad_nal = {0x86, 0x05, 0x10};
  const std::vector<Bytes> datas = {
      annexb({sps_pps, code, slice}),
      annexb({sps_pps, code, slice, code, bad_nal}),
      annexb({sps_pps, code, code, slice}),
      annexb({slice}),
      annexb({sps_pps, code, slice}),
  };
  hls::Segmenter segmenter(seconds(10));
  for (std::size_t i = 0; i < datas.size(); ++i) {
    media::MediaSample s;
    s.kind = media::SampleKind::Video;
    s.dts = s.pts = seconds(static_cast<double>(i) / 30.0);
    s.keyframe = i == 0;
    s.data = datas[i];
    ASSERT_FALSE(segmenter.push(s).has_value());
  }
  net::Capture hls_cap;
  hls_cap.record(time_at(7), segmenter.flush().value().ts_data);
  const auto hls_got = reconstruct_hls(hls_cap);
  ASSERT_TRUE(hls_got.ok()) << hls_got.error().to_string();
  EXPECT_EQ(hls_got.value().frames.size(), 2u);
  expect_same(hls_got, reference::hls(hls_cap));
}

}  // namespace
}  // namespace psc::analysis
