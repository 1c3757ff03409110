// MPEG-TS mux/demux tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "media/encoder.h"
#include "mpegts/mpegts.h"

namespace psc::mpegts {
namespace {

media::MediaSample video_sample(double dts_s, double pts_s, bool key,
                                std::size_t size) {
  media::MediaSample s;
  s.kind = media::SampleKind::Video;
  s.dts = seconds(dts_s);
  s.pts = seconds(pts_s);
  s.keyframe = key;
  s.data.assign(size, 0xAB);
  return s;
}

media::MediaSample audio_sample(double pts_s, std::size_t size) {
  media::MediaSample s;
  s.kind = media::SampleKind::Audio;
  s.dts = seconds(pts_s);
  s.pts = seconds(pts_s);
  s.keyframe = true;
  s.data.assign(size, 0xCD);
  return s;
}

TEST(Pts90k, RoundtripQuantisesToClock) {
  const Duration t = seconds(3.6);
  EXPECT_EQ(to_pts90k(t), 324000u);
  EXPECT_NEAR(to_s(from_pts90k(to_pts90k(t))), 3.6, 1.0 / 90000);
}

TEST(Pts90k, WrapsAt33Bits) {
  const double big = std::pow(2.0, 33) / 90000.0 + 10.0;
  EXPECT_EQ(to_pts90k(seconds(big)), to_pts90k(seconds(10.0)));
}

TEST(TsMux, PacketsAre188BytesWithSync) {
  TsMuxer mux;
  const Bytes psi = mux.psi();
  ASSERT_EQ(psi.size(), 2 * kTsPacketSize);
  EXPECT_EQ(psi[0], 0x47);
  EXPECT_EQ(psi[kTsPacketSize], 0x47);
  const Bytes pkts = mux.mux_sample(video_sample(0.1, 0.133, true, 3000));
  ASSERT_EQ(pkts.size() % kTsPacketSize, 0u);
  for (std::size_t off = 0; off < pkts.size(); off += kTsPacketSize) {
    EXPECT_EQ(pkts[off], 0x47);
  }
}

TEST(TsRoundtrip, VideoSampleSurvives) {
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  const media::MediaSample in = video_sample(1.0, 1.033, true, 2500);
  ASSERT_TRUE(demux.push(mux.mux_sample(in)).ok());
  demux.flush();
  auto samples = demux.take_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, media::SampleKind::Video);
  EXPECT_EQ(samples[0].data, in.data);
  EXPECT_TRUE(samples[0].keyframe);
  EXPECT_NEAR(to_s(samples[0].pts), 1.033, 1.0 / 90000);
  EXPECT_NEAR(to_s(samples[0].dts), 1.0, 1.0 / 90000);
}

TEST(TsRoundtrip, InterleavedAudioVideoOrderedByDts) {
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(video_sample(0.0, 0.033, true, 4000))).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(audio_sample(0.01, 120))).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(video_sample(0.033, 0.066, false, 800))).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(audio_sample(0.033, 130))).ok());
  demux.flush();
  auto samples = demux.take_samples();
  ASSERT_EQ(samples.size(), 4u);
  double last = -1;
  int audio = 0;
  for (const TsSample& s : samples) {
    EXPECT_GE(to_s(s.dts), last);
    last = to_s(s.dts);
    if (s.kind == media::SampleKind::Audio) ++audio;
  }
  EXPECT_EQ(audio, 2);
}

TEST(TsRoundtrip, TinyAudioFrameStuffed) {
  // A 10-byte payload forces heavy adaptation-field stuffing.
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(audio_sample(0.5, 10))).ok());
  demux.flush();
  auto samples = demux.take_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].data.size(), 10u);
}

class TsSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TsSizeSweep, PayloadSizesRoundtripExactly) {
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  const media::MediaSample in = video_sample(0.2, 0.233, false, GetParam());
  ASSERT_TRUE(demux.push(mux.mux_sample(in)).ok());
  demux.flush();
  auto samples = demux.take_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].data.size(), GetParam());
  EXPECT_EQ(samples[0].data, in.data);
}

// Sizes straddling packet boundaries: payload room is 184 bytes minus
// headers; exercise off-by-one regions around 1 and 2 packets.
INSTANTIATE_TEST_SUITE_P(Sizes, TsSizeSweep,
                         ::testing::Values(1u, 2u, 140u, 155u, 156u, 157u,
                                           158u, 340u, 341u, 342u, 1000u,
                                           65000u));


TEST(TsDemux, DiscoversNonStandardPidsFromPsi) {
  // A muxer using unusual PIDs: the demuxer must learn them from
  // PAT/PMT rather than assume the defaults.
  TsMuxer mux(/*pmt_pid=*/0x0FF0, /*video_pid=*/0x0200,
              /*audio_pid=*/0x0201);
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(video_sample(0.5, 0.533, true,
                                                     2000))).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(audio_sample(0.51, 150))).ok());
  demux.flush();
  auto samples = demux.take_samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].kind, media::SampleKind::Video);
  EXPECT_EQ(samples[0].data.size(), 2000u);
  EXPECT_EQ(samples[1].kind, media::SampleKind::Audio);
}

TEST(TsDemux, EsDataBeforePsiIsIgnored) {
  // Without a PAT/PMT the demuxer has no program map: elementary-stream
  // packets are skipped, not misinterpreted.
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.mux_sample(video_sample(0, 0.033, true,
                                                     500))).ok());
  demux.flush();
  EXPECT_TRUE(demux.take_samples().empty());
  // Once PSI arrives, subsequent packets decode.
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  ASSERT_TRUE(demux.push(mux.mux_sample(video_sample(0.033, 0.066, false,
                                                     500))).ok());
  demux.flush();
  EXPECT_EQ(demux.take_samples().size(), 1u);
}

TEST(TsDemux, RejectsMisalignedBuffer) {
  TsDemuxer demux;
  const Bytes bad(100, 0x47);
  EXPECT_FALSE(demux.push(bad).ok());
}

TEST(TsDemux, RejectsBadSyncByte) {
  TsDemuxer demux;
  Bytes pkt(kTsPacketSize, 0);
  pkt[0] = 0x48;
  EXPECT_FALSE(demux.push(pkt).ok());
}

TEST(TsDemux, DetectsContinuityErrors) {
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  // Drop the middle packet of a 3+ packet sample.
  const Bytes pkts = mux.mux_sample(video_sample(0, 0.033, true, 600));
  ASSERT_GE(pkts.size(), 3 * kTsPacketSize);
  Bytes corrupted(pkts.begin(), pkts.begin() + kTsPacketSize);
  corrupted.insert(corrupted.end(), pkts.begin() + 2 * kTsPacketSize,
                   pkts.end());
  ASSERT_TRUE(demux.push(corrupted).ok());
  EXPECT_GT(demux.continuity_errors(), 0u);
}

TEST(TsDemux, PsiCrcValidated) {
  TsMuxer mux;
  Bytes psi = mux.psi();
  psi[20] ^= 0xFF;  // corrupt PAT body
  TsDemuxer demux;
  auto s = demux.push(BytesView(psi).subspan(0, kTsPacketSize));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "crc");
}

TEST(TsMux, PsiBeforeEveryKeyframeDecodableAlone) {
  // A segment starting with PSI + IDR must demux standalone.
  TsMuxer mux;
  const Bytes seg_psi = mux.psi();
  const Bytes key = mux.mux_sample(video_sample(10.0, 10.033, true, 2000));
  TsDemuxer demux;
  Bytes all = seg_psi;
  all.insert(all.end(), key.begin(), key.end());
  ASSERT_TRUE(demux.push(all).ok());
  demux.flush();
  EXPECT_EQ(demux.take_samples().size(), 1u);
}

TEST(TsRoundtrip, EncoderFeedThroughSegmentSizedStream) {
  // Push 2 seconds of real encoder output through mux+demux and verify
  // count and byte-identity.
  media::BroadcastSource src(media::VideoConfig{}, media::AudioConfig{},
                             media::ContentModelConfig{}, 0.0, Rng(5));
  TsMuxer mux;
  TsDemuxer demux;
  ASSERT_TRUE(demux.push(mux.psi()).ok());
  std::vector<media::MediaSample> inputs;
  for (int i = 0; i < 140; ++i) {
    inputs.push_back(src.next_sample());
    ASSERT_TRUE(demux.push(mux.mux_sample(inputs.back())).ok());
  }
  demux.flush();
  auto out = demux.take_samples();
  ASSERT_EQ(out.size(), inputs.size());
  // Compare as DTS-sorted multisets of payloads.
  std::size_t in_bytes = 0, out_bytes = 0;
  for (const auto& s : inputs) in_bytes += s.data.size();
  for (const auto& s : out) out_bytes += s.data.size();
  EXPECT_EQ(in_bytes, out_bytes);
  EXPECT_EQ(demux.continuity_errors(), 0u);
}

/// Two "files" of interleaved audio and video, each opening with PSI.
std::vector<Bytes> two_ts_files() {
  TsMuxer mux;
  std::vector<Bytes> files;
  for (int f = 0; f < 2; ++f) {
    Bytes ts = mux.psi();
    for (int i = 0; i < 6; ++i) {
      const double t = 0.2 * (6 * f + i);
      const Bytes v =
          mux.mux_sample(video_sample(t, t + 0.033, i == 0, 900 + 300 * i));
      const Bytes a = mux.mux_sample(audio_sample(t + 0.01, 100 + i));
      ts.insert(ts.end(), v.begin(), v.end());
      ts.insert(ts.end(), a.begin(), a.end());
    }
    files.push_back(std::move(ts));
  }
  return files;
}

TEST(TsDemux, VisitorSeesEachUnitTakeSamplesCollects) {
  const Bytes ts = two_ts_files()[0];
  TsDemuxer collecting;
  ASSERT_TRUE(collecting.push(ts).ok());
  collecting.flush();
  const std::vector<TsSample> want = collecting.take_samples();
  ASSERT_EQ(want.size(), 12u);

  // The visitor gets every unit once, per PID in stream order; merged by
  // DTS the units are the collected samples.
  std::vector<TsSample> got;
  TsDemuxer visiting;
  const TsDemuxer::Visitor visit = [&](const TsAccessUnit& au) {
    got.push_back(TsSample{au.kind, au.pts, au.dts, au.keyframe,
                           Bytes(au.data.begin(), au.data.end())});
  };
  ASSERT_TRUE(visiting.push(ts, visit).ok());
  visiting.flush(visit);
  EXPECT_TRUE(visiting.take_samples().empty());
  std::stable_sort(got.begin(), got.end(),
                   [](const TsSample& a, const TsSample& b) {
                     return a.dts < b.dts;
                   });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].pts, want[i].pts) << i;
    EXPECT_EQ(got[i].dts, want[i].dts) << i;
    EXPECT_EQ(got[i].keyframe, want[i].keyframe) << i;
    EXPECT_EQ(got[i].data, want[i].data) << i;
  }
}

TEST(TsDemux, ResetDemuxesTheNextFileLikeAFreshDemuxer) {
  const std::vector<Bytes> files = two_ts_files();
  TsDemuxer reused;
  ASSERT_TRUE(reused.push(files[0]).ok());
  reused.flush();
  reused.reset();
  // Forgotten: the program map, so ES packets before PSI are skipped...
  TsMuxer other;
  ASSERT_TRUE(reused.push(other.mux_sample(video_sample(0, 0, true, 400)))
                  .ok());
  reused.flush();
  EXPECT_TRUE(reused.take_samples().empty());
  EXPECT_EQ(reused.continuity_errors(), 0u);
  // ...and after another reset the second file demuxes as it would alone.
  reused.reset();
  TsDemuxer fresh;
  ASSERT_TRUE(reused.push(files[1]).ok());
  ASSERT_TRUE(fresh.push(files[1]).ok());
  reused.flush();
  fresh.flush();
  const std::vector<TsSample> a = reused.take_samples();
  const std::vector<TsSample> b = fresh.take_samples();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dts, b[i].dts) << i;
    EXPECT_EQ(a[i].data, b[i].data) << i;
  }
  EXPECT_EQ(reused.packets_seen(), fresh.packets_seen());
  EXPECT_EQ(reused.continuity_errors(), fresh.continuity_errors());
}

}  // namespace
}  // namespace psc::mpegts
