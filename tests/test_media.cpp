// Encoder stack tests: content model, rate control, AAC, GOP structure,
// PTS/DTS reordering, NTP SEI cadence.
#include <gtest/gtest.h>

#include <stdexcept>

#include <map>
#include <set>

#include "media/aac.h"
#include "media/encoder.h"
#include "media/rate_control.h"

namespace psc::media {
namespace {

TEST(Content, ComplexityStaysInBounds) {
  ContentModelConfig cfg;
  cfg.content_class = ContentClass::Sports;
  ContentModel model(cfg, Rng(3));
  for (int i = 0; i < 10000; ++i) {
    const double c = model.next_frame_complexity();
    EXPECT_GE(c, 0.15);
    EXPECT_LE(c, 4.0);
  }
}

TEST(Content, ClassesOrderedByComplexity) {
  auto avg_for = [](ContentClass cls, int seed) {
    ContentModelConfig cfg;
    cfg.content_class = cls;
    cfg.scene_cut_rate_hz = 0;  // keep the base level
    cfg.luminance_event_rate_hz = 0;
    ContentModel model(cfg, Rng(seed));
    double sum = 0;
    for (int i = 0; i < 2000; ++i) sum += model.next_frame_complexity();
    return sum / 2000;
  };
  // Average across several seeds to compare the class levels.
  double talk = 0, sports = 0;
  for (int s = 0; s < 5; ++s) {
    talk += avg_for(ContentClass::StaticTalk, s);
    sports += avg_for(ContentClass::Sports, s);
  }
  EXPECT_LT(talk, sports * 0.5);
}

TEST(RateControl, FrameBitsMonotoneInQp) {
  for (int qp = 19; qp <= 44; ++qp) {
    EXPECT_LT(expected_frame_bits(FrameType::P, qp, 1.0, 320, 568),
              expected_frame_bits(FrameType::P, qp - 1, 1.0, 320, 568));
  }
}

TEST(RateControl, IFramesLargerThanPLargerThanB) {
  const double i = expected_frame_bits(FrameType::I, 26, 1.0, 320, 568);
  const double p = expected_frame_bits(FrameType::P, 26, 1.0, 320, 568);
  const double b = expected_frame_bits(FrameType::B, 26, 1.0, 320, 568);
  EXPECT_GT(i, 3 * p);
  EXPECT_GT(p, b);
}

TEST(RateControl, QpStaysWithinConfiguredRange) {
  VideoConfig cfg;
  cfg.qp_min = 20;
  cfg.qp_max = 40;
  RateController rc(cfg);
  for (int i = 0; i < 500; ++i) {
    const int qp = rc.pick_qp(i % 36 == 0 ? FrameType::I : FrameType::P,
                              3.5);  // very complex content
    EXPECT_GE(qp, 20);
    EXPECT_LE(qp, 40);
    rc.on_frame_encoded(
        expected_frame_bits(FrameType::P, qp, 3.5, 320, 568));
  }
  EXPECT_GE(rc.current_qp(), 30);  // complexity forced QP up
}

class EncoderBitrateTest
    : public ::testing::TestWithParam<std::pair<double, ContentClass>> {};

TEST_P(EncoderBitrateTest, TracksTargetWithinTolerance) {
  const auto [target, cls] = GetParam();
  VideoConfig cfg;
  cfg.target_bitrate = target;
  ContentModelConfig content;
  content.content_class = cls;
  VideoEncoder enc(cfg, content, 0.0, Rng(7));
  double bits = 0;
  int frames = 0;
  for (int i = 0; i < 1800; ++i) {  // 60 s
    auto s = enc.next_frame();
    if (!s) continue;
    bits += static_cast<double>(s->data.size()) * 8;
    ++frames;
  }
  const double rate = bits / 60.0;
  // Static content can undershoot (QP floor); complex content tracks.
  EXPECT_LT(rate, target * 1.6);
  if (cls != ContentClass::StaticTalk) {
    EXPECT_GT(rate, target * 0.35);
  }
  EXPECT_GT(frames, 1700);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, EncoderBitrateTest,
    ::testing::Values(std::pair{250e3, ContentClass::Indoor},
                      std::pair{300e3, ContentClass::Outdoor},
                      std::pair{350e3, ContentClass::Sports},
                      std::pair{300e3, ContentClass::StaticTalk}));

TEST(Encoder, GopPatternIbpHasAllTypes) {
  VideoConfig cfg;
  cfg.gop = GopPattern::IBP;
  VideoEncoder enc(cfg, ContentModelConfig{}, 0.0, Rng(1));
  std::map<FrameType, int> census;
  for (int i = 0; i < 360; ++i) {
    auto s = enc.next_frame();
    if (s) ++census[s->frame_type];
  }
  EXPECT_GT(census[FrameType::I], 5);
  EXPECT_GT(census[FrameType::B], 100);
  EXPECT_GT(census[FrameType::P], 100);
}

TEST(Encoder, GopPatternIpHasNoB) {
  VideoConfig cfg;
  cfg.gop = GopPattern::IP;
  VideoEncoder enc(cfg, ContentModelConfig{}, 0.0, Rng(1));
  for (int i = 0; i < 360; ++i) {
    auto s = enc.next_frame();
    if (s) {
      EXPECT_NE(s->frame_type, FrameType::B);
    }
  }
}

TEST(Encoder, GopPatternIOnly) {
  VideoConfig cfg;
  cfg.gop = GopPattern::IOnly;
  VideoEncoder enc(cfg, ContentModelConfig{}, 0.0, Rng(1));
  for (int i = 0; i < 100; ++i) {
    auto s = enc.next_frame();
    if (s) {
      EXPECT_EQ(s->frame_type, FrameType::I);
    }
  }
}

TEST(Encoder, KeyframeEveryGopLength) {
  VideoConfig cfg;
  cfg.gop = GopPattern::IBP;
  cfg.gop_length = 36;
  VideoEncoder enc(cfg, ContentModelConfig{}, 0.0, Rng(2));
  std::vector<double> idr_pts;
  for (int i = 0; i < 720; ++i) {
    auto s = enc.next_frame();
    if (s && s->keyframe) idr_pts.push_back(to_s(s->pts));
  }
  ASSERT_GE(idr_pts.size(), 2u);
  for (std::size_t i = 1; i < idr_pts.size(); ++i) {
    EXPECT_NEAR(idr_pts[i] - idr_pts[i - 1], 36.0 / 30.0, 1e-6);
  }
}

TEST(Encoder, DtsMonotonicPtsReordered) {
  VideoConfig cfg;
  cfg.gop = GopPattern::IBP;
  VideoEncoder enc(cfg, ContentModelConfig{}, 0.0, Rng(3));
  double last_dts = -1;
  bool saw_pts_before_dts_order_swap = false;
  double last_pts = -1;
  for (int i = 0; i < 200; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    EXPECT_GT(to_s(s->dts), last_dts);
    EXPECT_GE(to_s(s->pts), to_s(s->dts));  // pts >= dts always
    if (to_s(s->pts) < last_pts) saw_pts_before_dts_order_swap = true;
    last_dts = to_s(s->dts);
    last_pts = to_s(s->pts);
  }
  // B reordering must be visible as non-monotonic PTS in decode order.
  EXPECT_TRUE(saw_pts_before_dts_order_swap);
}

TEST(Encoder, NtpSeiAboutOncePerSecond) {
  VideoEncoder enc(VideoConfig{}, ContentModelConfig{}, 1000.0, Rng(4));
  int seis = 0;
  for (int i = 0; i < 900; ++i) {  // 30 s
    auto s = enc.next_frame();
    if (!s) continue;
    auto nals = split_annexb(s->data);
    ASSERT_TRUE(nals.ok());
    for (const NalUnit& nal : nals.value()) {
      if (parse_ntp_sei(nal)) ++seis;
    }
  }
  EXPECT_GE(seis, 28);
  EXPECT_LE(seis, 32);
}

TEST(Encoder, NtpSeiCarriesEpochPlusPts) {
  const double epoch = 5000.5;
  VideoEncoder enc(VideoConfig{}, ContentModelConfig{}, epoch, Rng(5));
  auto first = enc.next_frame();
  ASSERT_TRUE(first.has_value());
  auto nals = split_annexb(first->data);
  ASSERT_TRUE(nals.ok());
  bool found = false;
  for (const NalUnit& nal : nals.value()) {
    if (auto ntp = parse_ntp_sei(nal)) {
      EXPECT_NEAR(seconds_from_ntp(*ntp), epoch, 1e-3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Encoder, FrameLossLeavesGaps) {
  VideoConfig cfg;
  cfg.frame_loss_prob = 0.2;
  cfg.gop = GopPattern::IP;
  VideoEncoder enc(cfg, ContentModelConfig{}, 0.0, Rng(6));
  int produced = 0;
  for (int i = 0; i < 300; ++i) {
    if (enc.next_frame()) ++produced;
  }
  EXPECT_LT(produced, 280);
  EXPECT_GT(produced, 180);
}

TEST(Encoder, IdrCarriesSpsPps) {
  VideoEncoder enc(VideoConfig{}, ContentModelConfig{}, 0.0, Rng(8));
  auto s = enc.next_frame();
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(s->keyframe);
  auto nals = split_annexb(s->data);
  ASSERT_TRUE(nals.ok());
  std::set<NalType> types;
  for (const NalUnit& nal : nals.value()) types.insert(nal.type);
  EXPECT_TRUE(types.count(NalType::Sps));
  EXPECT_TRUE(types.count(NalType::Pps));
  EXPECT_TRUE(types.count(NalType::IdrSlice));
}

TEST(Aac, AdtsHeaderRoundtrip) {
  AudioConfig cfg;
  const Bytes frame = write_adts_frame(cfg, 120, 99);
  auto info = parse_adts_header(frame);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().sample_rate, 44100);
  EXPECT_EQ(info.value().channels, 1);
  EXPECT_EQ(info.value().frame_length, frame.size());
}

TEST(Aac, SamplingIndexTable) {
  EXPECT_EQ(adts_sampling_index(44100).value(), 4);
  EXPECT_EQ(adts_sampling_index(48000).value(), 3);
  EXPECT_EQ(adts_sampling_index(8000).value(), 11);
  EXPECT_FALSE(adts_sampling_index(44000).ok());
}

TEST(Aac, UnsupportedSampleRateIsRejected) {
  // 44 kHz has no ADTS sampling index: writing it as the 44.1 kHz index
  // would misstate the audio, so neither the encoder nor the frame
  // writer accepts it.
  AudioConfig cfg;
  cfg.sample_rate = 44000;
  EXPECT_THROW(AacEncoder(cfg, 1), std::invalid_argument);
  EXPECT_THROW(write_adts_frame(cfg, 64, 1), std::invalid_argument);
  cfg.sample_rate = 22050;
  AacEncoder ok(cfg, 1);
  EXPECT_EQ(parse_adts_header(ok.next_frame().data).value().sample_rate,
            22050);
}

TEST(Aac, BadSyncwordRejected) {
  Bytes frame = write_adts_frame(AudioConfig{}, 50, 1);
  frame[0] = 0x12;
  EXPECT_FALSE(parse_adts_header(frame).ok());
}

class AacBitrateTest : public ::testing::TestWithParam<double> {};

TEST_P(AacBitrateTest, VbrTracksTarget) {
  AudioConfig cfg;
  cfg.target_bitrate = GetParam();
  AacEncoder enc(cfg, 77);
  double bits = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) bits += enc.next_frame().data.size() * 8.0;
  const double dur = n * 1024.0 / 44100.0;
  EXPECT_NEAR(bits / dur, GetParam(), GetParam() * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Rates, AacBitrateTest,
                         ::testing::Values(32e3, 64e3));

TEST(Aac, PtsAdvancesBySamplesPerFrame) {
  AacEncoder enc(AudioConfig{}, 1);
  const MediaSample a = enc.next_frame();
  const MediaSample b = enc.next_frame();
  EXPECT_NEAR(to_s(b.pts - a.pts), 1024.0 / 44100.0, 1e-9);
}

TEST(BroadcastSource, SamplesComeInDtsOrder) {
  BroadcastSource src(VideoConfig{}, AudioConfig{}, ContentModelConfig{},
                      0.0, Rng(10));
  double last_dts = -1e9;
  int video = 0, audio = 0;
  for (int i = 0; i < 500; ++i) {
    const MediaSample s = src.next_sample();
    EXPECT_GE(to_s(s.dts), last_dts);
    last_dts = to_s(s.dts);
    (s.kind == SampleKind::Video ? video : audio)++;
  }
  // ~30 video and ~43 audio frames per second.
  EXPECT_GT(video, 150);
  EXPECT_GT(audio, 200);
}

}  // namespace
}  // namespace psc::media
