// Transcode ladder + adaptive HLS tests: the mechanism behind the paper's
// hypothesis that HLS's rarer stalls "may be achieved through lowered
// bitrate".
#include <gtest/gtest.h>

#include "analysis/reconstruct.h"
#include "client/viewer_session.h"
#include "media/transcode.h"
#include "service/pipeline.h"
#include "service/servers.h"

namespace psc {
namespace {

TEST(Transcode, LowersQpAndSize) {
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(1));
  media::TranscodeProfile profile;
  profile.size_scale = 0.5;
  profile.qp_delta = 6;
  for (int i = 0; i < 40; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    auto out = media::transcode_sample(*s, profile);
    ASSERT_TRUE(out.ok());
    EXPECT_LT(out.value().data.size(), s->data.size());
    EXPECT_EQ(out.value().encoded_qp, std::min(51, s->encoded_qp + 6));
    EXPECT_EQ(out.value().keyframe, s->keyframe);
    EXPECT_EQ(to_s(out.value().pts), to_s(s->pts));
  }
}

TEST(Transcode, OutputParsesBackWithShiftedQp) {
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(2));
  auto idr = enc.next_frame();  // first frame: IDR with SPS/PPS in-band
  ASSERT_TRUE(idr.has_value());
  media::TranscodeProfile profile{0.4, 8};
  auto out = media::transcode_sample(*idr, profile);
  ASSERT_TRUE(out.ok());
  auto nals = media::split_annexb(out.value().data);
  ASSERT_TRUE(nals.ok());
  bool found = false;
  for (const auto& nal : nals.value()) {
    if (nal.type == media::NalType::IdrSlice) {
      auto hdr = media::parse_slice_header(nal, enc.sps(), enc.pps());
      ASSERT_TRUE(hdr.ok());
      EXPECT_EQ(hdr.value().qp, idr->encoded_qp + 8);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Transcode, SeiNtpMarksSurvive) {
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          777.0, Rng(3));
  auto first = enc.next_frame();
  ASSERT_TRUE(first.has_value());
  auto out = media::transcode_sample(*first, media::TranscodeProfile{});
  ASSERT_TRUE(out.ok());
  auto nals = media::split_annexb(out.value().data);
  ASSERT_TRUE(nals.ok());
  bool sei = false;
  for (const auto& nal : nals.value()) {
    if (auto ntp = media::parse_ntp_sei(nal)) {
      EXPECT_NEAR(media::seconds_from_ntp(*ntp), 777.0, 1e-3);
      sei = true;
    }
  }
  EXPECT_TRUE(sei);
}

TEST(Transcode, AudioPassesThrough) {
  media::AacEncoder aac(media::AudioConfig{}, 4);
  const media::MediaSample in = aac.next_frame();
  auto out = media::transcode_sample(in, media::TranscodeProfile{0.5, 6});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().data, in.data);
}

TEST(MasterPlaylist, WriteParseRoundtrip) {
  std::vector<hls::VariantRef> variants = {
      {"playlist.m3u8", 400e3, 320, 568},
      {"r1/playlist.m3u8", 200e3, 320, 568},
      {"r2/playlist.m3u8", 110e3, 0, 0},
  };
  auto parsed = hls::parse_master_m3u8(hls::write_master_m3u8(variants));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_EQ(parsed.value()[0].uri, "playlist.m3u8");
  EXPECT_DOUBLE_EQ(parsed.value()[1].bandwidth_bps, 200e3);
  EXPECT_EQ(parsed.value()[0].width, 320);
  EXPECT_EQ(parsed.value()[2].width, 0);
}

TEST(MasterPlaylist, RejectsMalformed) {
  EXPECT_FALSE(hls::parse_master_m3u8("no header").ok());
  EXPECT_FALSE(
      hls::parse_master_m3u8("#EXTM3U\nplaylist.m3u8\n").ok());
}

service::PipelineConfig ladder_config() {
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  cfg.transcode_ladder = {
      {"mid", media::TranscodeProfile{0.55, 5}, 220e3},
      {"low", media::TranscodeProfile{0.3, 10}, 120e3},
  };
  return cfg;
}

service::BroadcastInfo abr_broadcast(std::uint64_t seed) {
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo b =
      service::draw_broadcast(pop, rng, {51.5, -0.1}, time_at(0));
  b.peak_viewers = 500;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  b.frame_loss_prob = 0;
  b.video_bitrate = 330e3;
  return b;
}

TEST(Ladder, PipelineProducesAllRenditions) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, abr_broadcast(5),
                                      ladder_config());
  EXPECT_EQ(pipe.rendition_count(), 3u);
  pipe.start(seconds(30));
  sim.run_until(time_at(30));
  ASSERT_GE(pipe.edge_log(0).size(), 4u);
  EXPECT_EQ(pipe.edge_log(1).size(), pipe.edge_log(0).size());
  EXPECT_EQ(pipe.edge_log(2).size(), pipe.edge_log(0).size());
  // Ladder renditions are materially smaller.
  const auto& src = pipe.edge_log(0)[2].segment;
  const auto& mid = pipe.edge_log(1)[2].segment;
  const auto& low = pipe.edge_log(2)[2].segment;
  EXPECT_LT(mid.ts_data.size(), src.ts_data.size());
  EXPECT_LT(low.ts_data.size(), mid.ts_data.size());
  // Same cut boundaries.
  EXPECT_NEAR(to_s(mid.start_dts), to_s(src.start_dts), 1e-9);
  EXPECT_NEAR(to_s(low.duration), to_s(src.duration), 1e-9);
}

TEST(Ladder, MasterPlaylistListsRenditions) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, abr_broadcast(6),
                                      ladder_config());
  auto variants = hls::parse_master_m3u8(pipe.master_playlist());
  ASSERT_TRUE(variants.ok());
  ASSERT_EQ(variants.value().size(), 3u);
  EXPECT_DOUBLE_EQ(variants.value()[0].bandwidth_bps, 400e3);
  EXPECT_DOUBLE_EQ(variants.value()[2].bandwidth_bps, 120e3);
}

/// Resolve a segment URI ("seg_N.ts", "rK/seg_N.ts") the way the edge
/// does: split the request path, then look the sequence up in the
/// rendition's edge log.
const hls::EdgeSegment* find_segment(
    const service::LiveBroadcastPipeline& pipe, const std::string& uri,
    TimePoint now) {
  const std::string request = "/hls/" + pipe.info().id + "/" + uri;
  const auto path = hls::split_edge_path(request);
  if (!path || path->rendition >= pipe.rendition_count()) return nullptr;
  const auto seq = hls::parse_segment_leaf(path->leaf);
  return seq ? pipe.edge_log(path->rendition).find(*seq, now) : nullptr;
}

TEST(Ladder, FindSegmentResolvesRenditionUris) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, abr_broadcast(7),
                                      ladder_config());
  pipe.start(seconds(20));
  sim.run_until(time_at(20));
  ASSERT_GE(pipe.edge_log(1).size(), 1u);
  const auto seq = pipe.edge_log(1)[0].segment.sequence;
  const auto* es = find_segment(
      pipe, "r1/seg_" + std::to_string(seq) + ".ts", sim.now());
  ASSERT_NE(es, nullptr);
  EXPECT_EQ(es->segment.sequence, seq);
  EXPECT_EQ(find_segment(pipe, "r9/seg_0.ts", sim.now()), nullptr);
}

struct AbrHarness {
  explicit AbrHarness(std::uint64_t seed, BitRate bw_limit)
      : info(abr_broadcast(seed)),
        pipe(sim, info, ladder_config()),
        pool(seed),
        device(sim, client::DeviceConfig{}, seed) {
    if (bw_limit > 0) device.set_bandwidth_limit(bw_limit);
    pipe.start(seconds(120));
    sim.run_until(time_at(20));
  }

  sim::Simulation sim;
  service::BroadcastInfo info;
  service::LiveBroadcastPipeline pipe;
  service::MediaServerPool pool;
  client::Device device;
};

TEST(Abr, FastLinkConvergesToSourceRendition) {
  AbrHarness h(8, 0);
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 9,
      client::HlsViewerSession::Mode::Live, /*adaptive=*/true);
  session.start(seconds(60));
  h.sim.run_until(h.sim.now() + seconds(70));
  const auto& fetched = session.fetched_renditions();
  ASSERT_GE(fetched.size(), 8u);
  // Starts low, ramps to the source rendition (index 0).
  EXPECT_NE(fetched.front(), 0u);
  EXPECT_EQ(fetched.back(), 0u);
  EXPECT_GT(session.throughput_estimate_bps(), 1e6);
}

TEST(Abr, ThinLinkStaysLowAndStallsLess) {
  // 0.3 Mbps: the 330 kbps source cannot fit; ABR should ride a ladder
  // rendition and avoid (most) stalls, while the fixed-rendition client
  // stalls hard — the paper's "fewer stalls through lowered bitrate".
  AbrHarness h_fixed(10, 0.3e6);
  client::HlsViewerSession fixed(
      h_fixed.sim, h_fixed.pipe, h_fixed.device,
      h_fixed.pool.hls_edges()[0], h_fixed.pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 11,
      client::HlsViewerSession::Mode::Live, /*adaptive=*/false);
  fixed.start(seconds(60));
  h_fixed.sim.run_until(h_fixed.sim.now() + seconds(70));

  AbrHarness h_abr(10, 0.3e6);
  client::HlsViewerSession abr(
      h_abr.sim, h_abr.pipe, h_abr.device, h_abr.pool.hls_edges()[0],
      h_abr.pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 11,
      client::HlsViewerSession::Mode::Live, /*adaptive=*/true);
  abr.start(seconds(60));
  h_abr.sim.run_until(h_abr.sim.now() + seconds(70));

  // ABR mostly fetches ladder renditions on the thin link.
  std::size_t low_fetches = 0;
  for (std::size_t r : abr.fetched_renditions()) {
    if (r != 0) ++low_fetches;
  }
  EXPECT_GT(low_fetches * 2, abr.fetched_renditions().size());
  EXPECT_LE(abr.stats().stalled_s, fixed.stats().stalled_s);
  EXPECT_GT(abr.stats().played_s, fixed.stats().played_s * 0.9);
}

TEST(Abr, LadderRenditionStillAnalyzable) {
  // Capture of a ladder rendition reconstructs with the shifted QP.
  AbrHarness h(12, 0.3e6);
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 13,
      client::HlsViewerSession::Mode::Live, /*adaptive=*/true);
  session.start(seconds(60));
  h.sim.run_until(h.sim.now() + seconds(70));
  auto a = analysis::reconstruct_hls(session.capture());
  ASSERT_TRUE(a.ok());
  ASSERT_FALSE(a.value().frames.empty());
  // Ladder QPs are shifted up; the analysis still recovers them and the
  // NTP marks survive transcoding.
  EXPECT_GT(a.value().avg_qp(), 20.0);
  EXPECT_FALSE(a.value().ntp_marks.empty());
}

}  // namespace
}  // namespace psc
