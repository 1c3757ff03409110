// Live pipeline + viewer session integration tests: RTMP and HLS viewing
// over the simulated network, capture reconstruction vs encoder ground
// truth, bandwidth-limit effects.
#include <gtest/gtest.h>

#include "analysis/reconstruct.h"
#include "analysis/stats.h"
#include "client/device.h"
#include "client/viewer_session.h"
#include "obs/bundle.h"
#include "service/pipeline.h"
#include "service/servers.h"
#include "testing/fuzz_target.h"

namespace psc {
namespace {

service::BroadcastInfo test_broadcast(std::uint64_t seed,
                                      double peak_viewers = 10) {
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo b =
      service::draw_broadcast(pop, rng, {48.8, 2.35}, time_at(0));
  b.peak_viewers = peak_viewers;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  b.frame_loss_prob = 0;
  return b;
}

service::PipelineConfig quiet_pipeline() {
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;  // deterministic tests
  return cfg;
}

TEST(Pipeline, SamplesReachOriginInDtsOrder) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, test_broadcast(1),
                                      quiet_pipeline());
  std::vector<double> dts;
  rtmp::ServerSession viewer(1);
  pipe.origin().attach(viewer, [&](const media::MediaSample& s) {
    dts.push_back(to_s(s.dts));
  });
  pipe.start(seconds(10));
  sim.run_until(time_at(10));
  ASSERT_GT(dts.size(), 400u);  // ~73 samples/s
  for (std::size_t i = 1; i < dts.size(); ++i) {
    EXPECT_GE(dts[i], dts[i - 1]);
  }
}

TEST(Pipeline, BacklogStartsAtKeyframe) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, test_broadcast(2),
                                      quiet_pipeline());
  pipe.start(seconds(20));
  sim.run_until(time_at(10));
  const auto& backlog = pipe.origin().backlog();
  ASSERT_FALSE(backlog.empty());
  // First video sample in the backlog must be a keyframe.
  for (const media::MediaSample& s : backlog) {
    if (s.kind == media::SampleKind::Video) {
      EXPECT_TRUE(s.keyframe);
      break;
    }
  }
}

TEST(Pipeline, SegmentsArriveAtEdgeDelayed) {
  sim::Simulation sim;
  service::PipelineConfig cfg = quiet_pipeline();
  service::LiveBroadcastPipeline pipe(sim, test_broadcast(3), cfg);
  pipe.start(seconds(30));
  sim.run_until(time_at(30));
  const auto& segs = pipe.edge_log();
  ASSERT_GE(segs.size(), 5u);
  for (const auto& es : segs) {
    // A segment covering [start, start+dur] cannot be on the edge before
    // its last frame was produced + packaging delay.
    const double earliest =
        to_s(es.segment.start_dts + es.segment.duration) +
        to_s(cfg.packaging_delay);
    EXPECT_GE(to_s(es.available_at), earliest);
    // The very first segment can run one GOP long (B-frame decode-order
    // DTS offsets the first cut boundary); steady state is 3.6 s.
    EXPECT_GE(to_s(es.segment.duration), 3.3);
    EXPECT_LE(to_s(es.segment.duration), 4.9);
  }
  // Steady-state mode is the paper's 3.6 s.
  EXPECT_NEAR(to_s(segs[2].segment.duration), 3.6, 0.1);
  EXPECT_NEAR(to_s(segs[3].segment.duration), 3.6, 0.1);
}

TEST(Pipeline, PlaylistSnapshotRespectsAvailability) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, test_broadcast(4),
                                      quiet_pipeline());
  pipe.start(seconds(30));
  sim.run_until(time_at(30));
  ASSERT_GE(pipe.edge_log().size(), 3u);
  const TimePoint mid = pipe.edge_log()[1].available_at;
  const hls::MediaPlaylist early = pipe.edge_log().live(mid);
  const hls::MediaPlaylist late = pipe.edge_log().live(time_at(30));
  EXPECT_LT(early.segments.size() + early.media_sequence,
            late.segments.size() + late.media_sequence);
}

TEST(Pipeline, RetireNeutersCallbacks) {
  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe(sim, test_broadcast(5),
                                      quiet_pipeline());
  int delivered = 0;
  rtmp::ServerSession viewer(1);
  pipe.origin().attach(viewer,
                       [&](const media::MediaSample&) { ++delivered; });
  pipe.start(seconds(30));
  sim.run_until(time_at(5));
  const int before = delivered;
  EXPECT_GT(before, 0);
  pipe.retire();
  sim.run_until(time_at(30));  // drain remaining events — must not crash
  EXPECT_EQ(delivered, before);
  EXPECT_TRUE(pipe.origin().backlog().empty());
}

service::PipelineConfig laddered_pipeline() {
  service::PipelineConfig cfg = quiet_pipeline();
  cfg.transcode_ladder = {{"low", media::TranscodeProfile{0.3, 10}, 120e3}};
  return cfg;
}

/// A pipeline with an RTMP player attached, drained in steps: the digest
/// and length of every byte the origin wrote to the player.
struct OriginTap {
  explicit OriginTap(std::uint64_t seed)
      : pipe(sim, test_broadcast(seed), laddered_pipeline()), viewer(1) {
    pipe.origin().attach(viewer);
    pipe.start(seconds(40));
  }
  void run_until(double t_s) {
    sim.run_until(time_at(t_s));
    const Bytes out = viewer.take_output();
    digest = testing::fnv1a(out, digest);
    bytes += out.size();
  }

  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe;
  rtmp::ServerSession viewer;
  std::uint64_t digest = testing::fnv1a(BytesView{});
  std::size_t bytes = 0;
};

TEST(Pipeline, ReleasedHlsEdgeStaysEmptyPastSegmentsInFlight) {
  // The twin keeps packaging; it tells when segment 3 lands.
  OriginTap twin(6);
  twin.run_until(40);
  ASSERT_GE(twin.pipe.edge_log(0).size(), 6u);
  ASSERT_GE(twin.pipe.edge_log(1).size(), 6u);
  const double landed = to_s(twin.pipe.edge_log(0)[3].available_at);

  // Release while segment 3 is past its cut but not yet on the edge.
  OriginTap tap(6);
  tap.run_until(landed - 0.5);
  ASSERT_EQ(tap.pipe.edge_log(0).size(), 3u);
  tap.pipe.release_hls();
  for (std::size_t r = 0; r < tap.pipe.rendition_count(); ++r) {
    EXPECT_EQ(tap.pipe.edge_log(r).size(), 0u) << r;
  }
  for (double t = landed; t <= 40; t += 1.0) {
    tap.run_until(t);
    for (std::size_t r = 0; r < tap.pipe.rendition_count(); ++r) {
      EXPECT_EQ(tap.pipe.edge_log(r).size(), 0u) << r << " at " << t;
    }
  }
}

TEST(Pipeline, ReleaseLeavesOriginFanOutBytesEqual) {
  OriginTap kept(7);
  OriginTap released(7);
  for (double t = 1; t <= 40; t += 1.0) {
    if (t == 12) released.pipe.release_hls();
    kept.run_until(t);
    released.run_until(t);
  }
  EXPECT_GT(kept.bytes, 100000u);
  EXPECT_EQ(released.bytes, kept.bytes);
  EXPECT_EQ(released.digest, kept.digest);
  EXPECT_EQ(released.pipe.samples_produced(), kept.pipe.samples_produced());
  EXPECT_GE(kept.pipe.edge_log().size(), 6u);
  EXPECT_EQ(released.pipe.edge_log().size(), 0u);
}

TEST(Pipeline, RetireAfterReleaseIsHarmlessAndCountedOnce) {
  obs::Obs obs;
  sim::Simulation sim;
  service::LiveBroadcastPipeline released(sim, test_broadcast(8),
                                          laddered_pipeline());
  service::LiveBroadcastPipeline retired_only(sim, test_broadcast(9),
                                              laddered_pipeline());
  released.set_obs(&obs);
  retired_only.set_obs(&obs);
  released.start(seconds(30));
  retired_only.start(seconds(30));
  sim.run_until(time_at(10));
  released.release_hls();
  released.release_hls();
  sim.run_until(time_at(15));
  released.stop();
  released.retire();
  retired_only.stop();
  retired_only.retire();
  sim.run_until(time_at(40));  // drain every in-flight event
  EXPECT_TRUE(released.origin().backlog().empty());
  for (std::size_t r = 0; r < released.rendition_count(); ++r) {
    EXPECT_EQ(released.edge_log(r).size(), 0u) << r;
    EXPECT_EQ(retired_only.edge_log(r).size(), 0u) << r;
  }
  // Only the release of a producing pipeline counts: not the repeat, not
  // either retirement.
  EXPECT_EQ(obs.metrics.counter("pipeline_hls_released_total").value(), 1);
}

struct SessionHarness {
  explicit SessionHarness(std::uint64_t seed, double peak = 10,
                          BitRate bw_limit = 0)
      : info(test_broadcast(seed, peak)),
        pipe(sim, info, quiet_pipeline()),
        pool(seed),
        device(sim, client::DeviceConfig{}, seed) {
    if (bw_limit > 0) device.set_bandwidth_limit(bw_limit);
  }

  sim::Simulation sim;
  service::BroadcastInfo info;
  service::LiveBroadcastPipeline pipe;
  service::MediaServerPool pool;
  client::Device device;
};

TEST(RtmpViewer, SessionDeliversPlayableStream) {
  SessionHarness h(10);
  h.pipe.start(seconds(90));
  h.sim.run_until(time_at(10));
  const service::MediaServer& origin =
      h.pool.rtmp_origin_for(h.info.location, h.info.id);
  client::RtmpViewerSession session(
      h.sim, h.pipe, h.device, origin,
      client::PlayerConfig{millis(1800), millis(1000)}, 99);
  session.start(seconds(60));
  h.sim.run_until(time_at(75));
  const client::SessionStats st = session.stats();
  EXPECT_TRUE(st.ever_played);
  EXPECT_LT(st.join_time_s, 5.0);
  EXPECT_GT(st.played_s, 50.0);
  EXPECT_GT(st.bytes_received, 100000u);
  EXPECT_EQ(st.protocol, client::Protocol::Rtmp);
  EXPECT_GT(st.playback_latency_s, 0.5);
  EXPECT_LT(st.playback_latency_s, 10.0);
}

TEST(RtmpViewer, ReconstructionMatchesWireGroundTruth) {
  SessionHarness h(11);
  h.pipe.start(seconds(90));
  h.sim.run_until(time_at(10));
  const service::MediaServer& origin =
      h.pool.rtmp_origin_for(h.info.location, h.info.id);
  client::RtmpViewerSession session(
      h.sim, h.pipe, h.device, origin,
      client::PlayerConfig{millis(1800), millis(1000)}, 100);
  session.start(seconds(60));
  h.sim.run_until(time_at(75));

  auto analysis = analysis::reconstruct_rtmp(session.capture());
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();
  const analysis::StreamAnalysis& a = analysis.value();
  // Resolution from the in-band SPS.
  EXPECT_TRUE((a.width == 320 && a.height == 568) ||
              (a.width == 568 && a.height == 320));
  // ~30 fps for ~61 s of media.
  EXPECT_GT(a.frames.size(), 1500u);
  EXPECT_NEAR(a.fps(), 30.0, 1.5);
  // QP stays in the encoder's configured range.
  for (const analysis::FrameRecord& f : a.frames) {
    EXPECT_GE(f.qp, 18);
    EXPECT_LE(f.qp, 44);
  }
  // NTP SEIs about once per second of media.
  EXPECT_GT(a.ntp_marks.size(), 40u);
  // Delivery latency positive; marks from the join-time backlog burst
  // can be up to ~3.6 s old, but the steady-state median is sub-second.
  std::vector<double> latencies;
  for (const analysis::NtpMark& m : a.ntp_marks) {
    EXPECT_GT(m.delivery_latency_s(), 0.0);
    EXPECT_LT(m.delivery_latency_s(), 5.0);
    latencies.push_back(m.delivery_latency_s());
  }
  EXPECT_LT(analysis::median(latencies), 1.0);
  // Audio recovered too.
  EXPECT_EQ(a.audio_sample_rate, 44100);
  EXPECT_GT(a.audio_bitrate_bps, 10e3);
}

TEST(RtmpViewer, BandwidthLimitCausesStallsAndSlowJoin) {
  // At 0.5 Mbps the ~300 kbps stream with I-frame bursts struggles.
  SessionHarness fast(12, 10, 0);
  SessionHarness slow(12, 10, 0.5e6);
  auto run = [](SessionHarness& h, std::uint64_t seed) {
    h.pipe.start(seconds(90));
    h.sim.run_until(time_at(10));
    const service::MediaServer& origin =
        h.pool.rtmp_origin_for(h.info.location, h.info.id);
    client::RtmpViewerSession session(
        h.sim, h.pipe, h.device, origin,
        client::PlayerConfig{millis(1800), millis(1000)}, seed);
    session.start(seconds(60));
    h.sim.run_until(time_at(75));
    return session.stats();
  };
  const client::SessionStats f = run(fast, 7);
  const client::SessionStats s = run(slow, 7);
  EXPECT_GT(s.join_time_s, f.join_time_s);
  EXPECT_GE(s.stalled_s, f.stalled_s);
}

TEST(RtmpViewer, RetiredSessionRecordsNothingWhileItsLinkDrains) {
  // A slow access link keeps chunks in flight when the session retires.
  SessionHarness h(16, 10, 0.5e6);
  h.pipe.start(seconds(90));
  h.sim.run_until(time_at(10));
  const service::MediaServer& origin =
      h.pool.rtmp_origin_for(h.info.location, h.info.id);
  client::RtmpViewerSession session(
      h.sim, h.pipe, h.device, origin,
      client::PlayerConfig{millis(1800), millis(1000)}, 101);
  session.start(seconds(60));
  h.sim.run_until(time_at(30));
  ASSERT_GT(h.device.downlink().busy_until(), h.sim.now());
  session.retire();
  EXPECT_TRUE(session.capture().empty());
  h.sim.run_until(session.safe_destroy_at());
  EXPECT_TRUE(session.capture().empty());
  EXPECT_EQ(session.capture().total_bytes(), 0u);
}

TEST(HlsViewer, SessionFetchesSegmentsAndPlays) {
  SessionHarness h(13, 500);
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(20));  // let segments accumulate on the edge
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 55);
  session.start(seconds(60));
  h.sim.run_until(time_at(90));
  const client::SessionStats st = session.stats();
  EXPECT_TRUE(st.ever_played);
  EXPECT_EQ(st.protocol, client::Protocol::Hls);
  EXPECT_GT(st.played_s, 40.0);
  auto analysis = analysis::reconstruct_hls(session.capture());
  ASSERT_TRUE(analysis.ok());
  EXPECT_GE(analysis.value().segments.size(), 8u);
  // Modal segment duration 3.6 s.
  int near36 = 0;
  for (const auto& seg : analysis.value().segments) {
    if (std::abs(to_s(seg.duration) - 3.6) < 0.3) ++near36;
  }
  EXPECT_GT(near36 * 2, static_cast<int>(analysis.value().segments.size()));
}

TEST(HlsViewer, DeliveryLatencyExceedsRtmp) {
  // The structural result of Fig. 5.
  SessionHarness hr(14, 10);
  hr.pipe.start(seconds(120));
  hr.sim.run_until(time_at(20));
  const service::MediaServer& origin =
      hr.pool.rtmp_origin_for(hr.info.location, hr.info.id);
  client::RtmpViewerSession rtmp_session(
      hr.sim, hr.pipe, hr.device, origin,
      client::PlayerConfig{millis(1800), millis(1000)}, 1);
  rtmp_session.start(seconds(60));
  hr.sim.run_until(time_at(90));
  auto ra = analysis::reconstruct_rtmp(rtmp_session.capture());
  ASSERT_TRUE(ra.ok());

  SessionHarness hh(14, 500);
  hh.pipe.start(seconds(120));
  hh.sim.run_until(time_at(20));
  client::HlsViewerSession hls_session(
      hh.sim, hh.pipe, hh.device, hh.pool.hls_edges()[0],
      hh.pool.hls_edges()[1], client::PlayerConfig{millis(500), millis(2000)},
      2);
  hls_session.start(seconds(60));
  hh.sim.run_until(time_at(90));
  auto ha = analysis::reconstruct_hls(hls_session.capture());
  ASSERT_TRUE(ha.ok());

  auto mean_latency = [](const analysis::StreamAnalysis& a) {
    double s = 0;
    for (const auto& m : a.ntp_marks) s += m.delivery_latency_s();
    return s / static_cast<double>(a.ntp_marks.size());
  };
  ASSERT_FALSE(ra.value().ntp_marks.empty());
  ASSERT_FALSE(ha.value().ntp_marks.empty());
  const double rtmp_lat = mean_latency(ra.value());
  const double hls_lat = mean_latency(ha.value());
  EXPECT_LT(rtmp_lat, 1.0);
  EXPECT_GT(hls_lat, 3.0);
  EXPECT_GT(hls_lat, 5 * rtmp_lat);
}

TEST(HlsViewer, RetireFreesCapture) {
  SessionHarness h(15, 500);
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(20));
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 3);
  session.start(seconds(30));
  h.sim.run_until(time_at(40));
  session.retire();
  EXPECT_TRUE(session.capture().empty());
  h.sim.run_until(time_at(120));  // must not crash
}

}  // namespace
}  // namespace psc
