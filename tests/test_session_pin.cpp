// Viewer sessions pinned by digest: for six sessions covering both
// protocols, the clean and faulted paths and every HLS mode, the capture
// (each packet's arrival time and bytes), every SessionStats field and,
// for HLS, the request count and the renditions fetched. The session code
// may change how it is organised, never what a session sends, receives
// or reports.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "client/device.h"
#include "client/viewer_session.h"
#include "fault/plan.h"
#include "obs/bundle.h"
#include "service/pipeline.h"
#include "service/servers.h"
#include "testing/fuzz_target.h"
#include "util/strings.h"

namespace psc {
namespace {

std::uint64_t mix_u64(std::uint64_t v, std::uint64_t h) {
  unsigned char b[8];
  std::memcpy(b, &v, sizeof b);
  return testing::fnv1a(BytesView(b, sizeof b), h);
}

std::uint64_t capture_digest(const net::Capture& cap) {
  std::uint64_t h = testing::fnv1a(BytesView{});
  for (std::size_t i = 0; i < cap.packets().size(); ++i) {
    double t = to_s(cap.packets()[i].time);
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof bits);
    h = mix_u64(bits, h);
    h = testing::fnv1a(cap.packet_data(i), h);
  }
  return h;
}

/// Every SessionStats field, doubles in exact hex-float form.
std::string stats_line(const client::SessionStats& st) {
  return strf(
      "proto=%d id=%s model=%s ip=%s ip2=%s region=%s dist=%a viewers=%a "
      "played=%d join=%a played_s=%a stalled=%a stalls=%d ratio=%a "
      "latency=%a fps=%a bytes=%llu cohort=%d weight=%a agg=%a load=%a "
      "outcome=%d reconnects=%d retries=%d",
      static_cast<int>(st.protocol), st.broadcast_id.c_str(),
      st.device_model.c_str(), st.server_ip.c_str(),
      st.secondary_server_ip.c_str(), st.server_region.c_str(),
      st.distance_km, st.avg_viewers, st.ever_played ? 1 : 0,
      st.join_time_s, st.played_s, st.stalled_s, st.stall_count,
      st.stall_ratio, st.playback_latency_s, st.reported_fps,
      static_cast<unsigned long long>(st.bytes_received), st.cohort ? 1 : 0,
      st.cohort_weight, st.agg_viewers_at_join, st.server_load_at_join,
      static_cast<int>(st.outcome), st.reconnects, st.retries);
}

struct Pin {
  std::size_t packets = 0;
  std::uint64_t capture = 0;
  std::uint64_t stats = 0;
  std::uint64_t http_requests = 0;  // HLS only
  std::uint64_t renditions = 0;     // HLS only: digest of the fetch order
  std::string line;                 // for failure messages
};

Pin pin_of(const client::ViewerSession& session) {
  Pin p;
  p.packets = session.capture().packets().size();
  p.capture = capture_digest(session.capture());
  p.line = stats_line(session.stats());
  p.stats = testing::fnv1a(to_bytes(p.line));
  return p;
}

Pin pin_of(const client::HlsViewerSession& session) {
  Pin p = pin_of(static_cast<const client::ViewerSession&>(session));
  p.http_requests = session.http_requests();
  std::uint64_t h = testing::fnv1a(BytesView{});
  for (std::size_t r : session.fetched_renditions()) h = mix_u64(r, h);
  p.renditions = h;
  return p;
}

service::BroadcastInfo broadcast(std::uint64_t seed, double peak_viewers,
                                 geo::GeoPoint where = {48.8, 2.35}) {
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo b = service::draw_broadcast(pop, rng, where,
                                                     time_at(0));
  b.peak_viewers = peak_viewers;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  b.frame_loss_prob = 0;
  b.available_for_replay = true;
  return b;
}

service::PipelineConfig quiet_pipeline() {
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  return cfg;
}

struct Harness {
  Harness(const service::BroadcastInfo& info,
          const service::PipelineConfig& cfg, std::uint64_t seed)
      : pipe(sim, info, cfg), pool(seed),
        device(sim, client::DeviceConfig{}, seed) {}

  sim::Simulation sim;
  service::LiveBroadcastPipeline pipe;
  service::MediaServerPool pool;
  client::Device device;
};

fault::Plan plan_of(const char* episodes) {
  auto plan =
      fault::Plan::parse(std::string("# psc-fault-plan v1\n") + episodes);
  EXPECT_TRUE(plan.ok());
  return plan.ok() ? std::move(plan).value() : fault::Plan();
}

const client::PlayerConfig kRtmpPlayer{millis(1800), millis(1000)};
const client::PlayerConfig kHlsPlayer{millis(500), millis(2000)};

Pin rtmp_session(const fault::Plan& plan, obs::Obs* obs,
                 client::SessionStats* out) {
  Harness h(broadcast(31, 10), quiet_pipeline(), 31);
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(10));
  const service::MediaServer& origin =
      h.pool.rtmp_origin_for(h.pipe.info().location, h.pipe.info().id);
  client::RtmpViewerSession session(h.sim, h.pipe, h.device, origin,
                                    kRtmpPlayer, 32, Duration{0}, obs, plan);
  session.start(seconds(60));
  h.sim.run_until(time_at(85));
  *out = session.stats();
  return pin_of(session);
}

void expect_pin(const Pin& got, std::size_t packets, std::uint64_t capture,
                std::uint64_t stats) {
  EXPECT_EQ(got.packets, packets);
  EXPECT_EQ(got.capture, capture);
  EXPECT_EQ(got.stats, stats) << got.line;
}

TEST(SessionPin, RtmpClean) {
  client::SessionStats st;
  const Pin p = rtmp_session(fault::Plan::none(), nullptr, &st);
  EXPECT_TRUE(st.ever_played);
  EXPECT_EQ(st.reconnects, 0);
  expect_pin(p, 4378u, 0x3a061aba35c4c419ull, 0x6815b0fdae66eb30ull);
}

TEST(SessionPin, RtmpOriginRestartReconnects) {
  const fault::Plan plan = plan_of("episode origin_restart start=30 dur=4\n");
  obs::Obs obs;
  client::SessionStats st;
  const Pin p = rtmp_session(plan, &obs, &st);
  EXPECT_EQ(st.outcome, client::Outcome::Completed);
  EXPECT_GE(st.reconnects, 1);
  EXPECT_GE(st.retries, st.reconnects);
  EXPECT_EQ(obs.metrics.counter("rtmp_disconnects_total").value(), 1);
  expect_pin(p, 3902u, 0x3d6962bf0c038f63ull, 0xfe57b12c56f7bb99ull);
}

TEST(SessionPin, HlsLiveClean) {
  Harness h(broadcast(41, 500), quiet_pipeline(), 41);
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(20));
  client::HlsViewerSession session(h.sim, h.pipe, h.device,
                                   h.pool.hls_edges()[0],
                                   h.pool.hls_edges()[1], kHlsPlayer, 42);
  session.start(seconds(60));
  h.sim.run_until(time_at(95));
  const Pin p = pin_of(session);
  EXPECT_TRUE(session.stats().ever_played);
  expect_pin(p, 20u, 0x2a8c6394dc9bfab3ull, 0x8224af658727cd0dull);
  EXPECT_EQ(p.http_requests, 36u);
}

// One edge is out for a while (its segment fetches 503 and the retries
// fail over to the other edge), then the radio rate collapses so far that
// segment downloads outlast the fetch timeout.
TEST(SessionPin, HlsLiveResilientUnderEdgeOutage) {
  const fault::Plan plan = plan_of(
      "episode edge_outage start=30 dur=15 target=0\n"
      "episode rate_collapse start=52 dur=20 severity=0.001\n");
  const fault::ResilienceConfig policy;
  obs::Obs obs;
  Harness h(broadcast(51, 500), quiet_pipeline(), 51);
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(20));
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      kHlsPlayer, 52, client::HlsViewerSession::Mode::Live, false,
      Duration{0}, Duration{0}, &obs, plan, &policy);
  session.start(seconds(60));
  h.sim.run_until(time_at(95));
  const Pin p = pin_of(session);
  EXPECT_GE(obs.metrics.counter("hls_fetch_timeouts_total").value(), 1);
  EXPECT_GE(obs.metrics.counter("hls_retries_total").value(), 1);
  EXPECT_GE(session.stats().retries, 1);
  EXPECT_EQ(session.stats().outcome, client::Outcome::Completed);
  expect_pin(p, 20u, 0x8b329a361c7d3932ull, 0xb091c4f3f923f0c5ull);
  EXPECT_EQ(p.http_requests, 41u);
}

TEST(SessionPin, HlsAdaptiveLadder) {
  service::PipelineConfig cfg = quiet_pipeline();
  cfg.transcode_ladder = {
      {"mid", media::TranscodeProfile{0.55, 5}, 220e3},
      {"low", media::TranscodeProfile{0.3, 10}, 120e3},
  };
  Harness h(broadcast(61, 500, {40.7, -74.0}), cfg, 61);
  h.device.set_bandwidth_limit(0.4e6);
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(18));
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      kHlsPlayer, 62, client::HlsViewerSession::Mode::Live,
      /*adaptive=*/true);
  session.start(seconds(60));
  h.sim.run_until(time_at(90));
  const Pin p = pin_of(session);
  EXPECT_GT(session.abr_switches(), 0u);
  expect_pin(p, 18u, 0xe9aecd9e813ecd73ull, 0xddb99c3d66491d57ull);
  EXPECT_EQ(p.http_requests, 36u);
  EXPECT_EQ(p.renditions, 0x260d2701240c8e65ull);
}

TEST(SessionPin, HlsReplay) {
  Harness h(broadcast(71, 50, {35.6, 139.7}), quiet_pipeline(), 71);
  h.pipe.start(seconds(50));
  h.sim.run_until(time_at(55));
  h.pipe.stop();
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      kHlsPlayer, 72, client::HlsViewerSession::Mode::Replay);
  session.start(seconds(45));
  h.sim.run_until(time_at(105));
  const Pin p = pin_of(session);
  EXPECT_TRUE(session.stats().ever_played);
  expect_pin(p, 13u, 0xb4761e1a25c91ef8ull, 0xb83526fa3434e1f0ull);
  EXPECT_EQ(p.http_requests, 15u);
}

}  // namespace
}  // namespace psc
