// Viewer-session lifecycle edges: an adaptive HLS session that joins
// during a CDN-wide outage still plays once the outage ends, and
// safe_destroy_at() covers the retry ladders and fetch timeout of the
// resilience policy the session was given, not just the default one.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "client/device.h"
#include "client/viewer_session.h"
#include "fault/plan.h"
#include "service/pipeline.h"
#include "service/servers.h"

namespace psc {
namespace {

service::BroadcastInfo broadcast(std::uint64_t seed) {
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo b =
      service::draw_broadcast(pop, rng, {40.7, -74.0}, time_at(0));
  b.peak_viewers = 500;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  b.frame_loss_prob = 0;
  return b;
}

service::PipelineConfig quiet(service::PipelineConfig cfg = {}) {
  cfg.hiccup_rate_per_min = 0;
  return cfg;
}

struct Harness {
  explicit Harness(std::uint64_t seed,
                   const service::PipelineConfig& cfg = quiet())
      : pipe(sim, broadcast(seed), cfg),
        pool(seed),
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

const client::PlayerConfig kHlsPlayer{millis(500), millis(2000)};

// The master playlist 503s at join; the session must keep polling the
// media playlist on the source rendition and play once the CDN is back.
TEST(ViewerLifecycle, AdaptiveJoinDuringEdgeOutagePlaysAfterIt) {
  service::PipelineConfig cfg;
  cfg.transcode_ladder = {
      {"mid", media::TranscodeProfile{0.55, 5}, 220e3},
      {"low", media::TranscodeProfile{0.3, 10}, 120e3},
  };
  Harness h(81, quiet(cfg));
  const fault::Plan plan = plan_of("episode edge_outage start=0 dur=40\n");
  h.pipe.start(seconds(120));
  h.sim.run_until(time_at(20));
  client::HlsViewerSession session(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      kHlsPlayer, 82, client::HlsViewerSession::Mode::Live,
      /*adaptive=*/true, Duration{0}, Duration{0}, nullptr, plan);
  session.start(seconds(60));
  h.sim.run_until(time_at(90));
  const client::SessionStats st = session.stats();
  EXPECT_TRUE(st.ever_played);
  EXPECT_GT(st.played_s, 20.0);
  ASSERT_FALSE(session.fetched_renditions().empty());
  // No variants known: ABR stays on the source rendition.
  for (std::size_t r : session.fetched_renditions()) EXPECT_EQ(r, 0u);
}

// A 60 s reconnect cap: the origin drops the connection 2 s before the
// watch time ends, so the reconnect event is still pending well past the
// 15 s the default policy needs. Destroying the session at
// safe_destroy_at() and running on must touch no freed memory (checked
// under ASan).
TEST(ViewerLifecycle, SafeDestroyCoversLongReconnectLadder) {
  Harness h(91);
  const fault::Plan plan = plan_of("episode origin_restart start=68 dur=5\n");
  fault::ResilienceConfig policy;
  policy.rtmp_reconnect = {seconds(60), 2.0, seconds(60), 0.25, 3};
  h.pipe.start(seconds(200));
  h.sim.run_until(time_at(10));
  const service::MediaServer& origin =
      h.pool.rtmp_origin_for(h.pipe.info().location, h.pipe.info().id);
  auto session = std::make_unique<client::RtmpViewerSession>(
      h.sim, h.pipe, h.device, origin,
      client::PlayerConfig{millis(1800), millis(1000)}, 92, Duration{0},
      nullptr, plan, policy);
  session->start(seconds(60));
  h.sim.run_until(time_at(72));
  session->retire();
  const TimePoint destroy_at = session->safe_destroy_at();
  // Stop at 70 s; one reconnect delay is at most 60 s x (1 + 0.25).
  EXPECT_GE(to_s(destroy_at), 70.0 + 75.0);
  h.sim.run_until(destroy_at);
  session.reset();
  h.sim.run_until(time_at(300));
}

TEST(ViewerLifecycle, SafeDestroyCoversLongFetchTimeout) {
  Harness h(93);
  fault::ResilienceConfig policy;
  policy.hls_fetch_timeout = seconds(60);
  policy.hls_retry = {seconds(1), 2.0, seconds(20), 0.5, 3};
  const fault::Plan plan =
      plan_of("episode rate_collapse start=60 dur=60 severity=0.001\n");
  h.pipe.start(seconds(200));
  h.sim.run_until(time_at(20));
  auto session = std::make_unique<client::HlsViewerSession>(
      h.sim, h.pipe, h.device, h.pool.hls_edges()[0], h.pool.hls_edges()[1],
      kHlsPlayer, 94, client::HlsViewerSession::Mode::Live, false,
      Duration{0}, Duration{0}, nullptr, plan, &policy);
  session->start(seconds(60));
  h.sim.run_until(time_at(82));
  session->retire();
  const TimePoint destroy_at = session->safe_destroy_at();
  // Stop at 80 s; a fetch timeout (60 s) plus one retry delay (at most
  // 20 s x 1.5) may still be pending.
  EXPECT_GE(to_s(destroy_at), 80.0 + 60.0 + 30.0);
  h.sim.run_until(destroy_at);
  session.reset();
  h.sim.run_until(time_at(300));
}

}  // namespace
}  // namespace psc
