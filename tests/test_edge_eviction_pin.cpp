// HLS viewers that share an edge, pinned by digest: three live viewers of
// one pipeline joining at 0, 10 and 25 s (the second behind a 0.5 Mbps
// downlink, through a single-edge outage and then a rate collapse, with
// the retry ladder on, so it refetches and falls behind the live window
// its peers play at), an adaptive viewer on a transcode ladder and a
// replay viewer. Each session's kept capture bytes, every
// SessionStats field and its HTTP request count are hashed. How long the
// edge keeps a segment's bytes may change; what any viewer fetches,
// receives or reports may not.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "client/device.h"
#include "client/viewer_session.h"
#include "fault/plan.h"
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

std::uint64_t mix_double(double v, std::uint64_t h) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return mix_u64(bits, h);
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

/// The capture (each packet's time and kept bytes), the stats line and
/// the request count of one session, folded into one digest.
std::uint64_t session_digest(const client::HlsViewerSession& s,
                             std::string* line) {
  std::uint64_t h = testing::fnv1a(BytesView{});
  const net::Capture& cap = s.capture();
  for (std::size_t i = 0; i < cap.packets().size(); ++i) {
    h = mix_double(to_s(cap.packets()[i].time), h);
    h = testing::fnv1a(cap.packet_data(i), h);
  }
  *line = stats_line(s.stats());
  h = testing::fnv1a(to_bytes(*line), h);
  return mix_u64(s.http_requests(), h);
}

service::BroadcastInfo broadcast(std::uint64_t seed, double peak_viewers,
                                 geo::GeoPoint where) {
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

fault::Plan plan_of(const char* episodes) {
  auto plan =
      fault::Plan::parse(std::string("# psc-fault-plan v1\n") + episodes);
  EXPECT_TRUE(plan.ok());
  return plan.ok() ? std::move(plan).value() : fault::Plan();
}

const client::PlayerConfig kHlsPlayer{millis(500), millis(2000)};

struct Viewer {
  std::unique_ptr<client::Device> device;
  std::unique_ptr<client::HlsViewerSession> session;
};

TEST(EdgeEvictionPin, ThreeLiveViewersJoiningApart) {
  sim::Simulation sim;
  service::PipelineConfig cfg;  // hiccups on: the uplink stalls too
  service::BroadcastInfo info = broadcast(81, 800, {48.8, 2.35});
  // A high-rate broadcast (the paper's upper bitrate mode), so the
  // 0.5 Mbps viewer falls behind the live window.
  info.video_bitrate = 700e3;
  service::LiveBroadcastPipeline pipe(sim, info, cfg);
  service::MediaServerPool pool(81);
  const fault::Plan outage =
      plan_of("episode edge_outage start=30 dur=15 target=0\n"
              "episode rate_collapse start=40 dur=22 severity=0.01\n");
  const fault::ResilienceConfig policy;
  pipe.start(seconds(120));

  const double joins[] = {0, 10, 25};
  std::vector<Viewer> viewers;
  for (std::size_t i = 0; i < 3; ++i) {
    Viewer v;
    v.device = std::make_unique<client::Device>(sim, client::DeviceConfig{},
                                                82 + i);
    const bool lagging = i == 1;
    if (lagging) v.device->set_bandwidth_limit(0.5e6);
    v.session = std::make_unique<client::HlsViewerSession>(
        sim, pipe, *v.device, pool.hls_edges()[0], pool.hls_edges()[1],
        kHlsPlayer, 85 + i, client::HlsViewerSession::Mode::Live, false,
        Duration{0}, Duration{0}, nullptr,
        lagging ? outage : fault::Plan::none(), lagging ? &policy : nullptr);
    viewers.push_back(std::move(v));
  }
  for (std::size_t i = 0; i < viewers.size(); ++i) {
    sim.schedule_at(time_at(joins[i]), [&viewers, i] {
      viewers[i].session->start(seconds(60));
    });
  }
  sim.run_until(time_at(100));

  const client::SessionStats lagging = viewers[1].session->stats();
  EXPECT_GE(lagging.retries, 1);
  EXPECT_GT(lagging.stall_count, 0);
  const std::uint64_t want[] = {0x6f42cc9609e35ad0ull, 0x19a30cd987b42451ull,
                                0x38434315393f0e46ull};
  for (std::size_t i = 0; i < viewers.size(); ++i) {
    std::string line;
    const std::uint64_t got = session_digest(*viewers[i].session, &line);
    EXPECT_TRUE(viewers[i].session->stats().ever_played) << i;
    EXPECT_EQ(got, want[i]) << "viewer " << i << ": " << line;
  }
}

TEST(EdgeEvictionPin, AdaptiveViewerOnTheLadder) {
  sim::Simulation sim;
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  // The hls_adaptive ladder a campaign session packages.
  cfg.transcode_ladder = {
      {"mid", media::TranscodeProfile{0.55, 5}, 220e3},
      {"low", media::TranscodeProfile{0.3, 10}, 120e3},
  };
  service::LiveBroadcastPipeline pipe(
      sim, broadcast(91, 800, {40.7, -74.0}), cfg);
  service::MediaServerPool pool(91);
  client::Device device(sim, client::DeviceConfig{}, 92);
  device.set_bandwidth_limit(0.6e6);
  pipe.start(seconds(120));
  sim.run_until(time_at(12));
  client::HlsViewerSession session(
      sim, pipe, device, pool.hls_edges()[0], pool.hls_edges()[1],
      kHlsPlayer, 93, client::HlsViewerSession::Mode::Live,
      /*adaptive=*/true);
  session.start(seconds(60));
  sim.run_until(time_at(85));
  EXPECT_GT(session.abr_switches(), 0u);
  std::string line;
  EXPECT_EQ(session_digest(session, &line), 0xd3aafda29ec7d6f8ull) << line;
}

TEST(EdgeEvictionPin, ReplayViewer) {
  sim::Simulation sim;
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  service::LiveBroadcastPipeline pipe(
      sim, broadcast(101, 60, {35.6, 139.7}), cfg);
  service::MediaServerPool pool(101);
  client::Device device(sim, client::DeviceConfig{}, 102);
  pipe.start(seconds(40));
  sim.run_until(time_at(45));
  pipe.stop();
  client::HlsViewerSession session(
      sim, pipe, device, pool.hls_edges()[0], pool.hls_edges()[1],
      kHlsPlayer, 103, client::HlsViewerSession::Mode::Replay);
  session.start(seconds(40));
  sim.run_until(time_at(95));
  EXPECT_TRUE(session.stats().ever_played);
  std::string line;
  EXPECT_EQ(session_digest(session, &line), 0x6694fc65250c0bbcull) << line;
}

}  // namespace
}  // namespace psc
