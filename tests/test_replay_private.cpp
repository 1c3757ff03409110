// Replay (VOD) viewing and private-broadcast handling (§3 features).
#include <gtest/gtest.h>

#include "analysis/reconstruct.h"
#include "client/viewer_session.h"
#include "service/api.h"
#include "service/world.h"
#include "service/pipeline.h"
#include "service/servers.h"

namespace psc {
namespace {

service::BroadcastInfo replay_broadcast(std::uint64_t seed) {
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo b =
      service::draw_broadcast(pop, rng, {35.6, 139.7}, time_at(0));
  b.peak_viewers = 50;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  b.frame_loss_prob = 0;
  b.available_for_replay = true;
  return b;
}

TEST(Replay, VodPlaylistListsEverySegmentWithEndlist) {
  sim::Simulation sim;
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  service::LiveBroadcastPipeline pipe(sim, replay_broadcast(1), cfg);
  pipe.start(seconds(40));
  sim.run_until(time_at(45));
  pipe.stop();
  const hls::MediaPlaylist vod = pipe.edge_log().vod();
  EXPECT_TRUE(vod.ended);
  EXPECT_EQ(vod.segments.size(), pipe.edge_log().size());
  EXPECT_GE(vod.segments.size(), 8u);
  // Live playlist is a sliding window; VOD keeps everything.
  const hls::MediaPlaylist live = pipe.edge_log().live(sim.now());
  EXPECT_LE(live.segments.size(), 6u);
  EXPECT_GE(vod.segments.size(), live.segments.size());
  // The M3U8 text round-trips with ENDLIST.
  auto parsed = hls::parse_m3u8(hls::write_m3u8(vod));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ended);
}

TEST(Replay, SessionPlaysFromTheBeginning) {
  sim::Simulation sim;
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  service::LiveBroadcastPipeline pipe(sim, replay_broadcast(2), cfg);
  service::MediaServerPool pool(3);
  client::Device device(sim, client::DeviceConfig{}, 4);
  pipe.start(seconds(50));
  sim.run_until(time_at(55));
  pipe.stop();

  client::HlsViewerSession session(
      sim, pipe, device, pool.hls_edges()[0], pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 5,
      client::HlsViewerSession::Mode::Replay);
  session.start(seconds(45));
  sim.run_until(sim.now() + seconds(50));
  const client::SessionStats st = session.stats();
  EXPECT_TRUE(st.ever_played);
  EXPECT_EQ(st.stall_count, 0);  // VOD on a fat link never stalls
  EXPECT_GT(st.played_s, 40.0);

  auto a = analysis::reconstruct_hls(session.capture());
  ASSERT_TRUE(a.ok());
  ASSERT_FALSE(a.value().frames.empty());
  // Replay starts at the first recorded segment: earliest PTS ~0.
  double min_pts = 1e18;
  for (const auto& f : a.value().frames) {
    min_pts = std::min(min_pts, to_s(f.pts));
  }
  EXPECT_LT(min_pts, 5.0);
}

TEST(Replay, VodFetchPacedByBoundedBuffer) {
  // A replay client keeps ~20 s buffered ahead — it neither starves nor
  // slurps the whole recording up front (that pacing is why Fig. 8
  // found replay power equal to live).
  sim::Simulation sim;
  service::PipelineConfig cfg;
  cfg.hiccup_rate_per_min = 0;
  service::LiveBroadcastPipeline pipe(sim, replay_broadcast(6), cfg);
  service::MediaServerPool pool(7);
  client::Device device(sim, client::DeviceConfig{}, 8);
  pipe.start(seconds(60));
  sim.run_until(time_at(65));
  pipe.stop();
  const std::size_t total_segments = pipe.edge_log().size();
  ASSERT_GE(total_segments, 12u);
  client::HlsViewerSession session(
      sim, pipe, device, pool.hls_edges()[0], pool.hls_edges()[1],
      client::PlayerConfig{millis(500), millis(2000)}, 9,
      client::HlsViewerSession::Mode::Replay);
  session.start(seconds(40));
  sim.run_until(sim.now() + seconds(5));
  // After 5 s: roughly playhead (5 s) + 20 s ahead => ~7 segments, and
  // definitely not the whole recording.
  const std::size_t early = session.capture().packets().size();
  EXPECT_GE(early, 5u);
  EXPECT_LT(early, total_segments);
  // By 40 s of a 60 s recording the fetcher has moved on.
  sim.run_until(sim.now() + seconds(35));
  EXPECT_GT(session.capture().packets().size(), early);
  EXPECT_EQ(session.stats().stall_count, 0);
}

class PrivateBroadcastTest : public ::testing::Test {
 protected:
  PrivateBroadcastTest()
      : world_(sim_, world_cfg(), 21), servers_(22),
        api_(world_, servers_, service::ApiConfig{}) {
    world_.start(false);
    // One public, one private broadcast, same spot, same popularity.
    service::BroadcastInfo pub = replay_broadcast(31);
    pub.id = "PUBLICbcast12";
    pub.location = {48.85, 2.35};
    service::BroadcastInfo priv = replay_broadcast(32);
    priv.id = "PRIVATEbcast1";
    priv.location = {48.85, 2.35};
    priv.is_private = true;
    world_.add_broadcast(pub);
    world_.add_broadcast(priv);
  }

  static service::WorldConfig world_cfg() {
    service::WorldConfig cfg;
    cfg.target_concurrent = 10;
    return cfg;
  }

  sim::Simulation sim_;
  service::World world_;
  service::MediaServerPool servers_;
  service::ApiServer api_;
};

TEST_F(PrivateBroadcastTest, NeverOnTheMap) {
  const auto hits = world_.query_rect(geo::GeoRect{40, 55, -5, 10});
  bool saw_public = false;
  for (const auto* b : hits) {
    EXPECT_FALSE(b->is_private);
    if (b->id == "PUBLICbcast12") saw_public = true;
  }
  EXPECT_TRUE(saw_public);
}

TEST_F(PrivateBroadcastTest, TeleportNeverLandsOnPrivate) {
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const auto* b = world_.teleport(rng, seconds(10));
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->is_private);
  }
}

TEST_F(PrivateBroadcastTest, AccessVideoUsesEncryptedTransports) {
  json::Object req;
  req["cookie"] = "t";
  req["broadcast_id"] = "PRIVATEbcast1";
  const json::Value resp =
      api_.call("accessVideo", json::Value(std::move(req)), sim_.now());
  EXPECT_TRUE(resp["encrypted"].as_bool());
  const std::string url = resp["rtmp_url"].as_string() +
                          resp["hls_url"].as_string();
  EXPECT_TRUE(url.find("rtmps://") != std::string::npos ||
              url.find("https://") != std::string::npos);

  json::Object req2;
  req2["cookie"] = "t";
  req2["broadcast_id"] = "PUBLICbcast12";
  const json::Value resp2 =
      api_.call("accessVideo", json::Value(std::move(req2)), sim_.now());
  EXPECT_FALSE(resp2["encrypted"].as_bool());
  const std::string url2 = resp2["rtmp_url"].as_string() +
                           resp2["hls_url"].as_string();
  // Public: plaintext rtmp:// on port 80 or http:// (paper §3).
  EXPECT_TRUE(url2.find("rtmps://") == std::string::npos &&
              url2.find("https://") == std::string::npos);
}

}  // namespace
}  // namespace psc
