// Study-level integration tests: protocol selection under Teleport,
// bandwidth sweeps, the S3-vs-S4 Welch comparison, playbackMeta quirks,
// the one world path (own_world, world_horizon, horizon overrun), and
// the records-only captures that analysis streams from.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/reconstruct.h"
#include "analysis/stats.h"
#include "core/study.h"
#include "net/capture.h"

namespace psc::core {
namespace {

StudyConfig medium_config(std::uint64_t seed = 99) {
  StudyConfig cfg;
  cfg.seed = seed;
  cfg.world.target_concurrent = 250;
  cfg.world.hotspot_count = 40;
  return cfg;
}

/// A standalone Study over its own world, recorded for `sessions` cycles.
Study study_of(const StudyConfig& cfg, int sessions) {
  return Study(cfg, own_world(cfg, sessions));
}

TEST(Study, TeleportCampaignMixesProtocols) {
  Study study = study_of(medium_config(1), 16);
  const CampaignResult result =
      study.run_campaign(16, 0, Study::galaxy_s4(), /*analyze=*/false);
  ASSERT_GE(result.sessions.size(), 12u);
  const std::size_t rtmp = result.rtmp().size();
  const std::size_t hls = result.hls().size();
  EXPECT_GT(rtmp, 0u);
  EXPECT_GT(hls, 0u);
  EXPECT_EQ(rtmp + hls, result.sessions.size());
}

TEST(Study, HlsOnlyForPopularBroadcasts) {
  Study study = study_of(medium_config(2), 14);
  const CampaignResult result =
      study.run_campaign(14, 0, Study::galaxy_s4(), false);
  for (const SessionRecord& r : result.sessions) {
    if (r.stats.protocol == client::Protocol::Hls) {
      // HLS threshold is ~100 concurrent; the lifetime average of those
      // broadcasts must be substantial.
      EXPECT_GT(r.stats.avg_viewers, 50.0);
    }
  }
}

TEST(Study, PlaybackMetaReportedPerSession) {
  Study study = study_of(medium_config(3), 6);
  const CampaignResult result =
      study.run_campaign(6, 0, Study::galaxy_s4(), false);
  const auto& metas = study.api().playback_metas();
  EXPECT_EQ(metas.size(), result.sessions.size());
  for (std::size_t i = 0; i < metas.size(); ++i) {
    // Every upload has the stall count; only RTMP sessions include the
    // full stats (the paper's HLS sessions reported only stall counts).
    EXPECT_TRUE(metas[i]["stats"].has("n_stalls"));
  }
  // Cross-check the RTMP/HLS asymmetry.
  std::size_t with_latency = 0;
  for (const auto& m : metas) {
    if (m["stats"].has("playback_latency_s")) ++with_latency;
  }
  EXPECT_EQ(with_latency, result.rtmp().size());
}

TEST(Study, BandwidthLimitDegradesQoE) {
  Study study = study_of(medium_config(4), 16);
  const CampaignResult unlimited =
      study.run_campaign(8, 0, Study::galaxy_s4(), false);
  const CampaignResult limited =
      study.run_campaign(8, 1e6, Study::galaxy_s4(), false);
  auto avg_join = [](const CampaignResult& r) {
    double s = 0;
    int n = 0;
    for (const SessionRecord& rec : r.sessions) {
      if (rec.stats.protocol == client::Protocol::Rtmp) {
        s += rec.stats.join_time_s;
        ++n;
      }
    }
    return n > 0 ? s / n : 0.0;
  };
  // 1 Mbps joins slower than unlimited on average (paper Fig. 4a).
  EXPECT_GT(avg_join(limited) + 0.01, avg_join(unlimited));
}

TEST(Study, TwoDeviceFrameRatesDifferButStallsDoNot) {
  // The paper's Welch t-tests: frame rate differs significantly between
  // S3 and S4; stalling and latency do not.
  Study study = study_of(medium_config(5), 20);
  const CampaignResult s3 =
      study.run_campaign(10, 0, Study::galaxy_s3(), false);
  const CampaignResult s4 =
      study.run_campaign(10, 0, Study::galaxy_s4(), false);
  std::vector<double> fps3, fps4;
  for (const auto& r : s3.sessions) {
    if (r.stats.ever_played) fps3.push_back(r.stats.reported_fps);
  }
  for (const auto& r : s4.sessions) {
    if (r.stats.ever_played) fps4.push_back(r.stats.reported_fps);
  }
  ASSERT_GE(fps3.size(), 5u);
  ASSERT_GE(fps4.size(), 5u);
  const auto fps_test = analysis::welch_t_test(fps3, fps4);
  ASSERT_TRUE(fps_test.valid);
  EXPECT_LT(fps_test.p_value, 0.05);
  EXPECT_LT(analysis::mean(fps3), analysis::mean(fps4));
}

TEST(Study, SessionsWatchSixtySeconds) {
  Study study = study_of(medium_config(6), 4);
  const CampaignResult result =
      study.run_campaign(4, 0, Study::galaxy_s4(), false);
  for (const SessionRecord& r : result.sessions) {
    const double total =
        r.stats.join_time_s + r.stats.played_s + r.stats.stalled_s;
    // join + played + stalled ~= 60 s (the paper's accounting).
    EXPECT_NEAR(total, 60.0, 2.5);
  }
}

TEST(Study, DeterministicForSeed) {
  Study a = study_of(medium_config(7), 3);
  Study b = study_of(medium_config(7), 3);
  const CampaignResult ra = a.run_campaign(3, 0, Study::galaxy_s4(), false);
  const CampaignResult rb = b.run_campaign(3, 0, Study::galaxy_s4(), false);
  ASSERT_EQ(ra.sessions.size(), rb.sessions.size());
  for (std::size_t i = 0; i < ra.sessions.size(); ++i) {
    EXPECT_EQ(ra.sessions[i].stats.broadcast_id,
              rb.sessions[i].stats.broadcast_id);
    EXPECT_DOUBLE_EQ(ra.sessions[i].stats.join_time_s,
                     rb.sessions[i].stats.join_time_s);
    EXPECT_EQ(ra.sessions[i].stats.bytes_received,
              rb.sessions[i].stats.bytes_received);
  }
}

TEST(Study, AnalyzeFlagLeavesEverySessionStatEqual) {
  // Every campaign capture keeps records only, analysed or not (analysis
  // streams from the records as they arrive); the stats must not notice.
  Study lean = study_of(medium_config(12), 10);
  Study full = study_of(medium_config(12), 10);
  const std::uint64_t not_kept = net::Capture::process_bytes_not_kept();
  const CampaignResult rl =
      lean.run_campaign(10, 0, Study::galaxy_s4(), /*analyze=*/false);
  const std::uint64_t lean_not_kept =
      net::Capture::process_bytes_not_kept() - not_kept;
  const CampaignResult rf =
      full.run_campaign(10, 0, Study::galaxy_s4(), /*analyze=*/true);
  EXPECT_GT(lean_not_kept, 0u);
  EXPECT_EQ(net::Capture::process_bytes_not_kept(),
            not_kept + 2 * lean_not_kept);
  ASSERT_EQ(rl.sessions.size(), rf.sessions.size());
  ASSERT_GE(rl.sessions.size(), 8u);
  bool analysed = false;
  for (std::size_t i = 0; i < rl.sessions.size(); ++i) {
    EXPECT_GT(rl.sessions[i].stats.bytes_received, 0u) << i;
    EXPECT_EQ(rl.sessions[i].stats.bytes_received,
              rf.sessions[i].stats.bytes_received)
        << i;
    EXPECT_TRUE(rl.sessions[i].stats == rf.sessions[i].stats) << i;
    EXPECT_TRUE(rl.sessions[i].analysis.frames.empty()) << i;
    analysed = analysed || !rf.sessions[i].analysis.frames.empty();
  }
  EXPECT_TRUE(analysed);
}

TEST(Study, StreamedAnalysisEqualsKeptCaptureReconstruction) {
  // A rerun whose analysed sessions keep their captured bytes: each
  // session's streamed analysis must equal reconstruct_rtmp/_hls over the
  // kept capture, and keeping the bytes must move no session record.
  // Faults make RTMP sessions reconnect mid-capture and HLS fetches retry.
  StudyConfig cfg = medium_config(21);
  cfg.fault.enabled = true;
  cfg.fault.seed = 5;
  cfg.fault.gen.intensity = 6.0;
  Study streamed = study_of(cfg, 12);
  Study kept = study_of(cfg, 12);
  std::size_t checked = 0, rtmp = 0, hls = 0, failed = 0;
  kept.set_analysis_check([&](client::Protocol proto, const net::Capture& cap,
                              const Result<analysis::StreamAnalysis>& got) {
    ASSERT_TRUE(cap.keeps_bytes());
    const Result<analysis::StreamAnalysis> want =
        proto == client::Protocol::Hls ? analysis::reconstruct_hls(cap)
                                       : analysis::reconstruct_rtmp(cap);
    ++checked;
    ++(proto == client::Protocol::Hls ? hls : rtmp);
    ASSERT_EQ(got.ok(), want.ok()) << checked;
    if (!want.ok()) {
      ++failed;
      EXPECT_EQ(got.error().to_string(), want.error().to_string());
      return;
    }
    EXPECT_FALSE(want.value().frames.empty()) << checked;
    EXPECT_TRUE(got.value() == want.value()) << checked;
  });
  const CampaignResult rs =
      streamed.run_campaign(12, 0, Study::galaxy_s4(), /*analyze=*/true);
  const CampaignResult rk =
      kept.run_campaign(12, 0, Study::galaxy_s4(), /*analyze=*/true);
  EXPECT_EQ(checked, rk.sessions.size());
  EXPECT_GT(rtmp, 0u);
  EXPECT_GT(hls, 0u);
  EXPECT_LT(failed, checked);
  ASSERT_EQ(rs.sessions.size(), rk.sessions.size());
  for (std::size_t i = 0; i < rs.sessions.size(); ++i) {
    EXPECT_TRUE(rs.sessions[i].stats == rk.sessions[i].stats) << i;
    EXPECT_TRUE(rs.sessions[i].analysis == rk.sessions[i].analysis) << i;
  }
}

TEST(Study, RtmpServersVaryHlsEdgesDoNot) {
  Study study = study_of(medium_config(8), 14);
  const CampaignResult result =
      study.run_campaign(14, 0, Study::galaxy_s4(), false);
  std::set<std::string> rtmp_ips, hls_ips;
  for (const SessionRecord& r : result.sessions) {
    if (r.stats.protocol == client::Protocol::Rtmp) {
      rtmp_ips.insert(r.stats.server_ip);
    } else {
      hls_ips.insert(r.stats.server_ip);
    }
  }
  // RTMP origins are broadcaster-located (many); HLS edges are 2 IPs.
  EXPECT_LE(hls_ips.size(), 2u);
}


TEST(Study, AdaptiveHlsCampaignRidesLadderWhenLimited) {
  StudyConfig cfg = medium_config(9);
  cfg.hls_adaptive = true;
  Study study = study_of(cfg, 18);
  // 0.3 Mbps: the source rendition does not fit; adaptive HLS sessions
  // should still play most of the minute.
  const CampaignResult result =
      study.run_campaign(18, 0.3e6, Study::galaxy_s4(), /*analyze=*/true);
  int hls_sessions = 0;
  for (const SessionRecord& r : result.sessions) {
    if (r.stats.protocol != client::Protocol::Hls) continue;
    ++hls_sessions;
    EXPECT_TRUE(r.stats.ever_played);
    EXPECT_GT(r.stats.played_s, 25.0);
    // Ladder renditions are visible in the capture as raised QP.
    if (!r.analysis.frames.empty()) {
      EXPECT_GT(r.analysis.avg_qp(), 19.0);
    }
  }
  EXPECT_GT(hls_sessions, 0);
}

// ---------------- One world path ----------------

TEST(WorldHorizon, PinsTheDefaultTwelveSessionShard) {
  // 30 s warmup + 13 cycles of (16 s preroll + 60 s watch + 10 s) + 120 s.
  // bench/suite keeps a copy of this rule (campaign_horizon) to rebuild
  // independent shards' fluid audiences; a change here must reach it.
  EXPECT_DOUBLE_EQ(to_s(world_horizon(StudyConfig{}, 12)), 1268.0);
}

TEST(WorldHorizon, RaisedToTheFluidHorizonOnlyWhenTheTierIsOn) {
  StudyConfig cfg;
  cfg.aggregate.gen.horizon = seconds(5000);
  EXPECT_DOUBLE_EQ(to_s(world_horizon(cfg, 2)), 30 + 3 * 86 + 120);
  cfg.aggregate.enabled = true;
  EXPECT_DOUBLE_EQ(to_s(world_horizon(cfg, 2)), 5000.0);
  EXPECT_DOUBLE_EQ(to_s(world_horizon(cfg, 100)), 30 + 101 * 86 + 120);
}

TEST(OwnWorld, RecordsOnceWhenWorldAndAudienceHorizonsMatch) {
  StudyConfig cfg = medium_config(11);
  WorldContext plain = own_world(cfg, 3);
  EXPECT_DOUBLE_EQ(to_s(plain.timeline->horizon()),
                   to_s(world_horizon(cfg, 3)));
  EXPECT_EQ(plain.campaign_seed, cfg.seed);
  EXPECT_EQ(plain.aggregate, nullptr);
  // No fluid tier: an empty board, which prices every penalty at zero.
  ASSERT_NE(plain.load_board, nullptr);
  EXPECT_EQ(plain.load_board->epochs_merged(), 0u);
  EXPECT_EQ(to_s(plain.load_board->penalty("any", time_at(1e4), cfg.load)),
            0.0);

  cfg.aggregate.gen.horizon = world_horizon(cfg, 3);
  cfg.aggregate.enabled = true;
  const WorldContext same = own_world(cfg, 3);
  ASSERT_NE(same.aggregate, nullptr);
  ASSERT_NE(same.load_board, nullptr);
  // The audience shares the world's recording.
  EXPECT_GT(same.timeline.use_count(), 1);

  // More sessions need a longer world than the fluid horizon: the
  // audience keeps its own, shorter recording.
  const WorldContext longer = own_world(cfg, 6);
  ASSERT_NE(longer.aggregate, nullptr);
  EXPECT_EQ(longer.timeline.use_count(), 1);
  EXPECT_DOUBLE_EQ(to_s(longer.timeline->horizon()),
                   to_s(world_horizon(cfg, 6)));
}

TEST(OwnWorld, OutrunningTheRecordedHorizonThrows) {
  // Past its horizon a timeline is frozen; a session there must fail
  // loudly instead of watching a world with no arrivals or departures.
  const StudyConfig cfg = medium_config(12);
  WorldContext world;
  world.timeline = service::WorldTimeline::record(
      cfg.world, cfg.seed ^ 0x0170BB57ull, seconds(200),
      cfg.load.epoch_length);
  world.campaign_seed = cfg.seed;
  Study study(cfg, world);
  // Warmup to 30 s, then two 81 s cycles end at 192 s: still inside.
  EXPECT_NO_THROW(study.run_campaign(2, 0, Study::galaxy_s4(), false));
  try {
    study.run_campaign(1, 0, Study::galaxy_s4(), false);
    FAIL() << "a session past the recorded horizon ran silently";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("273.000"), std::string::npos) << what;
    EXPECT_NE(what.find("200.000"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace psc::core
