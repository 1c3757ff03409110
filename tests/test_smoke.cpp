// End-to-end smoke tests: a full RTMP viewing session over the simulated
// network, and an HLS one, each followed by capture reconstruction.
#include <gtest/gtest.h>

#include "core/study.h"

namespace psc {
namespace {

core::StudyConfig small_config() {
  core::StudyConfig cfg;
  cfg.seed = 7;
  cfg.world.target_concurrent = 120;
  cfg.world.hotspot_count = 30;
  return cfg;
}

TEST(Smoke, CampaignProducesSessions) {
  const core::StudyConfig cfg = small_config();
  core::Study study(cfg, core::own_world(cfg, 3));
  const core::CampaignResult result =
      study.run_campaign(3, /*bandwidth_limit=*/0, core::Study::galaxy_s4());
  ASSERT_GE(result.sessions.size(), 2u);
  for (const core::SessionRecord& rec : result.sessions) {
    EXPECT_TRUE(rec.stats.ever_played)
        << "session on " << rec.stats.broadcast_id << " never started";
    // Uplink hiccups can stall a session hard (the paper saw exactly
    // such sessions); it must still have played a meaningful fraction.
    EXPECT_GT(rec.stats.played_s, 20.0);
    EXPECT_GT(rec.stats.bytes_received, 100000u);
    // Reconstruction found frames and the right resolution.
    EXPECT_GT(rec.analysis.frames.size(), 100u);
    EXPECT_TRUE((rec.analysis.width == 320 && rec.analysis.height == 568) ||
                (rec.analysis.width == 568 && rec.analysis.height == 320));
    EXPECT_GT(rec.analysis.video_bitrate_bps(), 50e3);
    EXPECT_LT(rec.analysis.video_bitrate_bps(), 2e6);
    EXPECT_FALSE(rec.analysis.ntp_marks.empty());
  }
}

TEST(Smoke, HlsSessionWorks) {
  core::StudyConfig cfg = small_config();
  // Force HLS by lowering the fallback threshold to zero viewers.
  cfg.api.hls_viewer_threshold = 0;
  core::Study study(cfg, core::own_world(cfg, 2));
  const core::CampaignResult result =
      study.run_campaign(2, 0, core::Study::galaxy_s4());
  ASSERT_GE(result.sessions.size(), 1u);
  for (const core::SessionRecord& rec : result.sessions) {
    EXPECT_EQ(rec.stats.protocol, client::Protocol::Hls);
    EXPECT_TRUE(rec.stats.ever_played);
    EXPECT_FALSE(rec.analysis.segments.empty());
    EXPECT_FALSE(rec.analysis.ntp_marks.empty());
  }
}

}  // namespace
}  // namespace psc
