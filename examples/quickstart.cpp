// Quickstart: run a handful of automated Periscope viewing sessions and
// print the QoE report for each — the minimal end-to-end tour of the
// library (world -> teleport -> RTMP/HLS delivery -> player -> capture
// reconstruction).
#include <cstdio>

#include "core/study.h"
#include "util/strings.h"

int main() {
  using namespace psc;

  core::StudyConfig cfg;
  cfg.seed = 2016;
  cfg.world.target_concurrent = 300;

  core::Study study(cfg, core::own_world(cfg, /*sessions=*/5));
  std::printf("running 5 automated viewing sessions (60 s each)...\n\n");
  const core::CampaignResult result =
      study.run_campaign(5, /*bandwidth_limit=*/0, core::Study::galaxy_s4());

  std::printf("%-14s %-5s %6s %7s %7s %7s %8s %7s\n", "broadcast", "proto",
              "join_s", "stall_s", "lat_s", "kbps", "avg_QP", "fps");
  for (const core::SessionRecord& rec : result.sessions) {
    std::printf("%-14s %-5s %6.2f %7.2f %7.2f %7.0f %8.1f %7.1f\n",
                rec.stats.broadcast_id.c_str(),
                rec.stats.protocol == client::Protocol::Rtmp ? "rtmp" : "hls",
                rec.stats.join_time_s, rec.stats.stalled_s,
                rec.stats.playback_latency_s,
                rec.analysis.video_bitrate_bps() / 1e3, rec.analysis.avg_qp(),
                rec.analysis.fps());
  }
  std::printf("\n%zu sessions; world had %zu live broadcasts at the end\n",
              result.sessions.size(), study.world_view().live_count());
  return 0;
}
