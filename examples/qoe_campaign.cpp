// Automated-viewer QoE campaign (paper §5): teleport into broadcasts on
// two phones, sweep access-bandwidth limits with the built-in `tc`
// equivalent, and print the QoE table — join time, stalls, playback
// latency — per limit and protocol.
#include <cstdio>

#include "analysis/stats.h"
#include "core/csv.h"
#include "core/study.h"
#include "util/strings.h"

int main() {
  using namespace psc;

  core::StudyConfig cfg;
  cfg.seed = 77;
  cfg.world.target_concurrent = 500;
  const double limits_mbps[] = {0, 2.0, 0.5};
  const int sessions_per_limit = 20;
  // One world recording covers all three sweeps.
  core::Study study(cfg, core::own_world(cfg, 3 * sessions_per_limit));

  std::vector<core::SessionRecord> all_sessions;
  std::printf("%-9s %-5s %4s %8s %9s %9s %9s\n", "limit", "proto", "n",
              "join s", "stall s", "stall>0", "latency s");
  for (double mbps : limits_mbps) {
    const core::CampaignResult result = study.run_two_device_campaign(
        sessions_per_limit, mbps * 1e6, /*analyze=*/false);
    for (const core::SessionRecord& r : result.sessions) {
      all_sessions.push_back(r);
    }
    for (auto proto : {client::Protocol::Rtmp, client::Protocol::Hls}) {
      std::vector<double> join, stall, lat;
      int stalled = 0, n = 0;
      for (const core::SessionRecord& r : result.sessions) {
        if (r.stats.protocol != proto) continue;
        ++n;
        join.push_back(r.stats.join_time_s);
        stall.push_back(r.stats.stalled_s);
        lat.push_back(r.stats.playback_latency_s);
        if (r.stats.stall_count > 0) ++stalled;
      }
      if (n == 0) continue;
      const std::string label =
          mbps <= 0 ? "unlimited" : strf("%g Mbps", mbps);
      std::printf("%-9s %-5s %4d %8.2f %9.2f %8.0f%% %9.2f\n",
                  label.c_str(),
                  proto == client::Protocol::Rtmp ? "rtmp" : "hls", n,
                  analysis::median(join), analysis::mean(stall),
                  100.0 * stalled / n, analysis::median(lat));
    }
  }
  std::printf("\nthe app uploaded playbackMeta after every session; the "
              "server collected %zu reports\n",
              study.api().playback_metas().size());
  const std::string csv_path = "/tmp/psc_qoe_sessions.csv";
  if (core::write_sessions_csv(all_sessions, csv_path).ok()) {
    std::printf("per-session dataset written to %s (%zu rows)\n",
                csv_path.c_str(), all_sessions.size());
  }
  return 0;
}
