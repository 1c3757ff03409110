// pscope_tool — the command-line face of the library.
//
//   pscope_tool campaign [n] [mbps] [csv_path]
//       run n Teleport sessions (optionally bandwidth-limited) and write
//       the per-session dataset as CSV.
//   pscope_tool record <pcap_path>
//       watch one RTMP broadcast and write the client-side capture as a
//       real .pcap (openable in wireshark).
//   pscope_tool dissect <pcap_path>
//       reconstruct a capture written by `record` and print the §5.2
//       media analysis.
//   pscope_tool crawl [hours]
//       deep crawl + targeted crawl; print the §4 usage summary.
#include <cstdio>
#include <cstring>

#include "analysis/reconstruct.h"
#include "analysis/stats.h"
#include "core/csv.h"
#include "core/study.h"
#include "crawler/crawler.h"
#include "net/pcap.h"
#include "util/strings.h"

using namespace psc;

namespace {

int cmd_campaign(int argc, char** argv) {
  const int n = argc > 0 ? std::atoi(argv[0]) : 20;
  const double mbps = argc > 1 ? std::atof(argv[1]) : 0.0;
  const std::string csv = argc > 2 ? argv[2] : "sessions.csv";
  core::StudyConfig cfg;
  cfg.world.target_concurrent = 400;
  core::Study study(cfg, core::own_world(cfg, n));
  std::printf("running %d sessions at %s...\n", n,
              mbps > 0 ? strf("%g Mbps", mbps).c_str() : "unlimited");
  const core::CampaignResult result =
      study.run_two_device_campaign(n, mbps * 1e6);
  if (auto s = core::write_sessions_csv(result.sessions, csv); !s) {
    std::printf("csv write failed: %s\n", s.error().to_string().c_str());
    return 1;
  }
  std::printf("%zu sessions -> %s\n", result.sessions.size(), csv.c_str());
  std::vector<double> joins;
  for (const auto& r : result.rtmp()) joins.push_back(r.stats.join_time_s);
  if (!joins.empty()) {
    std::printf("RTMP join time: median %.2f s (n=%zu)\n",
                analysis::median(joins), joins.size());
  }
  return 0;
}

int cmd_record(int argc, char** argv) {
  if (argc < 1) {
    std::printf("usage: pscope_tool record <pcap_path>\n");
    return 2;
  }
  core::StudyConfig cfg;
  cfg.world.target_concurrent = 200;
  cfg.api.hls_viewer_threshold = 1 << 30;  // force RTMP
  core::Study study(cfg, core::own_world(cfg, /*sessions=*/1));
  // One session, keep the capture by re-running a raw session: the Study
  // retires captures, so drive the pieces directly.
  study.sim().run_until(study.sim().now() + seconds(30));
  Rng rng(7);
  const service::BroadcastInfo* b =
      study.world_view().teleport(rng, seconds(90));
  if (b == nullptr) {
    std::printf("no broadcast available\n");
    return 1;
  }
  service::LiveBroadcastPipeline pipe(study.sim(), *b,
                                      study.config().pipeline);
  pipe.start(seconds(90));
  study.sim().run_until(study.sim().now() + seconds(16));
  client::Device device(study.sim(), client::DeviceConfig{}, 8);
  client::RtmpViewerSession session(
      study.sim(), pipe, device,
      study.servers().rtmp_origin_for(b->location, b->id),
      study.config().rtmp_player, 9);
  session.start(seconds(60));
  study.sim().run_until(study.sim().now() + seconds(62));
  if (auto s = net::write_pcap_file(session.capture(), argv[0]); !s) {
    std::printf("pcap write failed: %s\n", s.error().to_string().c_str());
    return 1;
  }
  std::printf("watched %s for 60 s; %llu bytes captured -> %s\n",
              b->id.c_str(),
              static_cast<unsigned long long>(
                  session.capture().total_bytes()),
              argv[0]);
  return 0;
}

int cmd_dissect(int argc, char** argv) {
  if (argc < 1) {
    std::printf("usage: pscope_tool dissect <pcap_path>\n");
    return 2;
  }
  auto cap = net::read_pcap_file(argv[0]);
  if (!cap) {
    std::printf("cannot read %s: %s\n", argv[0],
                cap.error().to_string().c_str());
    return 1;
  }
  auto a = analysis::reconstruct_rtmp(cap.value());
  if (!a) {
    std::printf("dissection failed: %s\n", a.error().to_string().c_str());
    return 1;
  }
  const analysis::StreamAnalysis& s = a.value();
  std::printf("resolution %dx%d, %zu frames, %.1f fps, %.0f kbps video, "
              "%.0f kbps audio\n",
              s.width, s.height, s.frames.size(), s.fps(),
              s.video_bitrate_bps() / 1e3, s.audio_bitrate_bps / 1e3);
  std::printf("QP avg %.1f stddev %.2f; %zu NTP marks; %zu missing "
              "frames\n",
              s.avg_qp(), s.qp_stddev(), s.ntp_marks.size(),
              s.missing_frames());
  return 0;
}

int cmd_crawl(int argc, char** argv) {
  const double hours_total = argc > 0 ? std::atof(argv[0]) : 1.0;
  sim::Simulation sim;
  service::WorldConfig wcfg;
  wcfg.target_concurrent = 1500;
  service::World world(sim, wcfg, 1);
  service::MediaServerPool servers(2);
  service::ApiServer api(world, servers, service::ApiConfig{});
  world.start();
  sim.run_until(time_at(30));
  crawler::DeepCrawler deep(sim, api, crawler::DeepCrawlConfig{});
  std::optional<crawler::DeepCrawlResult> deep_result;
  deep.run([&](crawler::DeepCrawlResult r) { deep_result = std::move(r); });
  sim.run_until(sim.now() + hours(1));
  if (!deep_result) return 1;
  std::printf("deep crawl: %zu broadcasts, %zu areas, %.1f min\n",
              deep_result->ids.size(), deep_result->areas.size(),
              to_s(deep_result->took) / 60);
  std::vector<geo::GeoRect> areas;
  for (const auto& a : deep_result->ranked()) {
    areas.push_back(a.rect);
    if (areas.size() >= 64) break;
  }
  crawler::TargetedCrawler targeted(sim, api, areas,
                                    crawler::TargetedCrawlConfig{});
  std::optional<crawler::UsageDataset> ds;
  targeted.run(hours(hours_total),
               [&](crawler::UsageDataset d) { ds = std::move(d); });
  sim.run_until(sim.now() + hours(hours_total) + minutes(10));
  if (!ds) return 1;
  const auto durations = ds->ended_durations();
  std::printf("targeted crawl (%.1f h): %zu broadcasts tracked, %zu "
              "ended; median duration %.1f min\n",
              hours_total, ds->tracks.size(), durations.size(),
              durations.empty() ? 0 : analysis::median(durations) / 60);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf(
        "usage: pscope_tool <campaign|record|dissect|crawl> [args]\n");
    return 2;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "campaign") == 0) {
    return cmd_campaign(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "record") == 0) return cmd_record(argc - 2, argv + 2);
  if (std::strcmp(cmd, "dissect") == 0) {
    return cmd_dissect(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "crawl") == 0) return cmd_crawl(argc - 2, argv + 2);
  std::printf("unknown command '%s'\n", cmd);
  return 2;
}
