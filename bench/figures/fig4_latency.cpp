// Figure 4: join time (a) and playback latency (b) of RTMP streams vs.
// access-bandwidth limit. One sharded campaign per limit, all run
// concurrently on the PSC_THREADS pool.
#include "figure.h"

using namespace psc;

bench::FigureResult figures::fig4_latency(bench::Reporter& reporter) {
  const std::vector<double> limits = bench::bandwidth_limits_mbps();
  std::vector<core::ShardedCampaign> campaigns;
  for (std::size_t i = 0; i < limits.size(); ++i) {
    const double mbps = limits[i];
    const int n = mbps <= 0 ? bench::sessions_unlimited() / 2
                            : bench::sessions_per_bw();
    campaigns.push_back(bench::sharded_campaign(
        41 + static_cast<std::uint64_t>(i), n, mbps * 1e6));
  }
  const bench::Campaigns run = bench::run_campaigns(reporter, campaigns);

  std::vector<analysis::Series> join_series, latency_series;
  for (std::size_t i = 0; i < limits.size(); ++i) {
    const double mbps = limits[i];
    const auto rtmp = run.results[i].rtmp();
    join_series.push_back(
        {bench::bw_label(mbps),
         bench::collect(rtmp, [](const core::SessionRecord& r) {
           return r.stats.join_time_s;
         })});
    latency_series.push_back(
        {bench::bw_label(mbps),
         bench::collect(rtmp, [](const core::SessionRecord& r) {
           return r.stats.playback_latency_s;
         })});
  }

  std::printf("\n(a) join time (s):\n");
  for (const auto& s : join_series) {
    std::printf("  %-8s %s\n", s.label.c_str(),
                analysis::boxplot(s.values).to_string().c_str());
  }
  std::printf("\n%s\n",
              analysis::render_boxplots(join_series, 0, 20, "join time (s)")
                  .c_str());

  std::printf("(b) playback latency (s):\n");
  for (const auto& s : latency_series) {
    std::printf("  %-8s %s\n", s.label.c_str(),
                analysis::boxplot(s.values).to_string().c_str());
  }
  std::printf(
      "\n%s\n",
      analysis::render_boxplots(latency_series, 0, 20, "playback latency (s)")
          .c_str());

  // The 2 Mbps knee, quantified.
  std::printf("join-time medians: ");
  for (const auto& s : join_series) {
    std::printf("%s=%.2fs  ", s.label.c_str(), analysis::median(s.values));
  }
  std::printf("\npaper: 2 Mbps is the knee — below it startup latency "
              "clearly increases\n");
  return {.values = {{"sessions", run.sessions}}};
}
