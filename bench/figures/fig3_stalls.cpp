// Figure 3: playback stalling.
//  (a) stall-ratio CDF for RTMP streams without bandwidth limiting;
//  (b) stall-ratio boxplots vs. access-bandwidth limit;
//  plus the RTMP-vs-HLS stall comparison from §5.1.
//
// All five campaigns (unlimited + the four tc limits) are independent, so
// their shards feed one thread pool; PSC_THREADS controls the width and
// never changes the numbers.
#include "figure.h"

using namespace psc;

bench::FigureResult figures::fig3_stalls(bench::Reporter& reporter) {
  // One campaign per bandwidth limit; index 0 is the unlimited campaign
  // used for (a). Distinct campaign seeds keep the sweeps independent.
  std::vector<core::ShardedCampaign> campaigns;
  campaigns.push_back(
      bench::sharded_campaign(31, bench::sessions_unlimited()));
  for (double mbps : bench::bandwidth_limits_mbps()) {
    if (mbps <= 0) continue;
    campaigns.push_back(bench::sharded_campaign(
        31 + static_cast<std::uint64_t>(campaigns.size()),
        bench::sessions_per_bw(), mbps * 1e6));
  }
  const bench::Campaigns run = bench::run_campaigns(reporter, campaigns);

  // (a) unlimited-bandwidth campaign.
  const core::CampaignResult& unlimited = run.results[0];
  const auto rtmp = unlimited.rtmp();
  const auto hls = unlimited.hls();
  std::vector<double> ratios = bench::collect(
      rtmp, [](const core::SessionRecord& r) { return r.stats.stall_ratio; });

  const analysis::Ecdf cdf(ratios);
  std::printf("\n(a) RTMP stall ratio, unlimited bandwidth (n=%zu):\n",
              ratios.size());
  std::printf("  P(ratio=0)=%.2f   P(<0.05)=%.2f   P(<0.10)=%.2f   "
              "P(<0.20)=%.2f\n",
              cdf(1e-9), cdf(0.05), cdf(0.10), cdf(0.20));
  int single_stall_mode = 0;
  for (const auto& r : rtmp) {
    if (r.stats.stall_ratio >= 0.04 && r.stats.stall_ratio <= 0.10) {
      ++single_stall_mode;
    }
  }
  std::printf("  sessions with ratio 0.04-0.10 (the 'single 3-5 s stall' "
              "mode): %d\n",
              single_stall_mode);
  std::vector<analysis::Series> cdf_series = {{"rtmp unlimited", ratios}};
  std::printf("%s\n",
              analysis::render_cdf(cdf_series, 0, 0.4, "stall ratio")
                  .c_str());

  // (b) bandwidth sweep.
  std::printf("(b) stall ratio vs. bandwidth limit (n=%d each):\n",
              bench::sessions_per_bw());
  std::vector<analysis::Series> box_series;
  std::size_t next_limited = 1;
  for (double mbps : bench::bandwidth_limits_mbps()) {
    if (mbps <= 0) {
      box_series.push_back({bench::bw_label(mbps), ratios});
      continue;
    }
    const core::CampaignResult& limited = run.results[next_limited++];
    box_series.push_back(
        {bench::bw_label(mbps),
         bench::collect(limited.rtmp(), [](const core::SessionRecord& r) {
           return r.stats.stall_ratio;
         })});
  }
  for (const auto& s : box_series) {
    const analysis::BoxplotSummary b = analysis::boxplot(s.values);
    std::printf("  %-8s %s\n", s.label.c_str(), b.to_string().c_str());
  }
  std::printf("\n%s\n",
              analysis::render_boxplots(box_series, 0, 0.6, "stall ratio")
                  .c_str());

  // RTMP vs HLS stall counts (the HLS metadata only has stall counts —
  // exactly the paper's constraint).
  const auto stall_count = [](const core::SessionRecord& r) {
    return static_cast<double>(r.stats.stall_count);
  };
  const std::vector<double> rtmp_counts = bench::collect(rtmp, stall_count);
  const std::vector<double> hls_counts = bench::collect(hls, stall_count);
  std::printf("stall events per 60 s session (unlimited):\n");
  std::printf("  RTMP mean %.2f (n=%zu)   HLS mean %.2f (n=%zu)   "
              "paper: stalling rarer with HLS\n",
              analysis::mean(rtmp_counts), rtmp_counts.size(),
              analysis::mean(hls_counts), hls_counts.size());
  return {.values = {{"sessions", run.sessions}}};
}
