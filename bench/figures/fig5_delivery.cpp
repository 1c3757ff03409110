// Figure 5: video delivery latency, RTMP vs HLS, measured from the NTP
// timestamps the broadcaster embeds in the video data (SEI) against the
// capture arrival time of the packet containing them.
#include "figure.h"

using namespace psc;

bench::FigureResult figures::fig5_delivery(bench::Reporter& reporter) {
  const bench::Campaigns run = bench::run_campaigns(
      reporter, {bench::sharded_campaign(51, bench::sessions_unlimited(), 0,
                                         /*analyze=*/true)});
  const core::CampaignResult& result = run.results[0];

  std::vector<double> rtmp_lat, hls_lat;
  std::vector<double> rtmp_means, hls_means;
  for (const core::SessionRecord& r : result.sessions) {
    std::vector<double> lats;
    for (const analysis::NtpMark& m : r.analysis.ntp_marks) {
      lats.push_back(m.delivery_latency_s());
    }
    if (lats.empty()) continue;
    auto& all = r.stats.protocol == client::Protocol::Rtmp ? rtmp_lat
                                                           : hls_lat;
    auto& means = r.stats.protocol == client::Protocol::Rtmp ? rtmp_means
                                                             : hls_means;
    all.insert(all.end(), lats.begin(), lats.end());
    // Per-broadcast location estimate: the median is robust to the few
    // stale marks delivered in the join-time backlog burst.
    means.push_back(analysis::median(lats));
  }

  const analysis::Ecdf rtmp_cdf(rtmp_means);
  const analysis::Ecdf hls_cdf(hls_means);
  std::printf("\nper-session (per-broadcast) delivery latency:\n");
  std::printf("  RTMP: n=%zu  p25=%.3fs  median=%.3fs  p75=%.3fs  "
              "mean=%.3fs\n",
              rtmp_means.size(), analysis::quantile(rtmp_means, 0.25),
              analysis::median(rtmp_means),
              analysis::quantile(rtmp_means, 0.75),
              analysis::mean(rtmp_means));
  std::printf("  HLS : n=%zu  p25=%.2fs  median=%.2fs  p75=%.2fs  "
              "mean=%.2fs\n",
              hls_means.size(), analysis::quantile(hls_means, 0.25),
              analysis::median(hls_means), analysis::quantile(hls_means, 0.75),
              analysis::mean(hls_means));
  std::printf("  shape check: RTMP p75 < 0.3 s? %s   HLS mean > 5 s? %s\n",
              analysis::quantile(rtmp_means, 0.75) < 0.3 ? "YES" : "no",
              analysis::mean(hls_means) > 5.0 ? "YES" : "no");

  std::vector<analysis::Series> series = {{"rtmp", rtmp_means},
                                          {"hls", hls_means}};
  std::printf("\n%s\n",
              analysis::render_cdf(series, 0, 12, "delivery latency (s)")
                  .c_str());

  // All individual marks (the paper's per-timestamp distribution).
  std::vector<analysis::Series> all_series = {{"rtmp marks", rtmp_lat},
                                              {"hls marks", hls_lat}};
  std::printf("per-NTP-mark distribution (%zu RTMP / %zu HLS marks):\n%s\n",
              rtmp_lat.size(), hls_lat.size(),
              analysis::render_cdf(all_series, 0, 12, "delivery latency (s)")
                  .c_str());
  return {.values = {{"sessions", run.sessions}}};
}
