// Figure 7: quality (QP) versus bitrate, and their variability.
//  (a) scatter of average QP vs bitrate per captured video (whole video
//      for RTMP, per segment for HLS): at equal QP, bitrate spans a wide
//      range (content diversity);
//  (b) stddev(segment bitrate) vs stddev(segment QP) per HLS broadcast:
//      most sequences near the origin; tails along either axis.
#include "figure.h"

using namespace psc;

bench::FigureResult figures::fig7_qp(bench::Reporter& reporter) {
  const bench::Campaigns run = bench::run_campaigns(
      reporter, {bench::sharded_campaign(71, bench::sessions_unlimited(), 0,
                                         /*analyze=*/true)});
  const core::CampaignResult& result = run.results[0];

  // (a) one point per RTMP video, one per HLS segment.
  std::vector<double> qps, kbps;
  for (const core::SessionRecord& r : result.sessions) {
    const analysis::StreamAnalysis& a = r.analysis;
    if (a.frames.empty()) continue;
    if (r.stats.protocol == client::Protocol::Rtmp) {
      qps.push_back(a.avg_qp());
      kbps.push_back(a.video_bitrate_bps() / 1e3);
    } else {
      for (const analysis::SegmentInfo& seg : a.segments) {
        qps.push_back(seg.avg_qp);
        kbps.push_back(seg.video_bitrate_bps / 1e3);
      }
    }
  }
  std::printf("\n(a) avg QP vs bitrate (%zu points):\n", qps.size());
  // Bitrate spread at similar QP: bucket by QP and report the range.
  for (int qp_lo = 18; qp_lo < 44; qp_lo += 6) {
    std::vector<double> in_bucket;
    for (std::size_t i = 0; i < qps.size(); ++i) {
      if (qps[i] >= qp_lo && qps[i] < qp_lo + 6) {
        in_bucket.push_back(kbps[i]);
      }
    }
    if (in_bucket.size() < 5) continue;
    std::printf("  QP %2d-%2d: n=%4zu bitrate p10=%.0f p90=%.0f kbps "
                "(x%.1f spread)\n",
                qp_lo, qp_lo + 6, in_bucket.size(),
                analysis::quantile(in_bucket, 0.1),
                analysis::quantile(in_bucket, 0.9),
                analysis::quantile(in_bucket, 0.9) /
                    std::max(1.0, analysis::quantile(in_bucket, 0.1)));
  }
  std::printf("%s\n",
              analysis::render_scatter(qps, kbps, "avg QP", "kbps").c_str());

  // (b) per-HLS-broadcast stddevs.
  std::vector<double> sd_kbps, sd_qp;
  for (const core::SessionRecord& r : result.hls()) {
    const auto& segs = r.analysis.segments;
    if (segs.size() < 3) continue;
    std::vector<double> seg_kbps, seg_qp;
    for (const analysis::SegmentInfo& s : segs) {
      seg_kbps.push_back(s.video_bitrate_bps / 1e3);
      seg_qp.push_back(s.avg_qp);
    }
    sd_kbps.push_back(analysis::stddev(seg_kbps));
    sd_qp.push_back(analysis::stddev(seg_qp));
  }
  std::printf("(b) per-broadcast stddev of HLS segment bitrate vs QP "
              "(%zu broadcasts):\n",
              sd_kbps.size());
  int low_low = 0, high_kbps_low_qp = 0, low_kbps_high_qp = 0;
  for (std::size_t i = 0; i < sd_kbps.size(); ++i) {
    const bool low_b = sd_kbps[i] < 60, low_q = sd_qp[i] < 2.0;
    if (low_b && low_q) ++low_low;
    if (!low_b && low_q) ++high_kbps_low_qp;
    if (low_b && !low_q) ++low_kbps_high_qp;
  }
  std::printf("  stable (low/low): %d   bitrate-varies/QP-stable: %d   "
              "bitrate-stable/QP-varies: %d\n",
              low_low, high_kbps_low_qp, low_kbps_high_qp);
  std::printf("  paper: most sequences low stddev in both; others show "
              "large bitrate variation at near-constant QP (content "
              "spikes), or the opposite (luminance changes)\n");
  std::printf("%s\n", analysis::render_scatter(sd_kbps, sd_qp,
                                               "stddev segment kbps",
                                               "stddev QP")
                          .c_str());
  return {.values = {{"sessions", run.sessions}}};
}
