// Figure 6: characteristics of the captured videos.
//  (a) video bitrate CDF, RTMP vs HLS (typical 200-400 kbps; RTMP max
//      higher, traced to I-only coding);
//  (b) HLS segment duration CDF (mode 3.6 s = 108 frames at 30 fps);
//  plus resolution / frame rate / audio findings from §5.2.
#include "figure.h"

using namespace psc;

bench::FigureResult figures::fig6_video(bench::Reporter& reporter) {
  const bench::Campaigns run = bench::run_campaigns(
      reporter, {bench::sharded_campaign(61, bench::sessions_unlimited(), 0,
                                         /*analyze=*/true)});
  const core::CampaignResult& result = run.results[0];

  std::vector<double> rtmp_kbps, hls_kbps, seg_durations, audio_kbps;
  int res_portrait = 0, res_landscape = 0, res_other = 0;
  std::vector<double> fps_values;
  for (const core::SessionRecord& r : result.sessions) {
    const analysis::StreamAnalysis& a = r.analysis;
    if (a.frames.empty()) continue;
    const double kbps = a.video_bitrate_bps() / 1e3;
    (r.stats.protocol == client::Protocol::Rtmp ? rtmp_kbps : hls_kbps)
        .push_back(kbps);
    for (const analysis::SegmentInfo& seg : a.segments) {
      seg_durations.push_back(to_s(seg.duration));
    }
    if (a.width == 320 && a.height == 568) {
      ++res_portrait;
    } else if (a.width == 568 && a.height == 320) {
      ++res_landscape;
    } else {
      ++res_other;
    }
    fps_values.push_back(a.fps());
    if (a.audio_bitrate_bps > 0) {
      audio_kbps.push_back(a.audio_bitrate_bps / 1e3);
    }
  }

  std::printf("\n(a) video bitrate (kbps):\n");
  std::printf("  RTMP: n=%zu median=%.0f p10=%.0f p90=%.0f max=%.0f\n",
              rtmp_kbps.size(), analysis::median(rtmp_kbps),
              analysis::quantile(rtmp_kbps, 0.1),
              analysis::quantile(rtmp_kbps, 0.9),
              analysis::maximum(rtmp_kbps));
  std::printf("  HLS : n=%zu median=%.0f p10=%.0f p90=%.0f max=%.0f\n",
              hls_kbps.size(), analysis::median(hls_kbps),
              analysis::quantile(hls_kbps, 0.1),
              analysis::quantile(hls_kbps, 0.9),
              analysis::maximum(hls_kbps));
  std::printf("  shape: distributions nearly identical (HLS as fallback), "
              "RTMP max > HLS max? %s\n",
              analysis::maximum(rtmp_kbps) > analysis::maximum(hls_kbps)
                  ? "YES"
                  : "no");
  std::vector<analysis::Series> br_series = {{"rtmp", rtmp_kbps},
                                             {"hls", hls_kbps}};
  std::printf("%s\n",
              analysis::render_cdf(br_series, 0, 800, "video kbps").c_str());

  std::printf("(b) HLS segment duration (s):\n");
  const analysis::Ecdf seg_cdf(seg_durations);
  std::printf("  n=%zu  P(3.4..3.8 s)=%.2f  median=%.2f s "
              "(paper: 3.6 s in most cases)\n",
              seg_durations.size(), seg_cdf(3.8) - seg_cdf(3.4),
              analysis::median(seg_durations));
  std::vector<analysis::Series> seg_series = {{"segment dur", seg_durations}};
  std::printf("%s\n",
              analysis::render_cdf(seg_series, 0, 8, "segment duration (s)")
                  .c_str());

  std::printf("resolution: 320x568 portrait %d, 568x320 landscape %d, "
              "other %d (paper: always 320x568 or vice versa)\n",
              res_portrait, res_landscape, res_other);
  std::printf("frame rate: median %.1f fps, max %.1f (paper: variable, "
              "up to 30 fps)\n",
              analysis::median(fps_values), analysis::maximum(fps_values));
  std::printf("audio: median %.0f kbps (paper: AAC 44.1 kHz VBR at ~32 or "
              "~64 kbps)\n",
              analysis::median(audio_kbps));
  return {.values = {{"sessions", run.sessions}}};
}
