// Stream dissection (paper §2 + §5.2): watch one broadcast while
// capturing the traffic, then reconstruct the media from the capture the
// way the paper did with wireshark + libav — recover resolution, frame
// types, per-frame QP, bitrate, the embedded NTP timestamps, and audio
// parameters, all from wire bytes.
#include <cstdio>

#include "analysis/reconstruct.h"
#include "analysis/stats.h"
#include "client/viewer_session.h"
#include "service/pipeline.h"
#include "service/servers.h"

int main() {
  using namespace psc;

  sim::Simulation sim;
  Rng rng(99);
  service::PopulationConfig pop;
  service::BroadcastInfo info =
      service::draw_broadcast(pop, rng, {40.4, -3.7}, sim.now());  // Madrid
  info.peak_viewers = 30;
  info.planned_duration = hours(1);
  info.content = media::ContentClass::Sports;  // high motion: QP moves
  service::PipelineConfig pcfg;
  service::LiveBroadcastPipeline pipe(sim, info, pcfg);
  service::MediaServerPool pool(1);
  client::Device device(sim, client::DeviceConfig{}, 2);

  pipe.start(seconds(100));
  sim.run_until(sim.now() + seconds(15));
  const service::MediaServer& origin =
      pool.rtmp_origin_for(info.location, info.id);
  std::printf("watching broadcast %s via RTMP from %s (%s)...\n",
              info.id.c_str(), origin.ip.c_str(), origin.region.c_str());
  client::RtmpViewerSession session(
      sim, pipe, device, origin,
      client::PlayerConfig{millis(1800), millis(1000)}, 3);
  session.start(seconds(60));
  sim.run_until(sim.now() + seconds(65));

  std::printf("capture: %llu bytes in %zu packets\n\n",
              static_cast<unsigned long long>(session.capture().total_bytes()),
              session.capture().packets().size());

  auto result = analysis::reconstruct_rtmp(session.capture());
  if (!result.ok()) {
    std::printf("dissection failed: %s\n", result.error().to_string().c_str());
    return 1;
  }
  const analysis::StreamAnalysis& a = result.value();

  std::printf("reconstructed stream (from wire bytes only):\n");
  std::printf("  resolution   : %dx%d (from in-band SPS)\n", a.width,
              a.height);
  std::printf("  video        : %zu frames, %.1f fps, %.0f kbps\n",
              a.frames.size(), a.fps(), a.video_bitrate_bps() / 1e3);
  std::printf("  QP           : avg %.1f, stddev %.2f (from slice "
              "headers)\n",
              a.avg_qp(), a.qp_stddev());
  const char* pattern =
      a.frame_pattern() == analysis::FramePattern::IBP
          ? "IBP"
          : (a.frame_pattern() == analysis::FramePattern::IPOnly ? "IP-only"
                                                                 : "I-only");
  std::printf("  GOP pattern  : %s\n", pattern);
  std::printf("  missing      : %zu source frames (concealment needed)\n",
              a.missing_frames());
  std::printf("  audio        : AAC %d Hz, %d ch, %.0f kbps (from ADTS)\n",
              a.audio_sample_rate, a.audio_channels,
              a.audio_bitrate_bps / 1e3);

  std::vector<double> lats;
  for (const analysis::NtpMark& m : a.ntp_marks) {
    lats.push_back(m.delivery_latency_s());
  }
  std::printf("  NTP SEI marks: %zu; delivery latency median %.3f s\n",
              a.ntp_marks.size(), analysis::median(lats));

  std::printf("\nfirst frames (type/QP/bytes):\n  ");
  for (std::size_t i = 0; i < std::min<std::size_t>(a.frames.size(), 12);
       ++i) {
    std::printf("%c/%d/%uB ", media::frame_type_char(a.frames[i].type),
                a.frames[i].qp, static_cast<unsigned>(a.frames[i].bytes));
  }
  std::printf("\n");
  return 0;
}
