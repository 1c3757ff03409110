// Offline stream reconstruction from packet captures — the simulation's
// equivalent of the paper's wireshark + libav pipeline (§2):
//
//   "After finding and reconstructing the multimedia TCP stream using
//    wireshark, single segments are isolated by saving the response of
//    HTTP GET request which contains an MPEG-TS file ready to be played.
//    For RTMP, we exploit the wireshark dissector which can extract the
//    audio and video chunks."
//
// reconstruct_rtmp() re-dissects the raw RTMP chunk stream (skipping the
// handshake) from a client-side capture; reconstruct_hls() demuxes each
// captured MPEG-TS segment. Both recover per-frame QP (slice headers),
// frame types, resolution (SPS), per-frame sizes, ADTS audio parameters
// and the broadcaster's NTP timestamp SEIs — everything §5.2 reports.
// Nothing here reads encoder-side ground truth.
#pragma once

#include <optional>
#include <vector>

#include "media/aac.h"
#include "media/h264.h"
#include "media/types.h"
#include "net/capture.h"
#include "util/result.h"

namespace psc::analysis {

struct FrameRecord {
  media::FrameType type = media::FrameType::I;
  int qp = 0;
  std::size_t bytes = 0;  // access-unit size on the wire
  Duration pts{0};
  TimePoint arrival{};
};

/// An NTP timestamp SEI observed in the stream, with the arrival time of
/// the packet that contained it.
struct NtpMark {
  double ntp_s = 0;
  TimePoint arrival{};

  double delivery_latency_s() const { return to_s(arrival) - ntp_s; }
};

/// Per-HLS-segment statistics (paper Fig. 6(b), 7(b)).
struct SegmentInfo {
  Duration duration{0};
  std::size_t bytes = 0;
  double video_bitrate_bps = 0;
  double avg_qp = 0;
  std::size_t frames = 0;
};

enum class FramePattern { IBP, IPOnly, IOnly };

struct StreamAnalysis {
  int width = 0, height = 0;
  std::vector<FrameRecord> frames;
  std::vector<NtpMark> ntp_marks;
  std::vector<SegmentInfo> segments;  // HLS only

  int audio_sample_rate = 0;
  int audio_channels = 0;
  double audio_bitrate_bps = 0;

  double video_duration_s() const;
  double video_bitrate_bps() const;
  double fps() const;
  double avg_qp() const;
  double qp_stddev() const;
  FramePattern frame_pattern() const;
  /// Frames missing from the PTS timeline (concealment required).
  std::size_t missing_frames() const;
};

/// Dissect a client-side RTMP capture (handshake + chunk stream). A
/// records-only capture is an error.
Result<StreamAnalysis> reconstruct_rtmp(const net::Capture& cap);

/// Demux an HLS capture where each capture record is one complete
/// MPEG-TS segment (one HTTP GET response). A records-only capture is an
/// error.
Result<StreamAnalysis> reconstruct_hls(const net::Capture& cap);

}  // namespace psc::analysis
