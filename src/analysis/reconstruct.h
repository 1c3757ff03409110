// Offline stream reconstruction from packet captures — the simulation's
// equivalent of the paper's wireshark + libav pipeline (§2):
//
//   "After finding and reconstructing the multimedia TCP stream using
//    wireshark, single segments are isolated by saving the response of
//    HTTP GET request which contains an MPEG-TS file ready to be played.
//    For RTMP, we exploit the wireshark dissector which can extract the
//    audio and video chunks."
//
// StreamReconstructor reads one delivered record at a time: it re-dissects
// the raw RTMP chunk stream (skipping the handshake), or demuxes each
// MPEG-TS segment of an HLS session. It recovers per-frame QP (slice
// headers), frame types, resolution (SPS), per-frame sizes, ADTS audio
// parameters and the broadcaster's NTP timestamp SEIs — everything §5.2
// reports. Fed as the bytes arrive (a campaign taps the viewer's capture),
// it needs no stored trace; reconstruct_rtmp()/reconstruct_hls() run the
// same reconstructor over a capture that kept its bytes. Nothing here
// reads encoder-side ground truth.
#pragma once

#include <optional>
#include <vector>

#include "media/aac.h"
#include "media/h264.h"
#include "media/types.h"
#include "net/capture.h"
#include "rtmp/chunk.h"
#include "util/result.h"

namespace psc::analysis {

/// One video access unit. A round's analysed sessions hold millions of
/// these, so the record is kept to 16 bytes: slice QP is in [0, 51] (the
/// slice-header parse rejects anything else), and an access unit is one
/// RTMP message (24-bit length) or lies inside one in-memory TS segment.
struct FrameRecord {
  Duration pts{0};
  std::uint32_t bytes = 0;  // access-unit size on the wire
  std::int16_t qp = 0;
  media::FrameType type = media::FrameType::I;

  bool operator==(const FrameRecord&) const = default;
};
static_assert(sizeof(FrameRecord) == 16);

/// An NTP timestamp SEI observed in the stream, with the arrival time of
/// the packet that contained it.
struct NtpMark {
  double ntp_s = 0;
  TimePoint arrival{};

  double delivery_latency_s() const { return to_s(arrival) - ntp_s; }
  bool operator==(const NtpMark&) const = default;
};

/// Per-HLS-segment statistics (paper Fig. 6(b), 7(b)).
struct SegmentInfo {
  Duration duration{0};
  std::size_t bytes = 0;
  double video_bitrate_bps = 0;
  double avg_qp = 0;
  std::size_t frames = 0;

  bool operator==(const SegmentInfo&) const = default;
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

  /// Field by field; doubles compare exactly.
  bool operator==(const StreamAnalysis&) const = default;
};

/// Reconstructs one session's stream from its delivered records, in
/// arrival order, without keeping them.
class StreamReconstructor {
 public:
  enum class Kind { Rtmp, Hls };

  explicit StreamReconstructor(Kind kind) : kind_(kind) {}

  /// One delivered record: RTMP chunk-stream bytes (the handshake is
  /// skipped, wherever it ends), or one complete HLS GET response (one
  /// MPEG-TS file). The first error is latched; later records are
  /// ignored.
  void feed(TimePoint t, BytesView record);

  /// The analysis of everything fed, or the latched error. Call once.
  Result<StreamAnalysis> finish();

 private:
  void feed_rtmp(TimePoint t, BytesView data);
  void feed_hls(TimePoint t, BytesView segment);
  /// Parse one video access unit (NAL views in nals_) into a frame record
  /// and any NTP SEI marks.
  void analyze_access_unit(Duration pts, TimePoint arrival,
                           std::size_t wire_bytes);
  void note_adts(BytesView data);

  Kind kind_;
  StreamAnalysis out_;
  std::optional<Error> error_;
  std::optional<media::Sps> sps_;  // active parameter sets
  std::optional<media::Pps> pps_;
  std::vector<BytesView> nals_;  // reused: a steady stream allocates once
  std::size_t audio_bytes_ = 0;
  std::uint64_t fed_bytes_ = 0;  // RTMP bytes fed, handshake included
  rtmp::ChunkReader reader_;  // RTMP only
};

/// Dissect a client-side RTMP capture (handshake + chunk stream), packet
/// by packet. A records-only capture is an error.
Result<StreamAnalysis> reconstruct_rtmp(const net::Capture& cap);

/// Demux an HLS capture where each capture record is one complete
/// MPEG-TS segment (one HTTP GET response). A records-only capture is an
/// error.
Result<StreamAnalysis> reconstruct_hls(const net::Capture& cap);

}  // namespace psc::analysis
