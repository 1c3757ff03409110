// MPEG-2 Transport Stream (ISO/IEC 13818-1) multiplexer and demultiplexer.
//
// HLS media segments are MPEG-TS files: the paper's pipeline isolated each
// HTTP GET response "which contains an MPEG-TS file ready to be played"
// and demuxed it to get at the H.264/AAC inside. This module produces and
// parses those files: 188-byte packets, PAT/PMT with MPEG CRC-32, PES
// packets with 33-bit 90 kHz PTS/DTS, adaptation-field stuffing and PCR.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "media/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::mpegts {

constexpr std::size_t kTsPacketSize = 188;
constexpr std::uint16_t kPatPid = 0x0000;
constexpr std::uint16_t kPmtPid = 0x1000;
constexpr std::uint16_t kVideoPid = 0x0100;
constexpr std::uint16_t kAudioPid = 0x0101;
constexpr std::uint8_t kStreamTypeAvc = 0x1B;
constexpr std::uint8_t kStreamTypeAac = 0x0F;  // ADTS AAC

/// 90 kHz clock conversions (PTS/DTS are 33-bit counters at 90 kHz).
std::uint64_t to_pts90k(Duration t);
Duration from_pts90k(std::uint64_t pts);

/// Packetises a DTS-ordered sample feed into TS packets. PSI (PAT+PMT) is
/// emitted at construction and then before every keyframe, so each HLS
/// segment that starts on a keyframe is independently decodable.
class TsMuxer {
 public:
  /// PIDs are configurable; defaults match common packager output.
  explicit TsMuxer(std::uint16_t pmt_pid = kPmtPid,
                   std::uint16_t video_pid = kVideoPid,
                   std::uint16_t audio_pid = kAudioPid);

  /// TS packets (multiple of 188 bytes) for one sample.
  Bytes mux_sample(const media::MediaSample& sample);
  /// Same, appended to an existing writer (segmenter hot path: no
  /// intermediate per-sample buffer).
  void mux_sample_into(ByteWriter& out, const media::MediaSample& sample);

  /// PAT + PMT packets (2 x 188 bytes).
  Bytes psi();
  void psi_into(ByteWriter& out);

 private:
  /// PES header only (start code through the optional DTS field); the
  /// sample payload is chunked straight from the caller's buffer by
  /// write_payload so media bytes are copied once, not twice.
  void pes_header_into(ByteWriter& pes, const media::MediaSample& sample) const;
  /// Packetises the logical PES stream `head ++ body` (two spans so the
  /// header can live in scratch while the payload stays in place).
  void write_payload(ByteWriter& out, std::uint16_t pid, BytesView head,
                     BytesView body, bool keyframe,
                     std::optional<Duration> pcr);
  std::uint8_t next_cc(std::uint16_t pid);

  std::uint16_t pmt_pid_;
  std::uint16_t video_pid_;
  std::uint16_t audio_pid_;
  std::map<std::uint16_t, std::uint8_t> continuity_;
  ByteWriter pes_scratch_;  // reused across samples; capacity persists
};

/// One elementary-stream access unit recovered from a TS.
struct TsSample {
  media::SampleKind kind = media::SampleKind::Video;
  Duration pts{0};
  Duration dts{0};
  bool keyframe = false;  // random_access_indicator from adaptation field
  Bytes data;
};

/// One access unit as the demuxer completes it. `data` views the
/// demuxer's PES buffer: it is valid only while the visitor runs.
struct TsAccessUnit {
  media::SampleKind kind = media::SampleKind::Video;
  Duration pts{0};
  Duration dts{0};
  bool keyframe = false;  // random_access_indicator from adaptation field
  BytesView data;
};

/// Reassembles PES payloads from TS packets, discovering the program
/// layout from PAT/PMT like a standard demuxer (stream types 0x1B AVC
/// video and 0x0F ADTS audio are recognised; other PIDs are skipped).
/// Push whole packets (any multiple of 188 bytes); call flush() at end
/// of stream to release the final partially-buffered PES packets.
///
/// Each completed access unit goes to a visitor, per PID in stream order,
/// as a view into that PID's PES buffer, which keeps its capacity from
/// one PES packet to the next. The visitor-less push()/flush() copy each
/// unit into a TsSample for take_samples() instead.
class TsDemuxer {
 public:
  using Visitor = std::function<void(const TsAccessUnit&)>;

  Status push(BytesView ts_bytes, const Visitor& visit);
  void flush(const Visitor& visit);

  Status push(BytesView ts_bytes);
  void flush();
  /// Samples collected so far (moves them out), merged across PIDs in
  /// decode (DTS) order.
  std::vector<TsSample> take_samples();

  /// Start over as a new demuxer would (program layout, per-PID state,
  /// counters and collected samples forgotten) but keep the PES buffers'
  /// capacity, for a reader that demuxes one TS file after another.
  void reset();

  std::size_t packets_seen() const { return packets_; }
  std::size_t continuity_errors() const { return cc_errors_; }

 private:
  struct PidState {
    Bytes pes_buffer;
    bool keyframe = false;
    std::optional<std::uint8_t> last_cc;
  };

  Status handle_packet(BytesView pkt, const Visitor& visit);
  Status handle_psi(std::uint16_t pid, BytesView pkt,
                    std::size_t payload_off);
  /// Hand the PES packet buffered for `pid` to `visit`, then empty the
  /// buffer (keeping its capacity).
  void finish_pes(std::uint16_t pid, PidState& st, const Visitor& visit);
  /// The access unit of `st`'s buffered PES packet, or nullopt when its
  /// header is malformed.
  std::optional<TsAccessUnit> read_pes(std::uint16_t pid,
                                       const PidState& st) const;
  /// The visitor of the collecting push()/flush(): copy into samples_.
  Visitor collector();

  std::map<std::uint16_t, PidState> pids_;
  std::map<std::uint16_t, std::uint8_t> pid_stream_type_;  // from PMT
  std::uint16_t pmt_pid_ = 0;  // learned from the PAT
  std::vector<TsSample> samples_;
  std::size_t packets_ = 0;
  std::size_t cc_errors_ = 0;
};

}  // namespace psc::mpegts
