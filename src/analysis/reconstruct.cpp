#include "analysis/reconstruct.h"

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"
#include "flv/flv.h"
#include "mpegts/mpegts.h"
#include "rtmp/chunk.h"
#include "rtmp/handshake.h"
#include "rtmp/message.h"

namespace psc::analysis {

namespace {

constexpr double kNominalFps = 30.0;

/// Escaped slice-payload bytes unescaped to parse a slice header. The
/// header takes a few bytes; the rest of the slice is never read.
constexpr std::size_t kSliceHeadBytes = 64;

/// RTMP handshake bytes before the chunk stream: S0+S1+S2.
constexpr std::size_t kRtmpHandshakeBytes = 1 + 2 * rtmp::kHandshakeBlobSize;

/// Parse a slice header from the unescaped head of the slice's escaped
/// payload. A cut through an emulation-prevention run can keep its 03
/// (the byte after it, which decides, is past the cut), so the last two
/// unescaped bytes are dropped; a header that does not fit what is left
/// is parsed from the whole payload instead — the same answer either way.
Result<media::SliceHeader> parse_slice_view(media::NalUnit& nal,
                                            BytesView payload,
                                            const media::Sps& sps,
                                            const media::Pps& pps) {
  if (payload.size() > kSliceHeadBytes) {
    nal.rbsp = media::unescape_ebsp(payload.first(kSliceHeadBytes));
    nal.rbsp.resize(nal.rbsp.size() - 2);
    auto hdr = media::parse_slice_header(nal, sps, pps);
    if (hdr) return hdr;
  }
  nal.rbsp = media::unescape_ebsp(payload);
  return media::parse_slice_header(nal, sps, pps);
}

}  // namespace

double StreamAnalysis::video_duration_s() const {
  if (frames.size() < 2) return 0;
  double lo = 1e18, hi = -1e18;
  for (const FrameRecord& f : frames) {
    lo = std::min(lo, to_s(f.pts));
    hi = std::max(hi, to_s(f.pts));
  }
  return hi - lo + 1.0 / kNominalFps;
}

double StreamAnalysis::video_bitrate_bps() const {
  const double dur = video_duration_s();
  if (dur <= 0) return 0;
  std::size_t bytes = 0;
  for (const FrameRecord& f : frames) bytes += f.bytes;
  return static_cast<double>(bytes) * 8.0 / dur;
}

double StreamAnalysis::fps() const {
  const double dur = video_duration_s();
  return dur <= 0 ? 0 : static_cast<double>(frames.size()) / dur;
}

double StreamAnalysis::avg_qp() const {
  if (frames.empty()) return 0;
  double s = 0;
  for (const FrameRecord& f : frames) s += f.qp;
  return s / static_cast<double>(frames.size());
}

double StreamAnalysis::qp_stddev() const {
  std::vector<double> qps;
  qps.reserve(frames.size());
  for (const FrameRecord& f : frames) qps.push_back(f.qp);
  return stddev(qps);
}

FramePattern StreamAnalysis::frame_pattern() const {
  bool has_b = false, has_p = false;
  for (const FrameRecord& f : frames) {
    if (f.type == media::FrameType::B) has_b = true;
    if (f.type == media::FrameType::P) has_p = true;
  }
  if (has_b) return FramePattern::IBP;
  if (has_p) return FramePattern::IPOnly;
  return FramePattern::IOnly;
}

std::size_t StreamAnalysis::missing_frames() const {
  if (frames.size() < 2) return 0;
  std::vector<double> pts;
  pts.reserve(frames.size());
  for (const FrameRecord& f : frames) pts.push_back(to_s(f.pts));
  std::sort(pts.begin(), pts.end());
  const double period = 1.0 / kNominalFps;
  std::size_t missing = 0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double gap = pts[i] - pts[i - 1];
    if (gap > 1.5 * period) {
      missing += static_cast<std::size_t>(std::lround(gap / period)) - 1;
    }
  }
  return missing;
}

/// Analyse one video access unit (its NALs as views in nals_: header byte
/// plus escaped payload): update parameter sets, extract slice header +
/// NTP SEI. Parameter sets and SEIs are small and unescaped whole.
void StreamReconstructor::analyze_access_unit(Duration pts,
                                              TimePoint arrival,
                                              std::size_t wire_bytes) {
  FrameRecord rec;
  rec.pts = pts;
  rec.bytes = static_cast<std::uint32_t>(wire_bytes);
  bool have_slice = false;
  for (const BytesView raw : nals_) {
    media::NalUnit nal;
    nal.nal_ref_idc = (raw[0] >> 5) & 0x3;
    nal.type = static_cast<media::NalType>(raw[0] & 0x1F);
    const BytesView payload = raw.subspan(1);
    switch (nal.type) {
      case media::NalType::Sps: {
        auto sps = media::parse_sps_rbsp(media::unescape_ebsp(payload));
        if (sps) {
          sps_ = sps.value();
          out_.width = sps.value().width;
          out_.height = sps.value().height;
        }
        break;
      }
      case media::NalType::Pps: {
        auto pps = media::parse_pps_rbsp(media::unescape_ebsp(payload));
        if (pps) pps_ = pps.value();
        break;
      }
      case media::NalType::Sei: {
        nal.rbsp = media::unescape_ebsp(payload);
        auto ntp = media::parse_ntp_sei(nal);
        if (ntp) {
          out_.ntp_marks.push_back(
              NtpMark{media::seconds_from_ntp(*ntp), arrival});
        }
        break;
      }
      case media::NalType::IdrSlice:
      case media::NalType::NonIdrSlice: {
        if (!sps_ || !pps_) break;
        auto hdr = parse_slice_view(nal, payload, *sps_, *pps_);
        if (hdr) {
          rec.type = hdr.value().type;
          rec.qp = static_cast<std::int16_t>(hdr.value().qp);
          have_slice = true;
        }
        break;
      }
      default:
        break;
    }
  }
  if (have_slice) out_.frames.push_back(rec);
}

void StreamReconstructor::note_adts(BytesView data) {
  auto info = media::parse_adts_header(data);
  if (!info) return;
  out_.audio_sample_rate = info.value().sample_rate;
  out_.audio_channels = info.value().channels;
  audio_bytes_ += data.size();
}

void StreamReconstructor::feed(TimePoint t, BytesView record) {
  if (error_) return;
  if (kind_ == Kind::Rtmp) {
    feed_rtmp(t, record);
  } else {
    feed_hls(t, record);
  }
}

void StreamReconstructor::feed_rtmp(TimePoint t, BytesView data) {
  // Skip S0+S1+S2, which may end anywhere inside a record.
  const std::uint64_t handshake_left =
      fed_bytes_ < kRtmpHandshakeBytes ? kRtmpHandshakeBytes - fed_bytes_ : 0;
  fed_bytes_ += data.size();
  data = data.subspan(std::min<std::uint64_t>(handshake_left, data.size()));
  if (data.empty()) return;
  if (auto s = reader_.push(data); !s) {
    error_ = s.error();
    return;
  }
  // Drained record by record, so message completion times are known. Tags
  // are read in place: the NAL views point into the message payload.
  reader_.drain([&](const rtmp::Message& msg) {
    if (msg.type == rtmp::MessageType::Video) {
      auto tag = flv::view_video_tag(msg.payload);
      if (!tag) return;
      if (tag.value().packet_type == flv::AvcPacketType::SequenceHeader) {
        auto cfg = media::parse_avc_decoder_config(tag.value().data);
        if (cfg) {
          sps_ = cfg.value().sps;
          pps_ = cfg.value().pps;
          out_.width = cfg.value().sps.width;
          out_.height = cfg.value().sps.height;
        }
        return;
      }
      if (!media::avcc_nal_views(tag.value().data, nals_)) return;
      const Duration pts = millis(static_cast<double>(msg.timestamp_ms) +
                                  tag.value().composition_time_ms);
      analyze_access_unit(pts, t, msg.payload.size());
    } else if (msg.type == rtmp::MessageType::Audio) {
      auto tag = flv::view_audio_tag(msg.payload);
      if (!tag) return;
      note_adts(tag.value().data);
    }
  });
}

void StreamReconstructor::feed_hls(TimePoint t, BytesView segment) {
  SegmentInfo seg;
  seg.bytes = segment.size();
  double pts_lo = 1e18, pts_hi = -1e18;
  std::size_t seg_video_bytes = 0;
  std::vector<double> seg_qps;
  // Access units arrive as views into the demuxer's PES buffers, video
  // in stream order; nothing reads the interleaving with audio.
  const mpegts::TsDemuxer::Visitor visit = [&](const mpegts::TsAccessUnit&
                                                   au) {
    if (au.kind == media::SampleKind::Video) {
      if (!media::annexb_nal_views(au.data, nals_)) return;
      const std::size_t before = out_.frames.size();
      analyze_access_unit(au.pts, t, au.data.size());
      if (out_.frames.size() > before) {
        seg_qps.push_back(out_.frames.back().qp);
        ++seg.frames;
      }
      seg_video_bytes += au.data.size();
      pts_lo = std::min(pts_lo, to_s(au.pts));
      pts_hi = std::max(pts_hi, to_s(au.pts));
    } else {
      note_adts(au.data);
    }
  };
  demux_.reset();  // each segment is a TS file of its own
  if (auto s = demux_.push(segment, visit); !s) {
    error_ = s.error();
    return;
  }
  demux_.flush(visit);
  if (seg.frames > 0 && pts_hi > pts_lo) {
    seg.duration = seconds(pts_hi - pts_lo + 1.0 / kNominalFps);
    seg.video_bitrate_bps =
        static_cast<double>(seg_video_bytes) * 8.0 / to_s(seg.duration);
    seg.avg_qp = mean(seg_qps);
    out_.segments.push_back(seg);
  }
}

Result<StreamAnalysis> StreamReconstructor::finish() {
  if (error_) return std::move(*error_);
  if (kind_ == Kind::Rtmp && fed_bytes_ < kRtmpHandshakeBytes) {
    return make_error("capture", "capture shorter than RTMP handshake");
  }
  const double dur = out_.video_duration_s();
  if (dur > 0) {
    out_.audio_bitrate_bps = static_cast<double>(audio_bytes_) * 8.0 / dur;
  }
  // Campaign results hold these for the whole run: no growth slack.
  out_.frames.shrink_to_fit();
  out_.ntp_marks.shrink_to_fit();
  out_.segments.shrink_to_fit();
  return std::move(out_);
}

namespace {

/// Feed every packet of a capture that kept its bytes.
Result<StreamAnalysis> reconstruct(const net::Capture& cap,
                                   StreamReconstructor::Kind kind) {
  if (!cap.keeps_bytes()) {
    return make_error("capture", "records-only capture keeps no bytes");
  }
  StreamReconstructor r(kind);
  for (std::size_t i = 0; i < cap.packets().size(); ++i) {
    r.feed(cap.packets()[i].time, cap.packet_data(i));
  }
  return r.finish();
}

}  // namespace

Result<StreamAnalysis> reconstruct_rtmp(const net::Capture& cap) {
  return reconstruct(cap, StreamReconstructor::Kind::Rtmp);
}

Result<StreamAnalysis> reconstruct_hls(const net::Capture& cap) {
  return reconstruct(cap, StreamReconstructor::Kind::Hls);
}

}  // namespace psc::analysis
