#include "mpegts/mpegts.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

#include "util/crc32.h"

namespace psc::mpegts {

namespace {

constexpr std::uint64_t kPtsWrap = 1ull << 33;

void write_ts_header(ByteWriter& w, std::uint16_t pid, bool pusi,
                     bool has_adaptation, bool has_payload, std::uint8_t cc) {
  w.u8(0x47);
  w.u8(static_cast<std::uint8_t>((pusi ? 0x40 : 0x00) | ((pid >> 8) & 0x1F)));
  w.u8(static_cast<std::uint8_t>(pid & 0xFF));
  const std::uint8_t afc = static_cast<std::uint8_t>(
      (has_adaptation ? 0x20 : 0x00) | (has_payload ? 0x10 : 0x00));
  w.u8(static_cast<std::uint8_t>(afc | (cc & 0x0F)));
}

void write_pts_field(ByteWriter& w, std::uint8_t prefix, std::uint64_t v) {
  v %= kPtsWrap;
  w.u8(static_cast<std::uint8_t>((prefix << 4) | (((v >> 30) & 0x7) << 1) |
                                 1));
  w.u16be(static_cast<std::uint16_t>((((v >> 15) & 0x7FFF) << 1) | 1));
  w.u16be(static_cast<std::uint16_t>(((v & 0x7FFF) << 1) | 1));
}

Result<std::uint64_t> read_pts_field(ByteReader& r) {
  auto b0 = r.u8();
  if (!b0) return b0.error();
  auto b12 = r.u16be();
  if (!b12) return b12.error();
  auto b34 = r.u16be();
  if (!b34) return b34.error();
  const std::uint64_t hi = (b0.value() >> 1) & 0x7;
  const std::uint64_t mid = (b12.value() >> 1) & 0x7FFF;
  const std::uint64_t lo = (b34.value() >> 1) & 0x7FFF;
  return (hi << 30) | (mid << 15) | lo;
}

void write_psi_packet(ByteWriter& w, std::uint16_t pid, std::uint8_t table_id,
                      const Bytes& table_body, std::uint8_t cc) {
  // section: table_id, section_syntax(1)+len, id, version, section nums,
  // body, crc32.
  ByteWriter sec;
  sec.u8(table_id);
  const std::size_t section_length = 5 + table_body.size() + 4;
  sec.u16be(static_cast<std::uint16_t>(0xB000 | (section_length & 0x3FF)));
  sec.u16be(1);     // transport_stream_id / program_number context
  sec.u8(0xC1);     // version 0, current_next 1
  sec.u8(0);        // section_number
  sec.u8(0);        // last_section_number
  sec.raw(table_body);
  const Bytes section = sec.take();
  const std::uint32_t crc = crc32_mpeg(section);

  const std::size_t start = w.size();
  write_ts_header(w, pid, /*pusi=*/true, /*adaptation=*/false,
                  /*payload=*/true, cc);
  w.u8(0);  // pointer_field
  w.raw(section);
  w.u32be(crc);
  // Stuff the remainder with 0xFF.
  assert(w.size() - start <= kTsPacketSize);
  w.fill(kTsPacketSize - (w.size() - start), 0xFF);
}

}  // namespace

std::uint64_t to_pts90k(Duration t) {
  return static_cast<std::uint64_t>(std::llround(to_s(t) * 90000.0)) %
         kPtsWrap;
}

Duration from_pts90k(std::uint64_t pts) {
  return seconds(static_cast<double>(pts) / 90000.0);
}

TsMuxer::TsMuxer(std::uint16_t pmt_pid, std::uint16_t video_pid,
                 std::uint16_t audio_pid)
    : pmt_pid_(pmt_pid), video_pid_(video_pid), audio_pid_(audio_pid) {}

std::uint8_t TsMuxer::next_cc(std::uint16_t pid) {
  std::uint8_t& cc = continuity_[pid];
  const std::uint8_t out = cc;
  cc = static_cast<std::uint8_t>((cc + 1) & 0x0F);
  return out;
}

Bytes TsMuxer::psi() {
  ByteWriter out;
  psi_into(out);
  return out.take();
}

void TsMuxer::psi_into(ByteWriter& out) {
  // PAT: program 1 -> PMT PID.
  ByteWriter pat_body;
  pat_body.u16be(1);  // program_number
  pat_body.u16be(static_cast<std::uint16_t>(0xE000 | pmt_pid_));
  write_psi_packet(out, kPatPid, 0x00, pat_body.take(), next_cc(kPatPid));

  // PMT: PCR on video PID; AVC video + ADTS audio streams.
  ByteWriter pmt_body;
  pmt_body.u16be(static_cast<std::uint16_t>(0xE000 | video_pid_));  // PCR PID
  pmt_body.u16be(0xF000);  // program_info_length = 0
  pmt_body.u8(kStreamTypeAvc);
  pmt_body.u16be(static_cast<std::uint16_t>(0xE000 | video_pid_));
  pmt_body.u16be(0xF000);  // ES_info_length = 0
  pmt_body.u8(kStreamTypeAac);
  pmt_body.u16be(static_cast<std::uint16_t>(0xE000 | audio_pid_));
  pmt_body.u16be(0xF000);
  write_psi_packet(out, pmt_pid_, 0x02, pmt_body.take(), next_cc(pmt_pid_));
}

void TsMuxer::pes_header_into(ByteWriter& pes,
                              const media::MediaSample& sample) const {
  const bool video = sample.kind == media::SampleKind::Video;
  const bool has_dts = video && sample.dts != sample.pts;
  pes.u24be(0x000001);
  pes.u8(video ? 0xE0 : 0xC0);
  const std::size_t header_data_len = has_dts ? 10 : 5;
  const std::size_t pes_len = 3 + header_data_len + sample.data.size();
  // Video PES may use length 0 (unbounded); we use it when too large.
  pes.u16be(pes_len <= 0xFFFF ? static_cast<std::uint16_t>(pes_len) : 0);
  pes.u8(0x80);  // '10' + flags
  pes.u8(has_dts ? 0xC0 : 0x80);  // PTS_DTS_flags
  pes.u8(static_cast<std::uint8_t>(header_data_len));
  write_pts_field(pes, has_dts ? 0x3 : 0x2, to_pts90k(sample.pts));
  if (has_dts) write_pts_field(pes, 0x1, to_pts90k(sample.dts));
}

void TsMuxer::write_payload(ByteWriter& out, std::uint16_t pid, BytesView head,
                            BytesView body, bool keyframe,
                            std::optional<Duration> pcr) {
  constexpr std::size_t kRoom = kTsPacketSize - 4;  // payload of a bare packet
  const std::size_t total = head.size() + body.size();
  // The first packet's adaptation field carries the flags (and PCR);
  // every later packet is bare except the last, which stuffing shortens
  // but never drops. So the packet count is fixed before any byte is
  // written, and room for the whole PES is reserved at once. Packets are
  // built in a stack batch and appended a batch at a time: growing the
  // output in place would zero-fill bytes that are all overwritten.
  const bool want_flags = keyframe || pcr.has_value();
  const std::size_t flags_af = want_flags ? 1 + (pcr ? 6 : 0) : 0;
  const std::size_t first_room = kRoom - (flags_af > 0 ? flags_af + 1 : 0);
  const std::size_t packets =
      total == 0            ? 0
      : total <= first_room ? 1
                            : 1 + (total - first_room + kRoom - 1) / kRoom;
  out.reserve_more(packets * kTsPacketSize);
  std::uint8_t& cc = continuity_[pid];
  constexpr std::size_t kBatch = 8;
  std::array<std::uint8_t, kBatch * kTsPacketSize> batch;
  std::uint8_t* p = batch.data();

  std::size_t offset = 0;
  bool first = true;
  while (offset < total) {
    const std::size_t remaining = total - offset;
    // Compute adaptation field needs: PCR/random-access on first packet,
    // stuffing on the last.
    std::size_t af_len = first ? flags_af : 0;  // adaptation_field_length
    std::size_t payload_room = kRoom - (af_len > 0 ? af_len + 1 : 0);
    if (remaining < payload_room) {
      // Need stuffing: grow the adaptation field.
      const std::size_t deficit = payload_room - remaining;
      if (af_len == 0) {
        // Introduce an AF: length byte + flags byte consume 2; any
        // further deficit becomes stuffing.
        af_len = std::max<std::size_t>(1, deficit >= 2 ? deficit - 1 : 1);
        if (deficit == 1) {
          // A single spare byte: AF with only the length byte (len 0).
          af_len = 0;
        }
      } else {
        af_len += deficit;
      }
      payload_room = remaining;
    }
    const bool has_af = (first && want_flags) || payload_room < kRoom;

    [[maybe_unused]] std::uint8_t* const packet_end = p + kTsPacketSize;
    p[0] = 0x47;
    p[1] = static_cast<std::uint8_t>((first ? 0x40 : 0x00) |
                                     ((pid >> 8) & 0x1F));
    p[2] = static_cast<std::uint8_t>(pid & 0xFF);
    p[3] = static_cast<std::uint8_t>((has_af ? 0x30 : 0x10) | cc);
    cc = static_cast<std::uint8_t>((cc + 1) & 0x0F);
    p += 4;
    if (has_af) {
      *p++ = static_cast<std::uint8_t>(af_len);
      if (af_len > 0) {
        std::uint8_t* const af_end = p + af_len;
        std::uint8_t flags = 0;
        if (first && keyframe) flags |= 0x40;  // random_access_indicator
        if (first && pcr) flags |= 0x10;       // PCR_flag
        *p++ = flags;
        if (first && pcr) {
          const std::uint64_t base = to_pts90k(*pcr);
          p[0] = static_cast<std::uint8_t>(base >> 25);
          p[1] = static_cast<std::uint8_t>(base >> 17);
          p[2] = static_cast<std::uint8_t>(base >> 9);
          p[3] = static_cast<std::uint8_t>(base >> 1);
          p[4] = static_cast<std::uint8_t>(((base & 1) << 7) | 0x7E);
          p[5] = 0;
          p += 6;
        }
        std::fill(p, af_end, std::uint8_t{0xFF});
        p = af_end;
      }
    }
    // Payload: the rest of the head, then body bytes.
    std::size_t pos = offset;
    std::size_t left = payload_room;
    if (pos < head.size()) {
      const std::size_t take = std::min(left, head.size() - pos);
      // std::copy_n, not memcpy: GCC expands a memcpy this short into
      // `rep movsq`, whose start-up cost doubled the time of a one-packet
      // (audio) sample.
      std::copy_n(head.data() + pos, take, p);
      p += take;
      pos += take;
      left -= take;
    }
    if (left > 0) {
      std::memcpy(p, body.data() + (pos - head.size()), left);
      p += left;
    }
    assert(p == packet_end);
    offset += payload_room;
    first = false;
    if (p == batch.data() + batch.size() || offset >= total) {
      out.raw(BytesView(batch.data(), p));
      p = batch.data();
    }
  }
}

Bytes TsMuxer::mux_sample(const media::MediaSample& sample) {
  ByteWriter out;
  mux_sample_into(out, sample);
  return out.take();
}

void TsMuxer::mux_sample_into(ByteWriter& out,
                              const media::MediaSample& sample) {
  const bool video = sample.kind == media::SampleKind::Video;
  const std::uint16_t pid = video ? video_pid_ : audio_pid_;
  pes_scratch_.clear();
  pes_header_into(pes_scratch_, sample);
  const std::optional<Duration> pcr =
      video ? std::optional<Duration>(sample.dts) : std::nullopt;
  write_payload(out, pid, pes_scratch_.bytes(), sample.data, sample.keyframe,
                pcr);
}

Status TsDemuxer::push(BytesView ts_bytes) {
  if (ts_bytes.size() % kTsPacketSize != 0) {
    return Error{"malformed", "TS buffer not a multiple of 188 bytes"};
  }
  for (std::size_t off = 0; off < ts_bytes.size(); off += kTsPacketSize) {
    if (auto s = handle_packet(ts_bytes.subspan(off, kTsPacketSize)); !s) {
      return s;
    }
  }
  return {};
}

Status TsDemuxer::handle_psi(std::uint16_t pid, BytesView pkt,
                             std::size_t payload_off) {
  if (payload_off >= kTsPacketSize) return {};
  const std::uint8_t pointer = pkt[payload_off];
  const std::size_t sec_off = payload_off + 1 + pointer;
  if (sec_off + 3 > kTsPacketSize) return {};
  const std::size_t sec_len =
      ((pkt[sec_off + 1] & 0x0F) << 8) | pkt[sec_off + 2];
  const std::size_t total = 3 + sec_len;
  if (sec_off + total > kTsPacketSize || total < 4 + 5) return {};
  const BytesView section = pkt.subspan(sec_off, total - 4);
  ByteReader crc_r(pkt.subspan(sec_off + total - 4, 4));
  const std::uint32_t crc = crc_r.u32be().value();
  if (crc32_mpeg(section) != crc) {
    return Error{"crc", "PSI CRC mismatch"};
  }
  const std::uint8_t table_id = pkt[sec_off];
  // Body starts after table_id(1)+len(2)+id(2)+version(1)+sec(1)+last(1).
  const std::size_t body_off = sec_off + 8;
  const std::size_t body_end = sec_off + total - 4;
  if (pid == kPatPid && table_id == 0x00) {
    // PAT: program_number(2) + PMT PID(2) entries.
    for (std::size_t p = body_off; p + 4 <= body_end; p += 4) {
      const std::uint16_t program =
          static_cast<std::uint16_t>((pkt[p] << 8) | pkt[p + 1]);
      const std::uint16_t map_pid = static_cast<std::uint16_t>(
          ((pkt[p + 2] & 0x1F) << 8) | pkt[p + 3]);
      if (program != 0) pmt_pid_ = map_pid;  // program 0 = NIT
    }
  } else if (table_id == 0x02) {
    // PMT: pcr_pid(2), program_info_length(2)+descr, then ES loop:
    // stream_type(1), pid(2), es_info_length(2)+descr.
    if (body_off + 4 > body_end) return {};
    const std::size_t info_len =
        ((pkt[body_off + 2] & 0x0F) << 8) | pkt[body_off + 3];
    std::size_t p = body_off + 4 + info_len;
    while (p + 5 <= body_end) {
      const std::uint8_t stream_type = pkt[p];
      const std::uint16_t es_pid = static_cast<std::uint16_t>(
          ((pkt[p + 1] & 0x1F) << 8) | pkt[p + 2]);
      const std::size_t es_info =
          ((pkt[p + 3] & 0x0F) << 8) | pkt[p + 4];
      if (stream_type == kStreamTypeAvc || stream_type == kStreamTypeAac) {
        pid_stream_type_[es_pid] = stream_type;
      }
      p += 5 + es_info;
    }
  }
  return {};
}

Status TsDemuxer::handle_packet(BytesView pkt) {
  ++packets_;
  if (pkt[0] != 0x47) return Error{"malformed", "TS sync byte missing"};
  const bool pusi = (pkt[1] & 0x40) != 0;
  const std::uint16_t pid =
      static_cast<std::uint16_t>(((pkt[1] & 0x1F) << 8) | pkt[2]);
  const std::uint8_t afc = (pkt[3] >> 4) & 0x3;
  const std::uint8_t cc = pkt[3] & 0x0F;

  std::size_t payload_off = 4;
  bool rai = false;
  if (afc & 0x2) {  // adaptation field present
    const std::uint8_t af_len = pkt[4];
    if (af_len > 0 && 5 < pkt.size()) rai = (pkt[5] & 0x40) != 0;
    payload_off = 5 + af_len;
    if (payload_off > kTsPacketSize) {
      return Error{"malformed", "adaptation field overruns packet"};
    }
  }
  if (!(afc & 0x1)) return {};  // no payload

  if (pid == kPatPid || (pmt_pid_ != 0 && pid == pmt_pid_)) {
    if (pusi) return handle_psi(pid, pkt, payload_off);
    return {};
  }

  // Only PIDs announced by the PMT carry elementary streams we decode.
  auto st_it = pid_stream_type_.find(pid);
  if (st_it == pid_stream_type_.end()) return {};  // ignore others

  PidState& st = pids_[pid];
  if (st.last_cc && ((*st.last_cc + 1) & 0x0F) != cc) ++cc_errors_;
  st.last_cc = cc;

  if (pusi) {
    finish_pes(pid, st);
    st.keyframe = rai;
  }
  const BytesView payload = pkt.subspan(payload_off);
  st.pes_buffer.insert(st.pes_buffer.end(), payload.begin(), payload.end());
  return {};
}

void TsDemuxer::finish_pes(std::uint16_t pid, PidState& st) {
  if (st.pes_buffer.empty()) return;
  Bytes buf = std::move(st.pes_buffer);
  st.pes_buffer.clear();

  ByteReader r(buf);
  auto start = r.u24be();
  if (!start || start.value() != 0x000001) return;
  auto stream_id = r.u8();
  if (!stream_id) return;
  auto pes_len = r.u16be();
  if (!pes_len) return;
  auto flags1 = r.u8();
  if (!flags1) return;
  auto flags2 = r.u8();
  if (!flags2) return;
  auto hdr_len = r.u8();
  if (!hdr_len) return;
  const std::size_t data_start = r.position() + hdr_len.value();

  TsSample s;
  const auto st_it = pid_stream_type_.find(pid);
  const std::uint8_t stream_type =
      st_it != pid_stream_type_.end() ? st_it->second : kStreamTypeAvc;
  s.kind = stream_type == kStreamTypeAac ? media::SampleKind::Audio
                                         : media::SampleKind::Video;
  s.keyframe = st.keyframe;
  const std::uint8_t pd = (flags2.value() >> 6) & 0x3;
  if (pd & 0x2) {
    auto pts = read_pts_field(r);
    if (!pts) return;
    s.pts = from_pts90k(pts.value());
    s.dts = s.pts;
  }
  if (pd == 0x3) {
    auto dts = read_pts_field(r);
    if (!dts) return;
    s.dts = from_pts90k(dts.value());
  }
  if (data_start > buf.size()) return;
  s.data.assign(buf.begin() + static_cast<std::ptrdiff_t>(data_start),
                buf.end());
  samples_.push_back(std::move(s));
}

void TsDemuxer::flush() {
  for (auto& [pid, st] : pids_) finish_pes(pid, st);
}

std::vector<TsSample> TsDemuxer::take_samples() {
  // PES packets complete per PID in stream order; merge by DTS so callers
  // see one decode-ordered feed.
  std::vector<TsSample> out = std::move(samples_);
  samples_.clear();
  std::stable_sort(out.begin(), out.end(),
                   [](const TsSample& a, const TsSample& b) {
                     return a.dts < b.dts;
                   });
  return out;
}

}  // namespace psc::mpegts
