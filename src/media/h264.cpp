#include "media/h264.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

#include "media/filler.h"
#include "util/bitio.h"

namespace psc::media {

namespace {

// UUID identifying our user_data_unregistered NTP SEI payload.
constexpr std::array<std::uint8_t, 16> kNtpSeiUuid = {
    0x70, 0x73, 0x63, 0x2d, 0x6e, 0x74, 0x70, 0x2d,
    0x74, 0x69, 0x6d, 0x65, 0x73, 0x74, 0x61, 0x6d};

constexpr int kMbSize = 16;
constexpr int kCropUnitY = 2;  // 4:2:0, frame_mbs_only

/// Core of escape_ebsp, reusable for streamed producers: append d[0, n)
/// to `out` in escaped (EBSP) form, carrying the consecutive-zero count
/// across calls so a payload can be escaped in chunks. Runs as
/// run-copies: memchr to the next zero byte, bulk-append the clean run,
/// and only inspect bytes around zero pairs. Output is byte-identical to
/// the naive per-byte loop.
void escape_append(Bytes& out, const std::uint8_t* d, std::size_t n,
                   std::size_t& zeros) {
  std::size_t copied = 0;  // d[0, copied) already appended
  std::size_t i = 0;
  while (i < n) {
    const std::uint8_t b = d[i];
    if (zeros >= 2 && b <= 0x03) {
      out.insert(out.end(), d + copied, d + i);
      out.push_back(0x03);
      copied = i;  // current byte flushes with the next run
      zeros = (b == 0x00) ? 1 : 0;
      ++i;
      continue;
    }
    if (b == 0x00) {
      ++zeros;
      ++i;
      continue;
    }
    zeros = 0;
    const void* z = std::memchr(d + i, 0, n - i);
    i = (z != nullptr)
            ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(z) - d)
            : n;
  }
  out.insert(out.end(), d + copied, d + n);
}

}  // namespace

Bytes escape_ebsp(BytesView rbsp) {
  Bytes out;
  out.reserve(rbsp.size() + rbsp.size() / 64);
  std::size_t zeros = 0;
  escape_append(out, rbsp.data(), rbsp.size(), zeros);
  return out;
}

Bytes unescape_ebsp(BytesView ebsp) {
  const std::uint8_t* d = ebsp.data();
  const std::size_t n = ebsp.size();
  Bytes out;
  out.reserve(n);
  std::size_t copied = 0;
  std::size_t zeros = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::uint8_t b = d[i];
    if (zeros >= 2 && b == 0x03 && i + 1 < n && d[i + 1] <= 0x03) {
      out.insert(out.end(), d + copied, d + i);
      copied = i + 1;  // drop the emulation prevention byte
      zeros = 0;
      ++i;
      continue;
    }
    if (b == 0x00) {
      ++zeros;
      ++i;
      continue;
    }
    zeros = 0;
    const void* z = std::memchr(d + i, 0, n - i);
    i = (z != nullptr)
            ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(z) - d)
            : n;
  }
  out.insert(out.end(), d + copied, d + n);
  return out;
}

const Bytes& NalUnit::escaped() const {
  if (ebsp.empty() && !rbsp.empty()) ebsp = escape_ebsp(rbsp);
  return ebsp;
}

Bytes serialize_nal(const NalUnit& nal) {
  const Bytes& escaped = nal.escaped();
  Bytes out;
  out.reserve(1 + escaped.size());
  out.push_back(static_cast<std::uint8_t>((nal.nal_ref_idc & 0x3) << 5 |
                                          static_cast<int>(nal.type)));
  out.insert(out.end(), escaped.begin(), escaped.end());
  return out;
}

Bytes annexb_wrap(const std::vector<NalUnit>& nals) {
  std::size_t total = 0;
  for (const NalUnit& nal : nals) total += 5 + nal.escaped().size();
  Bytes out;
  out.reserve(total);
  for (const NalUnit& nal : nals) {
    const Bytes& escaped = nal.escaped();
    out.insert(out.end(), {0x00, 0x00, 0x00, 0x01});
    out.push_back(static_cast<std::uint8_t>((nal.nal_ref_idc & 0x3) << 5 |
                                            static_cast<int>(nal.type)));
    out.insert(out.end(), escaped.begin(), escaped.end());
  }
  return out;
}

namespace {

Result<NalUnit> parse_nal_bytes(BytesView raw) {
  if (raw.empty()) return make_error("malformed", "empty NAL");
  NalUnit nal;
  const std::uint8_t hdr = raw[0];
  if (hdr & 0x80) return make_error("malformed", "forbidden_zero_bit set");
  nal.nal_ref_idc = (hdr >> 5) & 0x3;
  nal.type = static_cast<NalType>(hdr & 0x1F);
  const BytesView payload = raw.subspan(1);
  nal.rbsp = unescape_ebsp(payload);
  // Harvest the escaped form from the source stream: a re-wrap of this
  // NAL (AVCC <-> Annex-B at the origin and in RTMP fan-out) becomes a
  // bulk copy. The sim's streams are canonical escape outputs, so the
  // harvested bytes equal what escape_ebsp(rbsp) would produce.
  nal.ebsp.assign(payload.begin(), payload.end());
  return nal;
}

}  // namespace

Status annexb_nal_views(BytesView data, std::vector<BytesView>& nals) {
  nals.clear();
  // Hunt for the 0x01 terminator of the 00 00 01 code and check the two
  // bytes before it — the slice filler is ~1/16 zero bytes but only
  // ~1/256 0x01 bytes, so keying the memchr on 0x01 stops 16x less
  // often. Matches the byte-at-a-time scan exactly: a 0x01 inside or
  // directly after a matched code can never have two zeros before it.
  const std::uint8_t* d = data.data();
  const std::size_t n = data.size();
  std::size_t start = 0;  // first byte of the open NAL; 0 = none yet
  const auto close = [&](std::size_t end) -> Status {
    if (end == start) return make_error("malformed", "empty NAL");
    if (d[start] & 0x80) {
      return make_error("malformed", "forbidden_zero_bit set");
    }
    nals.push_back(data.subspan(start, end - start));
    return {};
  };
  for (std::size_t i = 2; i < n;) {
    const void* z = std::memchr(d + i, 0x01, n - i);
    if (z == nullptr) break;
    const std::size_t j =
        static_cast<std::size_t>(static_cast<const std::uint8_t*>(z) - d);
    if (d[j - 1] == 0 && d[j - 2] == 0) {
      if (start != 0) {
        // A 4-byte start code shows up as a zero byte before the 3-byte
        // code.
        std::size_t end = j - 2;
        if (end > start && d[end - 1] == 0) --end;
        if (auto s = close(end); !s) return s;
      }
      start = j + 1;
    }
    i = j + 1;
  }
  if (start == 0) {
    return make_error("malformed", "no Annex-B start code found");
  }
  return close(n);
}

namespace {

Result<std::vector<NalUnit>> parse_nal_views(
    const std::vector<BytesView>& views) {
  std::vector<NalUnit> out;
  out.reserve(views.size());
  for (const BytesView v : views) {
    auto nal = parse_nal_bytes(v);
    if (!nal) return nal.error();
    out.push_back(std::move(nal).value());
  }
  return out;
}

}  // namespace

Result<std::vector<NalUnit>> split_annexb(BytesView data) {
  std::vector<BytesView> views;
  if (auto s = annexb_nal_views(data, views); !s) return s.error();
  return parse_nal_views(views);
}

Bytes avcc_wrap(const std::vector<NalUnit>& nals) {
  std::size_t total = 0;
  for (const NalUnit& nal : nals) total += 5 + nal.escaped().size();
  Bytes out;
  out.reserve(total);
  for (const NalUnit& nal : nals) {
    const Bytes& escaped = nal.escaped();
    const auto len = static_cast<std::uint32_t>(1 + escaped.size());
    out.push_back(static_cast<std::uint8_t>(len >> 24));
    out.push_back(static_cast<std::uint8_t>(len >> 16));
    out.push_back(static_cast<std::uint8_t>(len >> 8));
    out.push_back(static_cast<std::uint8_t>(len));
    out.push_back(static_cast<std::uint8_t>((nal.nal_ref_idc & 0x3) << 5 |
                                            static_cast<int>(nal.type)));
    out.insert(out.end(), escaped.begin(), escaped.end());
  }
  return out;
}

Result<Bytes> annexb_to_avcc(BytesView data) {
  std::vector<BytesView> nals;
  if (auto s = annexb_nal_views(data, nals); !s) return s.error();
  Bytes out;
  out.reserve(data.size() + nals.size());
  for (const BytesView nal : nals) {
    const std::size_t len = nal.size();
    out.push_back(static_cast<std::uint8_t>(len >> 24));
    out.push_back(static_cast<std::uint8_t>(len >> 16));
    out.push_back(static_cast<std::uint8_t>(len >> 8));
    out.push_back(static_cast<std::uint8_t>(len));
    out.insert(out.end(), nal.begin(), nal.end());
  }
  return out;
}

Result<Bytes> avcc_to_annexb(BytesView data) {
  Bytes out;
  out.reserve(data.size() + 16);
  std::size_t pos = 0;
  const std::size_t n = data.size();
  while (pos < n) {
    if (n - pos < 4) {
      return make_error("truncated", "not enough bytes for u32be");
    }
    const std::size_t len = (std::size_t{data[pos]} << 24) |
                            (std::size_t{data[pos + 1]} << 16) |
                            (std::size_t{data[pos + 2]} << 8) |
                            data[pos + 3];
    pos += 4;
    if (n - pos < len) return make_error("truncated", "not enough bytes for view");
    if (len == 0) return make_error("malformed", "empty NAL");
    if (data[pos] & 0x80) {
      return make_error("malformed", "forbidden_zero_bit set");
    }
    out.insert(out.end(), {0x00, 0x00, 0x00, 0x01});
    out.insert(out.end(), data.begin() + pos, data.begin() + pos + len);
    pos += len;
  }
  return out;
}

Status avcc_nal_views(BytesView data, std::vector<BytesView>& nals) {
  nals.clear();
  ByteReader r(data);
  while (!r.at_end()) {
    auto len = r.u32be();
    if (!len) return len.error();
    auto raw = r.view(len.value());
    if (!raw) return raw.error();
    if (raw.value().empty()) return make_error("malformed", "empty NAL");
    if (raw.value()[0] & 0x80) {
      return make_error("malformed", "forbidden_zero_bit set");
    }
    nals.push_back(raw.value());
  }
  return {};
}

Result<std::vector<NalUnit>> split_avcc(BytesView data) {
  std::vector<BytesView> views;
  if (auto s = avcc_nal_views(data, views); !s) return s.error();
  return parse_nal_views(views);
}

Bytes write_sps_rbsp(const Sps& sps) {
  BitWriter w;
  w.bits(static_cast<std::uint32_t>(sps.profile_idc), 8);
  w.bits(0, 8);  // constraint_set flags + reserved
  w.bits(static_cast<std::uint32_t>(sps.level_idc), 8);
  w.ue(sps.sps_id);
  w.ue(static_cast<std::uint32_t>(sps.log2_max_frame_num - 4));
  w.ue(2);  // pic_order_cnt_type = 2 (display order == decode order proxy)
  w.ue(1);  // max_num_ref_frames
  w.bit(false);  // gaps_in_frame_num_value_allowed_flag

  const int width_mbs = (sps.width + kMbSize - 1) / kMbSize;
  const int height_mbs = (sps.height + kMbSize - 1) / kMbSize;
  const int crop_right_px = width_mbs * kMbSize - sps.width;
  const int crop_bottom_px = height_mbs * kMbSize - sps.height;
  w.ue(static_cast<std::uint32_t>(width_mbs - 1));
  w.ue(static_cast<std::uint32_t>(height_mbs - 1));
  w.bit(true);   // frame_mbs_only_flag
  w.bit(false);  // direct_8x8_inference_flag
  const bool crop = crop_right_px != 0 || crop_bottom_px != 0;
  w.bit(crop);
  if (crop) {
    w.ue(0);  // left
    w.ue(static_cast<std::uint32_t>(crop_right_px / kCropUnitY));
    w.ue(0);  // top
    w.ue(static_cast<std::uint32_t>(crop_bottom_px / kCropUnitY));
  }
  w.bit(false);  // vui_parameters_present_flag
  w.rbsp_trailing_bits();
  return w.take();
}

Result<Sps> parse_sps_rbsp(BytesView rbsp) {
  BitReader r(rbsp);
  Sps sps;
  auto rd = [&](auto&& res, auto& out) -> bool {
    if (!res) return false;
    out = res.value();
    return true;
  };
  std::uint32_t tmp = 0;
  if (!rd(r.bits(8), tmp)) return make_error("truncated", "sps profile");
  sps.profile_idc = static_cast<int>(tmp);
  if (sps.profile_idc >= 100) {
    return make_error("unsupported", "high-profile SPS not supported");
  }
  if (!rd(r.bits(8), tmp)) return make_error("truncated", "sps constraints");
  if (!rd(r.bits(8), tmp)) return make_error("truncated", "sps level");
  sps.level_idc = static_cast<int>(tmp);
  if (!rd(r.ue(), sps.sps_id)) return make_error("truncated", "sps id");
  if (!rd(r.ue(), tmp)) return make_error("truncated", "log2_max_frame_num");
  // Spec range is 0..12 (7.4.2.1.1). Unchecked, a 32-bit ue() value here
  // overflows the `int + 4` below and later feeds BitReader::bits() with
  // an absurd width when slice headers read frame_num.
  if (tmp > 12) {
    return make_error("malformed", "log2_max_frame_num_minus4 out of range");
  }
  sps.log2_max_frame_num = static_cast<int>(tmp) + 4;
  std::uint32_t poc_type = 0;
  if (!rd(r.ue(), poc_type)) return make_error("truncated", "poc type");
  if (poc_type != 2) {
    return make_error("unsupported", "only pic_order_cnt_type 2 supported");
  }
  if (!rd(r.ue(), tmp)) return make_error("truncated", "max_num_ref_frames");
  auto gaps = r.bit();
  if (!gaps) return gaps.error();
  std::uint32_t width_mbs_m1 = 0, height_mbs_m1 = 0;
  if (!rd(r.ue(), width_mbs_m1)) return make_error("truncated", "width");
  if (!rd(r.ue(), height_mbs_m1)) return make_error("truncated", "height");
  // Bound the picture grid before any size arithmetic: an unchecked
  // 32-bit macroblock count wraps `(mbs + 1) * 16` and yields garbage or
  // negative dimensions. 4096 MBs per axis (65536 px) is far beyond any
  // real level's limit.
  if (width_mbs_m1 >= 4096 || height_mbs_m1 >= 4096) {
    return make_error("malformed", "SPS macroblock dimensions out of range");
  }
  auto frame_mbs_only = r.bit();
  if (!frame_mbs_only) return frame_mbs_only.error();
  if (!frame_mbs_only.value()) {
    return make_error("unsupported", "interlaced SPS not supported");
  }
  auto d8 = r.bit();
  if (!d8) return d8.error();
  auto crop_flag = r.bit();
  if (!crop_flag) return crop_flag.error();
  std::uint32_t crop_l = 0, crop_r = 0, crop_t = 0, crop_b = 0;
  if (crop_flag.value()) {
    if (!rd(r.ue(), crop_l) || !rd(r.ue(), crop_r) || !rd(r.ue(), crop_t) ||
        !rd(r.ue(), crop_b)) {
      return make_error("truncated", "crop");
    }
  }
  // Compute in 64 bits and demand a positive result: crop values are
  // attacker-controlled and can otherwise underflow past the frame size.
  const std::int64_t width =
      std::int64_t{width_mbs_m1 + 1} * kMbSize -
      std::int64_t{kCropUnitY} * (std::int64_t{crop_l} + crop_r);
  const std::int64_t height =
      std::int64_t{height_mbs_m1 + 1} * kMbSize -
      std::int64_t{kCropUnitY} * (std::int64_t{crop_t} + crop_b);
  if (width <= 0 || height <= 0) {
    return make_error("malformed", "SPS crop larger than coded frame");
  }
  sps.width = static_cast<int>(width);
  sps.height = static_cast<int>(height);
  return sps;
}

Bytes write_pps_rbsp(const Pps& pps) {
  BitWriter w;
  w.ue(pps.pps_id);
  w.ue(pps.sps_id);
  w.bit(false);  // entropy_coding_mode_flag (CAVLC)
  w.bit(false);  // bottom_field_pic_order_in_frame_present_flag
  w.ue(0);       // num_slice_groups_minus1
  w.ue(0);       // num_ref_idx_l0_default_active_minus1
  w.ue(0);       // num_ref_idx_l1_default_active_minus1
  w.bit(false);  // weighted_pred_flag
  w.bits(0, 2);  // weighted_bipred_idc
  w.se(pps.pic_init_qp - 26);
  w.se(0);       // pic_init_qs_minus26
  w.se(0);       // chroma_qp_index_offset
  w.bit(false);  // deblocking_filter_control_present_flag
  w.bit(false);  // constrained_intra_pred_flag
  w.bit(false);  // redundant_pic_cnt_present_flag
  w.rbsp_trailing_bits();
  return w.take();
}

Result<Pps> parse_pps_rbsp(BytesView rbsp) {
  BitReader r(rbsp);
  Pps pps;
  auto pps_id = r.ue();
  if (!pps_id) return pps_id.error();
  pps.pps_id = pps_id.value();
  auto sps_id = r.ue();
  if (!sps_id) return sps_id.error();
  pps.sps_id = sps_id.value();
  auto entropy = r.bit();
  if (!entropy) return entropy.error();
  if (entropy.value()) {
    return make_error("unsupported", "CABAC PPS not supported");
  }
  auto bf = r.bit();
  if (!bf) return bf.error();
  auto groups = r.ue();
  if (!groups) return groups.error();
  if (groups.value() != 0) {
    return make_error("unsupported", "slice groups not supported");
  }
  auto l0 = r.ue();
  if (!l0) return l0.error();
  auto l1 = r.ue();
  if (!l1) return l1.error();
  auto wp = r.bit();
  if (!wp) return wp.error();
  auto wb = r.bits(2);
  if (!wb) return wb.error();
  auto qp = r.se();
  if (!qp) return qp.error();
  // pic_init_qp_minus26 is spec-bounded to [-26, 25] (7.4.2.2); the
  // unchecked se() range otherwise overflows `26 + qp` (signed overflow,
  // UB) and produces QPs no decoder model can hold.
  if (qp.value() < -26 || qp.value() > 25) {
    return make_error("malformed", "pic_init_qp_minus26 out of range");
  }
  pps.pic_init_qp = 26 + qp.value();
  return pps;
}

namespace {

std::uint32_t slice_type_code(FrameType t) {
  switch (t) {
    case FrameType::P:
      return 0;
    case FrameType::B:
      return 1;
    case FrameType::I:
      return 2;
  }
  return 2;
}

Result<FrameType> frame_type_from_code(std::uint32_t code) {
  switch (code % 5) {
    case 0:
      return FrameType::P;
    case 1:
      return FrameType::B;
    case 2:
      return FrameType::I;
    default:
      return make_error("unsupported", "SP/SI slice type");
  }
}

}  // namespace

namespace {

/// Slice-header RBSP bits shared by make_slice_nal (materialised NAL)
/// and append_annexb_slice (fused streaming form). Returns nal_ref_idc.
int write_slice_header_bits(BitWriter& w, const SliceHeader& hdr,
                            const Sps& sps, const Pps& pps) {
  w.ue(0);  // first_mb_in_slice
  w.ue(slice_type_code(hdr.type));
  w.ue(pps.pps_id);
  w.bits(hdr.frame_num & ((1u << sps.log2_max_frame_num) - 1),
         sps.log2_max_frame_num);
  if (hdr.idr) {
    w.ue(hdr.frame_num & 0xFFFF);  // idr_pic_id
  }
  if (hdr.type == FrameType::B) {
    w.bit(true);  // direct_spatial_mv_pred_flag
  }
  if (hdr.type != FrameType::I) {
    w.bit(false);  // num_ref_idx_active_override_flag
    w.bit(false);  // ref_pic_list_modification_flag_l0
    if (hdr.type == FrameType::B) {
      w.bit(false);  // ref_pic_list_modification_flag_l1
    }
  }
  const int nal_ref_idc = hdr.type == FrameType::B ? 0 : (hdr.idr ? 3 : 2);
  if (hdr.idr) {
    w.bit(false);  // no_output_of_prior_pics_flag
    w.bit(false);  // long_term_reference_flag
  } else if (nal_ref_idc != 0) {
    w.bit(false);  // adaptive_ref_pic_marking_mode_flag
  }
  w.se(hdr.qp - pps.pic_init_qp);  // slice_qp_delta
  w.rbsp_trailing_bits();
  return nal_ref_idc;
}

}  // namespace

NalUnit make_slice_nal(const SliceHeader& hdr, const Sps& sps, const Pps& pps,
                       std::size_t payload_bytes, std::uint64_t filler_seed) {
  BitWriter w;
  const int nal_ref_idc = write_slice_header_bits(w, hdr, sps, pps);

  NalUnit nal;
  nal.type = hdr.idr ? NalType::IdrSlice : NalType::NonIdrSlice;
  nal.nal_ref_idc = nal_ref_idc;
  nal.rbsp = w.take();

  // Pad with deterministic pseudo-random "slice data" to the requested
  // size (media/filler.h).
  if (nal.rbsp.size() < payload_bytes) {
    const std::size_t start = nal.rbsp.size();
    nal.rbsp.resize(payload_bytes);
    FillerCursor(filler_seed)
        .fill(nal.rbsp.data() + start, payload_bytes - start);
  }
  return nal;
}

void append_annexb_nal(Bytes& out, const NalUnit& nal) {
  const Bytes& escaped = nal.escaped();
  out.insert(out.end(), {0x00, 0x00, 0x00, 0x01});
  out.push_back(static_cast<std::uint8_t>((nal.nal_ref_idc & 0x3) << 5 |
                                          static_cast<int>(nal.type)));
  out.insert(out.end(), escaped.begin(), escaped.end());
}

void append_annexb_slice(Bytes& out, const SliceHeader& hdr, const Sps& sps,
                         const Pps& pps, std::size_t payload_bytes,
                         std::uint64_t filler_seed) {
  // The encoder's hot path. The materialised route writes the filler
  // three times (fill, escape, wrap) with an allocation for each; here the
  // header is escaped in place and the filler is copied, already escaped,
  // from the process-wide table.
  BitWriter w;
  const int nal_ref_idc = write_slice_header_bits(w, hdr, sps, pps);
  const BytesView head = w.view();
  const std::size_t filler =
      head.size() < payload_bytes ? payload_bytes - head.size() : 0;
  out.reserve(out.size() + 5 + payload_bytes + payload_bytes / 64 + 16);

  const NalType type = hdr.idr ? NalType::IdrSlice : NalType::NonIdrSlice;
  out.insert(out.end(), {0x00, 0x00, 0x00, 0x01});
  out.push_back(static_cast<std::uint8_t>((nal_ref_idc & 0x3) << 5 |
                                          static_cast<int>(type)));
  std::size_t zeros = 0;
  escape_append(out, head.data(), head.size(), zeros);
  // The header ends in the RBSP stop bit, so no zero run carries into the
  // filler: the clean escape state the table's streams start from.
  assert(zeros == 0);
  FillerTable::process().append(out, filler_seed, filler);
}

Result<SliceHeader> parse_slice_header(const NalUnit& nal, const Sps& sps,
                                       const Pps& pps) {
  if (nal.type != NalType::IdrSlice && nal.type != NalType::NonIdrSlice) {
    return make_error("malformed", "not a slice NAL");
  }
  BitReader r(nal.rbsp);
  SliceHeader hdr;
  hdr.idr = nal.type == NalType::IdrSlice;
  auto first_mb = r.ue();
  if (!first_mb) return first_mb.error();
  auto st = r.ue();
  if (!st) return st.error();
  auto ft = frame_type_from_code(st.value());
  if (!ft) return ft.error();
  hdr.type = ft.value();
  auto ppsid = r.ue();
  if (!ppsid) return ppsid.error();
  if (ppsid.value() != pps.pps_id) {
    return make_error("malformed", "slice references unknown PPS");
  }
  auto fn = r.bits(sps.log2_max_frame_num);
  if (!fn) return fn.error();
  hdr.frame_num = fn.value();
  if (hdr.idr) {
    auto idr_id = r.ue();
    if (!idr_id) return idr_id.error();
  }
  if (hdr.type == FrameType::B) {
    auto dsmp = r.bit();
    if (!dsmp) return dsmp.error();
  }
  if (hdr.type != FrameType::I) {
    auto ovr = r.bit();
    if (!ovr) return ovr.error();
    auto mod0 = r.bit();
    if (!mod0) return mod0.error();
    if (hdr.type == FrameType::B) {
      auto mod1 = r.bit();
      if (!mod1) return mod1.error();
    }
  }
  const int nal_ref_idc = nal.nal_ref_idc;
  if (hdr.idr) {
    auto a = r.bit();
    if (!a) return a.error();
    auto b = r.bit();
    if (!b) return b.error();
  } else if (nal_ref_idc != 0) {
    auto a = r.bit();
    if (!a) return a.error();
  }
  auto qpd = r.se();
  if (!qpd) return qpd.error();
  // slice_qp_delta must land the final QP in [0, 51] (7.4.3); summing the
  // raw 32-bit delta into an int first is signed-overflow UB.
  const std::int64_t qp = std::int64_t{pps.pic_init_qp} + qpd.value();
  if (qp < 0 || qp > 51) {
    return make_error("malformed", "slice QP outside [0, 51]");
  }
  hdr.qp = static_cast<int>(qp);
  return hdr;
}

Bytes write_avc_decoder_config(const Sps& sps, const Pps& pps) {
  NalUnit sps_nal{NalType::Sps, 3, write_sps_rbsp(sps)};
  NalUnit pps_nal{NalType::Pps, 3, write_pps_rbsp(pps)};
  const Bytes sps_bytes = serialize_nal(sps_nal);
  const Bytes pps_bytes = serialize_nal(pps_nal);
  ByteWriter w;
  w.u8(1);  // configurationVersion
  w.u8(static_cast<std::uint8_t>(sps.profile_idc));
  w.u8(0);  // profile_compatibility
  w.u8(static_cast<std::uint8_t>(sps.level_idc));
  w.u8(0xFF);  // lengthSizeMinusOne = 3 (4-byte lengths)
  w.u8(0xE1);  // 1 SPS
  w.u16be(static_cast<std::uint16_t>(sps_bytes.size()));
  w.raw(sps_bytes);
  w.u8(1);  // 1 PPS
  w.u16be(static_cast<std::uint16_t>(pps_bytes.size()));
  w.raw(pps_bytes);
  return w.take();
}

Result<AvcDecoderConfig> parse_avc_decoder_config(BytesView data) {
  ByteReader r(data);
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != 1) {
    return make_error("malformed", "bad AVCC configurationVersion");
  }
  if (auto s = r.skip(4); !s) return s.error();  // profile/compat/level/len
  auto nsps = r.u8();
  if (!nsps) return nsps.error();
  if ((nsps.value() & 0x1F) != 1) {
    return make_error("unsupported", "expected exactly 1 SPS");
  }
  auto sps_len = r.u16be();
  if (!sps_len) return sps_len.error();
  auto sps_raw = r.view(sps_len.value());
  if (!sps_raw) return sps_raw.error();
  auto sps_nal = parse_nal_bytes(sps_raw.value());
  if (!sps_nal) return sps_nal.error();
  auto sps = parse_sps_rbsp(sps_nal.value().rbsp);
  if (!sps) return sps.error();
  auto npps = r.u8();
  if (!npps) return npps.error();
  if (npps.value() != 1) {
    return make_error("unsupported", "expected exactly 1 PPS");
  }
  auto pps_len = r.u16be();
  if (!pps_len) return pps_len.error();
  auto pps_raw = r.view(pps_len.value());
  if (!pps_raw) return pps_raw.error();
  auto pps_nal = parse_nal_bytes(pps_raw.value());
  if (!pps_nal) return pps_nal.error();
  auto pps = parse_pps_rbsp(pps_nal.value().rbsp);
  if (!pps) return pps.error();
  return AvcDecoderConfig{sps.value(), pps.value()};
}

std::uint64_t ntp_from_seconds(double seconds) {
  const double secs = std::floor(seconds);
  const double frac = seconds - secs;
  return (static_cast<std::uint64_t>(secs) << 32) |
         static_cast<std::uint64_t>(frac * 4294967296.0);
}

double seconds_from_ntp(std::uint64_t ntp) {
  return static_cast<double>(ntp >> 32) +
         static_cast<double>(ntp & 0xFFFFFFFFull) / 4294967296.0;
}

NalUnit make_ntp_sei(std::uint64_t ntp_timestamp) {
  ByteWriter payload;
  for (std::uint8_t b : kNtpSeiUuid) payload.u8(b);
  payload.u64be(ntp_timestamp);

  ByteWriter w;
  w.u8(5);  // payloadType: user_data_unregistered
  w.u8(static_cast<std::uint8_t>(payload.size()));
  w.raw(payload.bytes());
  w.u8(0x80);  // rbsp_trailing_bits
  return NalUnit{NalType::Sei, 0, w.take()};
}

std::optional<std::uint64_t> parse_ntp_sei(const NalUnit& nal) {
  if (nal.type != NalType::Sei) return std::nullopt;
  ByteReader r(nal.rbsp);
  // Minimal SEI message parsing: type and size use 0xFF-extension coding.
  auto read_var = [&r]() -> Result<std::uint32_t> {
    std::uint32_t v = 0;
    for (;;) {
      auto b = r.u8();
      if (!b) return b.error();
      v += b.value();
      if (b.value() != 0xFF) return v;
    }
  };
  auto type = read_var();
  if (!type || type.value() != 5) return std::nullopt;
  auto size = read_var();
  if (!size || size.value() < kNtpSeiUuid.size() + 8) return std::nullopt;
  auto uuid = r.view(kNtpSeiUuid.size());
  if (!uuid) return std::nullopt;
  if (!std::equal(kNtpSeiUuid.begin(), kNtpSeiUuid.end(),
                  uuid.value().begin())) {
    return std::nullopt;
  }
  auto ntp = r.u64be();
  if (!ntp) return std::nullopt;
  return ntp.value();
}

}  // namespace psc::media
