// H.264/AVC bitstream syntax: NAL unit framing (Annex-B and AVCC),
// emulation-prevention escaping, SPS/PPS/slice-header writing and parsing,
// and the user-data SEI carrying the broadcaster's NTP timestamp.
//
// The paper's analysis pipeline reconstructed captured streams and decoded
// them with libav to read QP, resolution, frame types and the embedded NTP
// timestamps; this module provides exactly the syntax subset needed for
// that: baseline profile, frame_mbs_only, CAVLC, pic_order_cnt_type 2.
// Slice payloads are deterministic filler — quality analysis in the paper
// (and here) relies on QP, not pixels.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "media/types.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::media {

enum class NalType : std::uint8_t {
  NonIdrSlice = 1,
  IdrSlice = 5,
  Sei = 6,
  Sps = 7,
  Pps = 8,
  AccessUnitDelimiter = 9,
  Filler = 12,
};

struct NalUnit {
  NalType type = NalType::NonIdrSlice;
  int nal_ref_idc = 0;
  Bytes rbsp;  // unescaped payload (no header byte, no emulation bytes)
  /// Cached escaped payload (EBSP). Parsers harvest it from the source
  /// stream so a re-wrap (Annex-B <-> AVCC, the origin/RTMP fan-out path)
  /// is a bulk copy instead of a fresh escape pass; writers fill it on
  /// first serialisation. Empty = not cached (an empty rbsp escapes to an
  /// empty EBSP, so the states coincide harmlessly). Treat a NalUnit as
  /// immutable once built: mutating `rbsp` in place would stale the cache.
  mutable Bytes ebsp{};

  /// The escaped payload, computing and caching it on first use.
  const Bytes& escaped() const;
};

/// Sequence parameter set (the subset we write and read).
struct Sps {
  int profile_idc = 66;  // Baseline
  int level_idc = 30;
  std::uint32_t sps_id = 0;
  int log2_max_frame_num = 8;  // log2_max_frame_num_minus4 = 4
  int width = 320;
  int height = 568;
};

struct Pps {
  std::uint32_t pps_id = 0;
  std::uint32_t sps_id = 0;
  int pic_init_qp = 26;
};

struct SliceHeader {
  FrameType type = FrameType::I;
  bool idr = false;
  std::uint32_t frame_num = 0;
  int qp = 26;  // pic_init_qp + slice_qp_delta
};

// ---- RBSP <-> EBSP (emulation prevention) ----

/// Insert emulation_prevention_three_byte: 00 00 0x -> 00 00 03 0x for
/// x in {0,1,2,3}.
Bytes escape_ebsp(BytesView rbsp);
/// Remove emulation prevention bytes.
Bytes unescape_ebsp(BytesView ebsp);

// ---- NAL framing ----

/// Serialise one NAL (header byte + escaped payload), no start code.
Bytes serialize_nal(const NalUnit& nal);

/// Annex-B: 0x00000001-prefixed NAL units concatenated.
Bytes annexb_wrap(const std::vector<NalUnit>& nals);
/// Split an Annex-B buffer back into NAL units (payloads unescaped).
Result<std::vector<NalUnit>> split_annexb(BytesView data);

/// AVCC: 4-byte length-prefixed NAL units (FLV/MP4 framing).
Bytes avcc_wrap(const std::vector<NalUnit>& nals);
Result<std::vector<NalUnit>> split_avcc(BytesView data);

/// The NAL units of an Annex-B buffer as views into it (header byte plus
/// escaped payload, start codes stripped), written over `nals` — a
/// caller-kept vector, so a steady caller allocates nothing. Fails on the
/// first empty or forbidden_zero_bit NAL, or when no start code is found;
/// split_annexb and annexb_to_avcc report the same errors.
Status annexb_nal_views(BytesView data, std::vector<BytesView>& nals);
/// The NAL units of an AVCC buffer as views into it (header byte plus
/// escaped payload, length prefixes stripped), written over `nals`.
/// Fails on the first truncated length or NAL, empty NAL or
/// forbidden_zero_bit NAL; split_avcc reports the same errors.
Status avcc_nal_views(BytesView data, std::vector<BytesView>& nals);

/// Direct re-framers for the fan-out hot path: switch between Annex-B and
/// AVCC framing without materialising NalUnits or touching emulation
/// prevention — NAL payload bytes are copied verbatim. For the canonical
/// streams this codebase produces the result is byte-identical to
/// split + wrap; malformed inputs fail with the same error classes.
Result<Bytes> annexb_to_avcc(BytesView data);
Result<Bytes> avcc_to_annexb(BytesView data);

/// AVCDecoderConfigurationRecord carrying the SPS+PPS, as found in the FLV
/// "AVC sequence header" tag.
Bytes write_avc_decoder_config(const Sps& sps, const Pps& pps);
struct AvcDecoderConfig {
  Sps sps;
  Pps pps;
};
Result<AvcDecoderConfig> parse_avc_decoder_config(BytesView data);

// ---- Parameter sets ----

Bytes write_sps_rbsp(const Sps& sps);
Result<Sps> parse_sps_rbsp(BytesView rbsp);

Bytes write_pps_rbsp(const Pps& pps);
Result<Pps> parse_pps_rbsp(BytesView rbsp);

// ---- Slices ----

/// Write a slice NAL whose header encodes (type, frame_num, qp) and whose
/// filler payload pads the RBSP to ~`payload_bytes` total.
NalUnit make_slice_nal(const SliceHeader& hdr, const Sps& sps, const Pps& pps,
                       std::size_t payload_bytes, std::uint64_t filler_seed);

/// Append one Annex-B framed NAL (4-byte start code + header byte +
/// escaped payload) to `out` — the per-NAL step of annexb_wrap.
void append_annexb_nal(Bytes& out, const NalUnit& nal);

/// Append the Annex-B framing of make_slice_nal(...) to `out`,
/// byte-identically, without materialising the RBSP: the filler is
/// copied in escaped (EBSP) form from FillerTable::process(). This is the
/// encoder's hot path — the materialised route writes the filler three
/// times (fill, escape, wrap) with an allocation for each.
void append_annexb_slice(Bytes& out, const SliceHeader& hdr, const Sps& sps,
                         const Pps& pps, std::size_t payload_bytes,
                         std::uint64_t filler_seed);

/// Parse a slice header given the active parameter sets.
Result<SliceHeader> parse_slice_header(const NalUnit& nal, const Sps& sps,
                                       const Pps& pps);

// ---- NTP timestamp SEI ----

/// 64-bit NTP format: seconds since epoch in the high 32 bits, binary
/// fraction in the low 32.
std::uint64_t ntp_from_seconds(double seconds);
double seconds_from_ntp(std::uint64_t ntp);

/// user_data_unregistered SEI (payloadType 5) with a 16-byte UUID and the
/// 8-byte NTP timestamp — the paper found Periscope's broadcaster embeds
/// these regularly into the video data.
NalUnit make_ntp_sei(std::uint64_t ntp_timestamp);
/// Returns the timestamp if this NAL is our NTP SEI.
std::optional<std::uint64_t> parse_ntp_sei(const NalUnit& nal);

}  // namespace psc::media
