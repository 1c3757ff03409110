// Built-in fuzz targets: one per wire-format decoder in the tree.
//
// Each execute() wraps a parser behind the harness contract (never crash,
// never hang, malformed input -> clean util::Result error) and, when the
// input IS accepted, checks the format's differential property on it
// (re-encode / re-parse fixpoints). roundtrip() checks the same property
// on a freshly generated valid stream derived from a seed, which is where
// byte-identity can be demanded (generated streams are canonically
// encoded; accepted-but-non-canonical fuzz inputs are checked for
// semantic fixpoints instead).
#include "testing/fuzz_target.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "amf/amf0.h"
#include "fault/plan.h"
#include "flv/flv.h"
#include "hls/playlist.h"
#include "http/http.h"
#include "http/websocket.h"
#include "json/json.h"
#include "media/aac.h"
#include "media/encoder.h"
#include "media/h264.h"
#include "mpegts/mpegts.h"
#include "rtmp/chunk.h"
#include "rtmp/handshake.h"
#include "rtmp/message.h"
#include "testing/mutator.h"
#include "util/base64.h"
#include "util/bitio.h"
#include "util/strings.h"

namespace psc::testing {

namespace {

Error violation(const std::string& what) {
  return Error{"fuzz_contract", what};
}

/// Malformed input must fail with a non-empty machine code and message.
Status check_clean(const Error& e) {
  if (e.code.empty() || e.message.empty()) {
    return violation("parser error with empty code or message");
  }
  return {};
}

std::string input_as_text(BytesView data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

// ---------------------------------------------------------------- amf0 --

std::vector<Bytes> amf0_corpus() {
  using amf::Value;
  std::vector<Bytes> out;
  out.push_back(amf::encode_all({Value(3.25), Value(true), Value("play")}));
  amf::Object info;
  info["app"] = Value("live");
  info["tcUrl"] = Value("rtmp://origin.example/live");
  info["fpad"] = Value(false);
  amf::Object nested;
  nested["inner"] = Value(info);
  nested["n"] = Value(7);
  out.push_back(
      amf::encode_all({Value("connect"), Value(1.0), Value(nested)}));
  amf::Object arr;
  arr["duration"] = Value(0.0);
  arr["width"] = Value(320);
  out.push_back(amf::encode_all(
      {Value("onMetaData"), Value::ecma_array(arr), Value()}));
  return out;
}

Status amf0_execute(BytesView data) {
  auto decoded = amf::decode_all(data);
  if (!decoded) return check_clean(decoded.error());
  const Bytes e1 = amf::encode_all(decoded.value());
  auto second = amf::decode_all(e1);
  if (!second) {
    return violation("re-encoded AMF0 failed to decode: " +
                     second.error().to_string());
  }
  const Bytes e2 = amf::encode_all(second.value());
  if (e1 != e2) return violation("AMF0 encode/decode/encode not a fixpoint");
  return {};
}

Status amf0_roundtrip(std::uint64_t seed) {
  using amf::Value;
  SplitMix64Engine rng(seed);
  std::vector<Value> values;
  values.emplace_back(static_cast<double>(rng() % 100000) / 256.0);
  values.emplace_back(std::string("cmd-") + std::to_string(rng() % 1000));
  values.emplace_back((rng() & 1) != 0);
  amf::Object deep;
  amf::Object leaf;
  leaf["k"] = Value(static_cast<int>(rng() % 512));
  deep["leaf"] = Value(leaf);
  deep["name"] = Value("stream");
  values.emplace_back(Value::ecma_array(deep));
  values.emplace_back(Value());

  const Bytes encoded = amf::encode_all(values);
  auto decoded = amf::decode_all(encoded);
  if (!decoded) {
    return violation("generated AMF0 failed to decode: " +
                     decoded.error().to_string());
  }
  if (decoded.value().size() != values.size()) {
    return violation("AMF0 round-trip changed the value count");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!(decoded.value()[i] == values[i])) {
      return violation("AMF0 round-trip changed value " + std::to_string(i));
    }
  }
  if (amf::encode_all(decoded.value()) != encoded) {
    return violation("AMF0 encode -> decode -> encode not byte-identical");
  }
  return {};
}

// ----------------------------------------------------------------- flv --

std::vector<Bytes> flv_video_corpus() {
  std::vector<Bytes> out;
  const media::Sps sps;
  const media::Pps pps;
  out.push_back(flv::make_avc_sequence_header(sps, pps));
  const Bytes avcc = media::avcc_wrap(
      {media::make_slice_nal({media::FrameType::I, true, 0, 30}, sps, pps,
                             200, 7)});
  out.push_back(
      flv::make_video_tag(true, flv::AvcPacketType::Nalu, 0, avcc));
  out.push_back(
      flv::make_video_tag(false, flv::AvcPacketType::Nalu, -33, avcc));
  return out;
}

Status flv_video_execute(BytesView data) {
  auto tag = flv::parse_video_tag(data);
  if (!tag) return check_clean(tag.error());
  const flv::VideoTag& t = tag.value();
  const Bytes remade = flv::make_video_tag(t.keyframe, t.packet_type,
                                           t.composition_time_ms, t.data);
  auto again = flv::parse_video_tag(remade);
  if (!again) {
    return violation("re-made FLV video tag failed to parse: " +
                     again.error().to_string());
  }
  const flv::VideoTag& u = again.value();
  if (u.keyframe != t.keyframe || u.packet_type != t.packet_type ||
      u.composition_time_ms != t.composition_time_ms || u.data != t.data) {
    return violation("FLV video tag fields changed across re-make");
  }
  return {};
}

Status flv_video_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  const bool keyframe = (rng() & 1) != 0;
  const std::int32_t cts =
      static_cast<std::int32_t>(rng() % 2000) - 1000;  // incl. negative
  Bytes payload(1 + rng() % 300);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const Bytes tag =
      flv::make_video_tag(keyframe, flv::AvcPacketType::Nalu, cts, payload);
  auto parsed = flv::parse_video_tag(tag);
  if (!parsed) {
    return violation("generated FLV video tag failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().keyframe != keyframe ||
      parsed.value().composition_time_ms != cts ||
      parsed.value().data != payload) {
    return violation("FLV video tag round-trip changed fields");
  }
  const Bytes again =
      flv::make_video_tag(parsed.value().keyframe, parsed.value().packet_type,
                          parsed.value().composition_time_ms,
                          parsed.value().data);
  if (again != tag) {
    return violation("FLV video tag make -> parse -> make not byte-identical");
  }
  return {};
}

std::vector<Bytes> flv_audio_corpus() {
  std::vector<Bytes> out;
  const media::AudioConfig cfg;
  out.push_back(flv::make_audio_tag(flv::AacPacketType::Raw,
                                    media::write_adts_frame(cfg, 64, 1)));
  out.push_back(flv::make_audio_tag(flv::AacPacketType::SequenceHeader,
                                    Bytes{0x12, 0x10}));
  return out;
}

Status flv_audio_execute(BytesView data) {
  auto tag = flv::parse_audio_tag(data);
  if (!tag) return check_clean(tag.error());
  const Bytes remade =
      flv::make_audio_tag(tag.value().packet_type, tag.value().data);
  auto again = flv::parse_audio_tag(remade);
  if (!again) {
    return violation("re-made FLV audio tag failed to parse: " +
                     again.error().to_string());
  }
  if (again.value().packet_type != tag.value().packet_type ||
      again.value().data != tag.value().data) {
    return violation("FLV audio tag fields changed across re-make");
  }
  return {};
}

Status flv_audio_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  Bytes payload(8 + rng() % 200);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const Bytes tag = flv::make_audio_tag(flv::AacPacketType::Raw, payload);
  auto parsed = flv::parse_audio_tag(tag);
  if (!parsed) {
    return violation("generated FLV audio tag failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().data != payload) {
    return violation("FLV audio tag round-trip changed the payload");
  }
  if (flv::make_audio_tag(parsed.value().packet_type, parsed.value().data) !=
      tag) {
    return violation("FLV audio tag make -> parse -> make not byte-identical");
  }
  return {};
}

// ---------------------------------------------------------- rtmp chunk --

std::vector<rtmp::Message> chunk_messages(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  std::vector<rtmp::Message> msgs;
  std::uint32_t ts = 0;
  const std::size_t count = 6 + rng() % 10;
  for (std::size_t i = 0; i < count; ++i) {
    rtmp::Message m;
    const std::uint64_t pick = rng() % 5;
    m.type = pick == 0   ? rtmp::MessageType::CommandAmf0
             : pick == 1 ? rtmp::MessageType::Audio
             : pick == 2 ? rtmp::MessageType::Video
             : pick == 3 ? rtmp::MessageType::DataAmf0
                         : rtmp::MessageType::UserControl;
    ts += static_cast<std::uint32_t>(rng() % 50);
    if (i == count / 2) ts += 0x1000000;  // force the extended-timestamp path
    m.timestamp_ms = ts;
    m.stream_id = 1;
    m.payload.resize(rng() % 600);
    for (auto& b : m.payload) b = static_cast<std::uint8_t>(rng());
    msgs.push_back(std::move(m));
  }
  return msgs;
}

std::vector<Bytes> rtmp_chunk_corpus() {
  std::vector<Bytes> out;
  for (std::uint64_t seed : {11ull, 22ull}) {
    rtmp::ChunkWriter writer;
    ByteWriter w;
    for (const rtmp::Message& m : chunk_messages(seed)) {
      writer.write(w, rtmp::kCsidCommand, m);
    }
    out.push_back(w.take());
  }
  return out;
}

}  // namespace

Bytes rtmp_chunk_stream_flood(std::size_t streams, std::uint32_t chunk_size,
                              std::uint32_t message_length) {
  rtmp::ChunkWriter writer;
  ByteWriter w;
  rtmp::Message scs;
  scs.type = rtmp::MessageType::SetChunkSize;
  ByteWriter size;
  size.u32be(chunk_size);
  scs.payload = size.take();
  writer.write(w, rtmp::kCsidProtocol, scs);
  const Bytes chunk(std::min(chunk_size, message_length), 0x5A);
  for (std::size_t i = 0; i < streams; ++i) {
    const std::uint32_t csid = 3 + static_cast<std::uint32_t>(i);
    // Basic header, fmt 0, in its 1-, 2- or 3-byte form.
    if (csid <= 63) {
      w.u8(static_cast<std::uint8_t>(csid));
    } else if (csid <= 319) {
      w.u8(0);
      w.u8(static_cast<std::uint8_t>(csid - 64));
    } else {
      w.u8(1);
      w.u8(static_cast<std::uint8_t>((csid - 64) & 0xFF));
      w.u8(static_cast<std::uint8_t>((csid - 64) >> 8));
    }
    w.u24be(0);  // timestamp
    w.u24be(message_length);
    w.u8(static_cast<std::uint8_t>(rtmp::MessageType::Video));
    w.u32le(1);  // message stream id
    w.raw(chunk);
  }
  return w.take();
}

namespace {

Status rtmp_chunk_execute(BytesView data) {
  rtmp::ChunkReader reader;
  auto st = reader.push(data);
  if (!st) return check_clean(st.error());
  const auto msgs = reader.take_messages();
  if (reader.bytes_consumed() > data.size()) {
    return violation("ChunkReader consumed more bytes than it was given");
  }
  std::size_t total = 0;
  for (const auto& m : msgs) total += m.payload.size();
  if (total > data.size()) {
    return violation("ChunkReader produced more payload than input bytes");
  }
  return {};
}

Status rtmp_chunk_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed ^ 0xC0FFEE);
  std::vector<rtmp::Message> msgs = chunk_messages(seed);

  // Renegotiate the chunk size twice, mid-stream, via real SetChunkSize
  // messages (the reader must apply them exactly where the writer did).
  const std::uint32_t sizes[] = {64, 512};
  for (int k = 0; k < 2; ++k) {
    rtmp::Message scs;
    scs.type = rtmp::MessageType::SetChunkSize;
    scs.timestamp_ms = msgs.empty() ? 0 : msgs.back().timestamp_ms;
    scs.stream_id = 0;
    ByteWriter p;
    p.u32be(sizes[k]);
    scs.payload = p.take();
    msgs.insert(msgs.begin() + static_cast<std::ptrdiff_t>(
                                   (k + 1) * msgs.size() / 3),
                scs);
  }

  rtmp::ChunkWriter writer;
  ByteWriter stream;
  const std::uint32_t csids[] = {rtmp::kCsidCommand, rtmp::kCsidVideo, 70,
                                 400};
  for (const rtmp::Message& m : msgs) {
    const std::uint32_t csid =
        m.type == rtmp::MessageType::SetChunkSize
            ? rtmp::kCsidProtocol
            : csids[rng() % std::size(csids)];
    writer.write(stream, csid, m);
    if (m.type == rtmp::MessageType::SetChunkSize) {
      writer.set_chunk_size((std::uint32_t{m.payload[0]} << 24) |
                            (std::uint32_t{m.payload[1]} << 16) |
                            (std::uint32_t{m.payload[2]} << 8) |
                            m.payload[3]);
    }
  }
  const Bytes bytes = stream.take();

  // Feed in deterministic, seed-derived slices to exercise reassembly.
  rtmp::ChunkReader reader;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 191, bytes.size() - off);
    auto st = reader.push(BytesView(bytes).subspan(off, n));
    if (!st) {
      return violation("chunk stream rejected: " + st.error().to_string());
    }
    off += n;
  }
  const auto got = reader.take_messages();
  if (got.size() != msgs.size()) {
    return violation(strf("chunk round-trip message count %zu != %zu",
                          got.size(), msgs.size()));
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (got[i].type != msgs[i].type ||
        got[i].timestamp_ms != msgs[i].timestamp_ms ||
        got[i].stream_id != msgs[i].stream_id ||
        got[i].payload != msgs[i].payload) {
      return violation("chunk round-trip message " + std::to_string(i) +
                       " differs");
    }
  }
  if (reader.chunk_size() != writer.chunk_size()) {
    return violation("chunk-size renegotiation diverged between sides");
  }
  return {};
}

// ------------------------------------------------------ rtmp handshake --

std::vector<Bytes> rtmp_handshake_corpus() {
  std::vector<Bytes> out;
  out.push_back(rtmp::make_hello(0, 1));
  out.push_back(rtmp::make_hello(123456, 99));
  return out;
}

Status rtmp_handshake_execute(BytesView data) {
  auto hello = rtmp::parse_hello(data);
  if (!hello) return check_clean(hello.error());
  const rtmp::HandshakeHello& h = hello.value();
  if (h.blob.size() != rtmp::kHandshakeBlobSize) {
    return violation("accepted hello with a short blob");
  }
  const Bytes echo = rtmp::make_echo(h.blob);
  if (!rtmp::echo_matches(echo, h.blob)) {
    return violation("echo of a parsed blob does not match it");
  }
  return {};
}

Status rtmp_handshake_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  const auto time_ms = static_cast<std::uint32_t>(rng());
  const Bytes hello = rtmp::make_hello(time_ms, seed | 1);
  auto parsed = rtmp::parse_hello(hello);
  if (!parsed) {
    return violation("generated hello failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().version != rtmp::kRtmpVersion ||
      parsed.value().time_ms != time_ms) {
    return violation("handshake round-trip changed version or time");
  }
  if (!rtmp::echo_matches(rtmp::make_echo(parsed.value().blob),
                          parsed.value().blob)) {
    return violation("handshake echo does not match the parsed blob");
  }
  // A corrupted echo must NOT match.
  Bytes bad = parsed.value().blob;
  bad[rng() % bad.size()] ^= 0x01;
  if (rtmp::echo_matches(bad, parsed.value().blob)) {
    return violation("echo_matches accepted a corrupted blob");
  }
  return {};
}

// -------------------------------------------------------------- mpegts --

std::vector<media::MediaSample> broadcast_samples(std::uint64_t seed,
                                                  int count) {
  const media::VideoConfig vcfg;
  const media::AudioConfig acfg;
  const media::ContentModelConfig ccfg;
  media::BroadcastSource src(vcfg, acfg, ccfg, /*broadcast_epoch_s=*/1.0e9,
                             Rng(seed | 1));
  std::vector<media::MediaSample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(src.next_sample());
  return out;
}

/// Canonical mux: PSI at stream start and before every video keyframe.
/// The rule is reconstructible from demuxed samples, which is what makes
/// mux -> demux -> mux byte-identity checkable.
Bytes mux_stream(const std::vector<media::MediaSample>& samples) {
  mpegts::TsMuxer mux;
  ByteWriter out;
  bool first = true;
  for (const media::MediaSample& s : samples) {
    const bool key =
        s.kind == media::SampleKind::Video && s.keyframe;
    if (first || key) out.raw(mux.psi());
    first = false;
    out.raw(mux.mux_sample(s));
  }
  return out.take();
}

std::vector<Bytes> mpegts_corpus() {
  std::vector<Bytes> out;
  out.push_back(mux_stream(broadcast_samples(5, 24)));
  out.push_back(mux_stream(broadcast_samples(17, 8)));
  return out;
}

Status mpegts_execute(BytesView data) {
  mpegts::TsDemuxer demux;
  auto st = demux.push(data);
  if (!st) return check_clean(st.error());
  demux.flush();
  const auto samples = demux.take_samples();
  std::size_t total = 0;
  for (const auto& s : samples) total += s.data.size();
  if (total > data.size()) {
    return violation("demuxer produced more payload than input bytes");
  }
  return {};
}

/// Comparable fingerprint of one sample (PTS/DTS on the exact 90 kHz wire
/// grid, so float durations recovered from the TS compare reliably).
using SampleKey =
    std::tuple<std::uint64_t, std::uint64_t, media::SampleKind, bool, Bytes>;

SampleKey sample_key(media::SampleKind kind, Duration pts, Duration dts,
                     bool keyframe, const Bytes& data) {
  return {mpegts::to_pts90k(dts), mpegts::to_pts90k(pts), kind, keyframe,
          data};
}

Result<std::vector<media::MediaSample>> demux_all(const Bytes& ts) {
  mpegts::TsDemuxer demux;
  if (auto st = demux.push(ts); !st) return st.error();
  demux.flush();
  std::vector<media::MediaSample> out;
  for (mpegts::TsSample& r : demux.take_samples()) {
    media::MediaSample s;
    s.kind = r.kind;
    s.pts = r.pts;
    s.dts = r.dts;
    s.keyframe = r.keyframe;
    s.data = std::move(r.data);
    out.push_back(std::move(s));
  }
  return out;
}

Status mpegts_roundtrip(std::uint64_t seed) {
  const auto samples = broadcast_samples(seed, 40);
  const Bytes ts1 = mux_stream(samples);

  auto rec = demux_all(ts1);
  if (!rec) {
    return violation("generated TS rejected: " + rec.error().to_string());
  }
  if (rec.value().size() != samples.size()) {
    return violation(strf("TS round-trip sample count %zu != %zu",
                          rec.value().size(), samples.size()));
  }

  // Content preservation, order-independent: every (pts, dts, kind,
  // keyframe, payload) survives exactly. The demuxer may legitimately
  // reorder samples with EQUAL dts (video 0 and audio 0 both start at
  // dts 0, and a PES packet only completes when the next one on its PID
  // begins), so feed order is compared as a multiset.
  std::vector<SampleKey> want, got;
  for (const auto& s : samples) {
    want.push_back(sample_key(s.kind, s.pts, s.dts, s.keyframe, s.data));
  }
  for (const auto& s : rec.value()) {
    got.push_back(sample_key(s.kind, s.pts, s.dts, s.keyframe, s.data));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) {
    return violation("TS round-trip changed sample content");
  }

  // Byte-identity: the demuxer's dts-sorted output is the canonical
  // order; from it, mux -> demux -> mux must reproduce the stream
  // bit-for-bit.
  const Bytes ts2 = mux_stream(rec.value());
  auto rec2 = demux_all(ts2);
  if (!rec2) {
    return violation("remuxed TS rejected: " + rec2.error().to_string());
  }
  if (rec2.value().size() != rec.value().size()) {
    return violation("TS remux changed the sample count");
  }
  for (std::size_t i = 0; i < rec.value().size(); ++i) {
    const auto& a = rec.value()[i];
    const auto& b = rec2.value()[i];
    if (sample_key(a.kind, a.pts, a.dts, a.keyframe, a.data) !=
        sample_key(b.kind, b.pts, b.dts, b.keyframe, b.data)) {
      return violation("TS remux changed sample " + std::to_string(i));
    }
  }
  const Bytes ts3 = mux_stream(rec2.value());
  if (ts3 != ts2) {
    return violation("TS mux -> demux -> mux not byte-identical");
  }
  return {};
}

// ----------------------------------------------------------------- hls --

std::vector<Bytes> hls_media_corpus() {
  std::vector<Bytes> out;
  hls::MediaPlaylist pl;
  pl.media_sequence = 42;
  pl.target_duration = seconds(4);
  for (int i = 0; i < 5; ++i) {
    hls::SegmentRef seg;
    seg.uri = "seg-" + std::to_string(42 + i) + ".ts";
    seg.duration = seconds(3.6 + 0.1 * i);
    seg.sequence = 42 + static_cast<std::uint64_t>(i);
    seg.discontinuity = i == 3;
    pl.segments.push_back(seg);
  }
  out.push_back(to_bytes(hls::write_m3u8(pl)));
  pl.ended = true;
  out.push_back(to_bytes(hls::write_m3u8(pl)));
  return out;
}

Status hls_media_execute(BytesView data) {
  auto pl = hls::parse_m3u8(input_as_text(data));
  if (!pl) return check_clean(pl.error());
  const std::string s1 = hls::write_m3u8(pl.value());
  auto second = hls::parse_m3u8(s1);
  if (!second) {
    return violation("re-written playlist failed to parse: " +
                     second.error().to_string());
  }
  if (hls::write_m3u8(second.value()) != s1) {
    return violation("playlist write -> parse -> write not a fixpoint");
  }
  return {};
}

Status hls_media_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  hls::MediaPlaylist pl;
  pl.media_sequence = rng() % 100000;
  pl.target_duration = seconds(static_cast<double>(1 + rng() % 10));
  pl.ended = (rng() & 1) != 0;
  const std::size_t nsegs = 3 + rng() % 8;
  for (std::size_t i = 0; i < nsegs; ++i) {
    hls::SegmentRef seg;
    seg.uri = "chunk-" + std::to_string(pl.media_sequence + i) + ".ts";
    // Millisecond grid: %.3f prints these exactly, so write -> parse ->
    // write must be byte-stable.
    seg.duration = seconds(static_cast<double>(rng() % 10000) / 1000.0);
    seg.sequence = pl.media_sequence + i;
    seg.discontinuity = (rng() % 4) == 0;
    pl.segments.push_back(seg);
  }
  const std::string text = hls::write_m3u8(pl);
  auto parsed = hls::parse_m3u8(text);
  if (!parsed) {
    return violation("generated playlist failed to parse: " +
                     parsed.error().to_string());
  }
  const hls::MediaPlaylist& q = parsed.value();
  if (q.media_sequence != pl.media_sequence || q.ended != pl.ended ||
      q.segments.size() != pl.segments.size()) {
    return violation("playlist round-trip changed top-level fields");
  }
  for (std::size_t i = 0; i < nsegs; ++i) {
    if (q.segments[i].uri != pl.segments[i].uri ||
        q.segments[i].sequence != pl.segments[i].sequence ||
        q.segments[i].discontinuity != pl.segments[i].discontinuity ||
        to_s(q.segments[i].duration) != to_s(pl.segments[i].duration)) {
      return violation("playlist round-trip changed segment " +
                       std::to_string(i));
    }
  }
  if (hls::write_m3u8(q) != text) {
    return violation("playlist write -> parse -> write not byte-identical");
  }
  return {};
}

std::vector<Bytes> hls_master_corpus() {
  std::vector<hls::VariantRef> variants;
  hls::VariantRef lo;
  lo.uri = "lo/playlist.m3u8";
  lo.bandwidth_bps = 300000;
  lo.width = 320;
  lo.height = 568;
  hls::VariantRef hi;
  hi.uri = "hi/playlist.m3u8";
  hi.bandwidth_bps = 800000;
  variants.push_back(lo);
  variants.push_back(hi);
  return {to_bytes(hls::write_master_m3u8(variants))};
}

Status hls_master_execute(BytesView data) {
  auto variants = hls::parse_master_m3u8(input_as_text(data));
  if (!variants) return check_clean(variants.error());
  const std::string w1 = hls::write_master_m3u8(variants.value());
  auto second = hls::parse_master_m3u8(w1);
  if (!second) {
    return violation("re-written master playlist failed to parse: " +
                     second.error().to_string());
  }
  if (hls::write_master_m3u8(second.value()) != w1) {
    return violation("master playlist write -> parse -> write not a fixpoint");
  }
  return {};
}

Status hls_master_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  std::vector<hls::VariantRef> variants;
  const std::size_t n = 1 + rng() % 4;
  for (std::size_t i = 0; i < n; ++i) {
    hls::VariantRef v;
    v.uri = "v" + std::to_string(i) + "/playlist.m3u8";
    v.bandwidth_bps = static_cast<double>(100000 + rng() % 5000000);
    if ((rng() & 1) != 0) {
      v.width = static_cast<int>(160 + rng() % 1000);
      v.height = static_cast<int>(120 + rng() % 1000);
    }
    variants.push_back(v);
  }
  const std::string text = hls::write_master_m3u8(variants);
  auto parsed = hls::parse_master_m3u8(text);
  if (!parsed) {
    return violation("generated master playlist failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().size() != variants.size()) {
    return violation("master playlist round-trip changed the variant count");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (parsed.value()[i].uri != variants[i].uri ||
        parsed.value()[i].bandwidth_bps != variants[i].bandwidth_bps ||
        parsed.value()[i].width != variants[i].width ||
        parsed.value()[i].height != variants[i].height) {
      return violation("master playlist round-trip changed variant " +
                       std::to_string(i));
    }
  }
  if (hls::write_master_m3u8(parsed.value()) != text) {
    return violation("master write -> parse -> write not byte-identical");
  }
  return {};
}

// ---------------------------------------------------------------- h264 --

std::vector<media::NalUnit> h264_nals(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  const media::Sps sps;
  const media::Pps pps;
  std::vector<media::NalUnit> nals;
  nals.push_back({media::NalType::Sps, 3, media::write_sps_rbsp(sps)});
  nals.push_back({media::NalType::Pps, 3, media::write_pps_rbsp(pps)});
  nals.push_back(media::make_ntp_sei(rng()));
  media::SliceHeader idr;
  idr.type = media::FrameType::I;
  idr.idr = true;
  idr.frame_num = 0;
  idr.qp = static_cast<int>(rng() % 52);
  nals.push_back(media::make_slice_nal(idr, sps, pps, 120 + rng() % 200,
                                       rng()));
  for (int i = 0; i < 3; ++i) {
    media::SliceHeader h;
    h.type = (rng() & 1) != 0 ? media::FrameType::P : media::FrameType::B;
    h.idr = false;
    h.frame_num = static_cast<std::uint32_t>(rng() % 200);
    h.qp = static_cast<int>(rng() % 52);
    nals.push_back(media::make_slice_nal(h, sps, pps, 60 + rng() % 150,
                                         rng()));
  }
  return nals;
}

Status h264_annexb_execute(BytesView data) {
  auto nals = media::split_annexb(data);
  if (!nals) return check_clean(nals.error());
  const media::Sps sps;
  const media::Pps pps;
  for (const media::NalUnit& nal : nals.value()) {
    switch (nal.type) {
      case media::NalType::Sps: {
        auto r = media::parse_sps_rbsp(nal.rbsp);
        if (!r) {
          if (auto c = check_clean(r.error()); !c) return c;
        }
        break;
      }
      case media::NalType::Pps: {
        auto r = media::parse_pps_rbsp(nal.rbsp);
        if (!r) {
          if (auto c = check_clean(r.error()); !c) return c;
        }
        break;
      }
      case media::NalType::Sei:
        (void)media::parse_ntp_sei(nal);
        break;
      case media::NalType::IdrSlice:
      case media::NalType::NonIdrSlice: {
        auto r = media::parse_slice_header(nal, sps, pps);
        if (!r) {
          if (auto c = check_clean(r.error()); !c) return c;
        }
        break;
      }
      default:
        break;
    }
  }
  // Annex-B framing with 4-byte start codes survives wrap -> split exactly
  // (the split attributes one leading zero to the start code), so one
  // re-wrap must be a byte fixpoint.
  const Bytes b1 = media::annexb_wrap(nals.value());
  auto nals2 = media::split_annexb(b1);
  if (!nals2) {
    return violation("re-wrapped Annex-B failed to split: " +
                     nals2.error().to_string());
  }
  if (media::annexb_wrap(nals2.value()) != b1) {
    return violation("Annex-B wrap -> split -> wrap not a fixpoint");
  }
  return {};
}

Status h264_annexb_roundtrip(std::uint64_t seed) {
  const auto nals = h264_nals(seed);
  const Bytes stream = media::annexb_wrap(nals);
  auto split = media::split_annexb(stream);
  if (!split) {
    return violation("generated Annex-B failed to split: " +
                     split.error().to_string());
  }
  if (split.value().size() != nals.size()) {
    return violation("Annex-B round-trip changed the NAL count");
  }
  for (std::size_t i = 0; i < nals.size(); ++i) {
    if (split.value()[i].type != nals[i].type ||
        split.value()[i].nal_ref_idc != nals[i].nal_ref_idc ||
        split.value()[i].rbsp != nals[i].rbsp) {
      return violation("Annex-B round-trip changed NAL " + std::to_string(i));
    }
  }
  if (media::annexb_wrap(split.value()) != stream) {
    return violation("Annex-B wrap -> split -> wrap not byte-identical");
  }
  // The parameter sets and slice headers must read back what was written.
  const media::Sps sps;
  const media::Pps pps;
  auto sps2 = media::parse_sps_rbsp(split.value()[0].rbsp);
  if (!sps2 || sps2.value().width != sps.width ||
      sps2.value().height != sps.height ||
      sps2.value().log2_max_frame_num != sps.log2_max_frame_num) {
    return violation("SPS round-trip changed fields");
  }
  auto pps2 = media::parse_pps_rbsp(split.value()[1].rbsp);
  if (!pps2 || pps2.value().pic_init_qp != pps.pic_init_qp) {
    return violation("PPS round-trip changed fields");
  }
  if (!media::parse_ntp_sei(split.value()[2]).has_value()) {
    return violation("NTP SEI round-trip lost the timestamp");
  }
  for (std::size_t i = 3; i < split.value().size(); ++i) {
    auto hdr = media::parse_slice_header(split.value()[i], sps, pps);
    if (!hdr) {
      return violation("generated slice header failed to parse: " +
                       hdr.error().to_string());
    }
    if (hdr.value().qp < 0 || hdr.value().qp > 51) {
      return violation("slice header round-trip produced out-of-range QP");
    }
  }
  return {};
}

Status h264_avcc_execute(BytesView data) {
  auto nals = media::split_avcc(data);
  if (nals) {
    const Bytes b1 = media::avcc_wrap(nals.value());
    auto nals2 = media::split_avcc(b1);
    if (!nals2) {
      return violation("re-wrapped AVCC failed to split: " +
                       nals2.error().to_string());
    }
    if (media::avcc_wrap(nals2.value()) != b1) {
      return violation("AVCC wrap -> split -> wrap not a fixpoint");
    }
  } else if (auto c = check_clean(nals.error()); !c) {
    return c;
  }
  // Same bytes through the decoder-config parser.
  auto cfg = media::parse_avc_decoder_config(data);
  if (!cfg) return check_clean(cfg.error());
  const Bytes rewritten =
      media::write_avc_decoder_config(cfg.value().sps, cfg.value().pps);
  auto cfg2 = media::parse_avc_decoder_config(rewritten);
  if (!cfg2) {
    return violation("re-written AVC decoder config failed to parse: " +
                     cfg2.error().to_string());
  }
  if (cfg2.value().sps.width != cfg.value().sps.width ||
      cfg2.value().sps.height != cfg.value().sps.height ||
      cfg2.value().pps.pic_init_qp != cfg.value().pps.pic_init_qp) {
    return violation("AVC decoder config fields changed across re-write");
  }
  return {};
}

Status h264_avcc_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  media::Sps sps;
  sps.width = static_cast<int>(2 * (80 + rng() % 960));   // even dims round-
  sps.height = static_cast<int>(2 * (60 + rng() % 540));  // trip exactly
  sps.log2_max_frame_num = 4 + static_cast<int>(rng() % 9);
  media::Pps pps;
  pps.pic_init_qp = static_cast<int>(rng() % 52);
  const Bytes cfg = media::write_avc_decoder_config(sps, pps);
  auto parsed = media::parse_avc_decoder_config(cfg);
  if (!parsed) {
    return violation("generated AVC decoder config failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().sps.width != sps.width ||
      parsed.value().sps.height != sps.height ||
      parsed.value().sps.log2_max_frame_num != sps.log2_max_frame_num ||
      parsed.value().pps.pic_init_qp != pps.pic_init_qp) {
    return violation("AVC decoder config round-trip changed fields");
  }
  if (media::write_avc_decoder_config(parsed.value().sps,
                                      parsed.value().pps) != cfg) {
    return violation("AVC config write -> parse -> write not byte-identical");
  }
  const auto nals = h264_nals(seed ^ 0xA5A5);
  const Bytes avcc = media::avcc_wrap(nals);
  auto split = media::split_avcc(avcc);
  if (!split || split.value().size() != nals.size()) {
    return violation("AVCC split lost NAL units");
  }
  if (media::avcc_wrap(split.value()) != avcc) {
    return violation("AVCC wrap -> split -> wrap not byte-identical");
  }
  return {};
}

std::vector<Bytes> h264_annexb_corpus() {
  return {media::annexb_wrap(h264_nals(3)), media::annexb_wrap(h264_nals(9))};
}

std::vector<Bytes> h264_avcc_corpus() {
  std::vector<Bytes> out;
  out.push_back(media::write_avc_decoder_config(media::Sps{}, media::Pps{}));
  out.push_back(media::avcc_wrap(h264_nals(5)));
  return out;
}

std::vector<Bytes> h264_paramset_corpus() {
  std::vector<Bytes> out;
  out.push_back(media::write_sps_rbsp(media::Sps{}));
  out.push_back(media::write_pps_rbsp(media::Pps{}));
  media::Sps wide;
  wide.width = 1280;
  wide.height = 720;
  out.push_back(media::write_sps_rbsp(wide));
  return out;
}

/// Parse -> write -> parse must converge: one write canonicalises (odd
/// crop widths snap to the writer's 2-px crop units), after which
/// write/parse is a byte fixpoint.
Status h264_paramsets_execute(BytesView data) {
  auto sps = media::parse_sps_rbsp(data);
  if (sps) {
    const Bytes b1 = media::write_sps_rbsp(sps.value());
    auto s2 = media::parse_sps_rbsp(b1);
    if (!s2) {
      return violation("re-written SPS failed to parse: " +
                       s2.error().to_string());
    }
    const Bytes b2 = media::write_sps_rbsp(s2.value());
    auto s3 = media::parse_sps_rbsp(b2);
    if (!s3) {
      return violation("canonicalised SPS failed to parse: " +
                       s3.error().to_string());
    }
    if (media::write_sps_rbsp(s3.value()) != b2) {
      return violation("SPS write/parse did not converge to a fixpoint");
    }
  } else if (auto c = check_clean(sps.error()); !c) {
    return c;
  }
  auto pps = media::parse_pps_rbsp(data);
  if (pps) {
    const Bytes b1 = media::write_pps_rbsp(pps.value());
    auto p2 = media::parse_pps_rbsp(b1);
    if (!p2) {
      return violation("re-written PPS failed to parse: " +
                       p2.error().to_string());
    }
    if (media::write_pps_rbsp(p2.value()) != b1) {
      return violation("PPS write -> parse -> write not a fixpoint");
    }
  } else if (auto c = check_clean(pps.error()); !c) {
    return c;
  }
  return {};
}

Status h264_paramsets_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  media::Sps sps;
  sps.width = static_cast<int>(2 * (8 + rng() % 1024));
  sps.height = static_cast<int>(2 * (8 + rng() % 1024));
  sps.log2_max_frame_num = 4 + static_cast<int>(rng() % 9);
  sps.sps_id = static_cast<std::uint32_t>(rng() % 32);
  const Bytes b = media::write_sps_rbsp(sps);
  auto parsed = media::parse_sps_rbsp(b);
  if (!parsed) {
    return violation("generated SPS failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().width != sps.width ||
      parsed.value().height != sps.height ||
      parsed.value().sps_id != sps.sps_id ||
      parsed.value().log2_max_frame_num != sps.log2_max_frame_num) {
    return violation("SPS round-trip changed fields");
  }
  if (media::write_sps_rbsp(parsed.value()) != b) {
    return violation("SPS write -> parse -> write not byte-identical");
  }
  media::Pps pps;
  pps.pps_id = static_cast<std::uint32_t>(rng() % 32);
  pps.sps_id = sps.sps_id;
  pps.pic_init_qp = static_cast<int>(rng() % 52);
  const Bytes pb = media::write_pps_rbsp(pps);
  auto pparsed = media::parse_pps_rbsp(pb);
  if (!pparsed || pparsed.value().pic_init_qp != pps.pic_init_qp ||
      pparsed.value().pps_id != pps.pps_id) {
    return violation("PPS round-trip changed fields");
  }
  if (media::write_pps_rbsp(pparsed.value()) != pb) {
    return violation("PPS write -> parse -> write not byte-identical");
  }
  return {};
}

// ----------------------------------------------------------------- aac --

std::vector<Bytes> aac_adts_corpus() {
  std::vector<Bytes> out;
  media::AudioConfig cfg;
  out.push_back(media::write_adts_frame(cfg, 90, 1));
  cfg.sample_rate = 48000;
  cfg.channels = 2;
  out.push_back(media::write_adts_frame(cfg, 250, 2));
  return out;
}

Status aac_adts_execute(BytesView data) {
  auto info = media::parse_adts_header(data);
  if (!info) return check_clean(info.error());
  if (info.value().frame_length < 7) {
    return violation("accepted ADTS frame_length smaller than its header");
  }
  if (auto idx = media::adts_sampling_index(info.value().sample_rate); !idx) {
    return violation("accepted ADTS header with an unknown sample rate");
  }
  // Re-write a frame with the recovered parameters; the header must read
  // back identically.
  media::AudioConfig cfg;
  cfg.sample_rate = info.value().sample_rate;
  cfg.channels = info.value().channels;
  const Bytes frame =
      media::write_adts_frame(cfg, info.value().frame_length - 7, 1);
  auto again = media::parse_adts_header(frame);
  if (!again || again.value().sample_rate != info.value().sample_rate ||
      again.value().channels != info.value().channels ||
      again.value().frame_length != info.value().frame_length) {
    return violation("ADTS header fields changed across re-write");
  }
  return {};
}

Status aac_adts_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  constexpr int kRates[] = {96000, 48000, 44100, 22050, 8000};
  media::AudioConfig cfg;
  cfg.sample_rate = kRates[rng() % std::size(kRates)];
  cfg.channels = 1 + static_cast<int>(rng() % 2);
  const std::size_t payload = 8 + rng() % 600;
  const Bytes frame = media::write_adts_frame(cfg, payload, seed);
  auto info = media::parse_adts_header(frame);
  if (!info) {
    return violation("generated ADTS frame failed to parse: " +
                     info.error().to_string());
  }
  if (info.value().sample_rate != cfg.sample_rate ||
      info.value().channels != cfg.channels ||
      info.value().frame_length != payload + 7) {
    return violation("ADTS round-trip changed header fields");
  }
  return {};
}

// ---------------------------------------------------------------- http --

std::vector<Bytes> http_request_corpus() {
  http::Request req;
  req.method = "POST";
  req.path = "/api/v2/accessVideoPublic";
  req.headers["Host"] = "api.periscope.example";
  req.headers["Content-Type"] = "application/json";
  req.body = "{\"broadcast_id\":\"abc\"}";
  http::Request get;
  get.path = "/hls/chunk-17.ts";
  get.headers["Host"] = "edge.example";
  return {to_bytes(req.serialize()), to_bytes(get.serialize())};
}

Status http_request_execute(BytesView data) {
  auto req = http::Request::parse(input_as_text(data));
  if (!req) return check_clean(req.error());
  const std::string s1 = req.value().serialize();
  auto p2 = http::Request::parse(s1);
  if (!p2) {
    return violation("serialized request failed to parse: " +
                     p2.error().to_string());
  }
  // serialize() appends its own Content-Length, so the first
  // serialize/parse round normalises; from then on it must be a fixpoint.
  const std::string s2 = p2.value().serialize();
  auto p3 = http::Request::parse(s2);
  if (!p3) {
    return violation("normalised request failed to parse: " +
                     p3.error().to_string());
  }
  if (p3.value().serialize() != s2) {
    return violation("request serialize/parse did not reach a fixpoint");
  }
  return {};
}

Status http_request_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  http::Request req;
  req.method = (rng() & 1) != 0 ? "GET" : "POST";
  req.path = "/api/v2/op" + std::to_string(rng() % 1000);
  req.headers["Host"] = "h" + std::to_string(rng() % 100) + ".example";
  req.headers["X-Token"] = std::to_string(rng());
  req.body = std::string(rng() % 200, 'x');
  const std::string s = req.serialize();
  auto parsed = http::Request::parse(s);
  if (!parsed) {
    return violation("generated request failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().method != req.method ||
      parsed.value().path != req.path || parsed.value().body != req.body ||
      parsed.value().headers.at("Host") != req.headers.at("Host")) {
    return violation("request round-trip changed fields");
  }
  const std::string s2 = parsed.value().serialize();
  auto p3 = http::Request::parse(s2);
  if (!p3 || p3.value().serialize() != s2) {
    return violation("request serialize/parse not a fixpoint after "
                     "normalisation");
  }
  return {};
}

std::vector<Bytes> http_response_corpus() {
  std::vector<Bytes> out;
  out.push_back(http::Response::json("{\"ok\":true}").serialize());
  out.push_back(http::Response::too_many_requests().serialize());
  out.push_back(http::Response::ok(Bytes(188, 0x47), "video/mp2t")
                    .serialize());
  return out;
}

Status http_response_execute(BytesView data) {
  auto resp = http::Response::parse(data);
  if (!resp) return check_clean(resp.error());
  const Bytes s1 = resp.value().serialize();
  auto p2 = http::Response::parse(s1);
  if (!p2) {
    return violation("serialized response failed to parse: " +
                     p2.error().to_string());
  }
  const Bytes s2 = p2.value().serialize();
  auto p3 = http::Response::parse(s2);
  if (!p3) {
    return violation("normalised response failed to parse: " +
                     p3.error().to_string());
  }
  if (p3.value().serialize() != s2) {
    return violation("response serialize/parse did not reach a fixpoint");
  }
  return {};
}

Status http_response_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  http::Response resp;
  constexpr int kStatuses[] = {200, 404, 429, 500};
  resp.status = kStatuses[rng() % std::size(kStatuses)];
  resp.reason = http::reason_for(resp.status);
  resp.headers["Content-Type"] = "application/octet-stream";
  Bytes body(rng() % 400);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng());
  resp.body = std::move(body);
  const Bytes s = resp.serialize();
  auto parsed = http::Response::parse(s);
  if (!parsed) {
    return violation("generated response failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().status != resp.status ||
      parsed.value().body != resp.body) {
    return violation("response round-trip changed status or body");
  }
  const Bytes s2 = parsed.value().serialize();
  auto p3 = http::Response::parse(s2);
  if (!p3 || p3.value().serialize() != s2) {
    return violation("response serialize/parse not a fixpoint after "
                     "normalisation");
  }
  return {};
}

// ----------------------------------------------------------- websocket --

std::vector<Bytes> websocket_corpus() {
  std::vector<Bytes> out;
  ByteWriter stream;
  stream.raw(ws::server_text_frame("hello"));
  stream.raw(ws::client_text_frame("chat message", 0xDEADBEEF));
  ws::Frame frag;
  frag.fin = false;
  frag.opcode = ws::Opcode::Text;
  frag.payload = to_bytes("first|");
  stream.raw(ws::encode_frame(frag));
  ws::Frame ping;
  ping.opcode = ws::Opcode::Ping;
  stream.raw(ws::encode_frame(ping));
  ws::Frame fin;
  fin.fin = true;
  fin.opcode = ws::Opcode::Continuation;
  fin.payload = to_bytes("second");
  stream.raw(ws::encode_frame(fin));
  out.push_back(stream.take());
  ws::Frame big;
  big.opcode = ws::Opcode::Binary;
  big.payload.resize(70000, 0xAB);
  out.push_back(ws::encode_frame(big));
  return out;
}

Status websocket_execute(BytesView data) {
  ws::FrameDecoder decoder;
  auto st = decoder.push(data);
  if (!st) return check_clean(st.error());
  const auto frames = decoder.take_frames();
  std::size_t total = 0;
  for (const auto& f : frames) total += f.payload.size();
  if (total > data.size()) {
    return violation("decoder produced more payload than input bytes");
  }
  // Re-encode canonically (unmasked) and decode again: frame boundaries,
  // opcodes and payloads must survive.
  ByteWriter reenc;
  for (const auto& f : frames) reenc.raw(ws::encode_frame(f));
  ws::FrameDecoder second;
  if (auto s2 = second.push(reenc.bytes()); !s2) {
    return violation("re-encoded frames failed to decode: " +
                     s2.error().to_string());
  }
  const auto frames2 = second.take_frames();
  if (frames2.size() != frames.size()) {
    return violation("re-encode changed the frame count");
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames2[i].fin != frames[i].fin ||
        frames2[i].opcode != frames[i].opcode ||
        frames2[i].payload != frames[i].payload) {
      return violation("re-encode changed frame " + std::to_string(i));
    }
  }
  // Message reassembly must never crash; protocol errors are fine.
  ws::MessageAssembler assembler;
  for (const auto& f : frames) {
    if (auto s = assembler.push_frame(f); !s) {
      return check_clean(s.error());
    }
  }
  (void)assembler.take_messages();
  return {};
}

Status websocket_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  // Payload sizes straddling every length-encoding boundary.
  const std::size_t sizes[] = {0, 1, 125, 126, 127, 1000, 65535, 65536,
                               70000};
  std::vector<ws::Frame> frames;
  ByteWriter stream;
  for (std::size_t n : sizes) {
    ws::Frame f;
    f.opcode = (rng() & 1) != 0 ? ws::Opcode::Text : ws::Opcode::Binary;
    f.payload.resize(n);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
    const bool mask = (rng() & 1) != 0;
    f.masked = mask;
    stream.raw(ws::encode_frame(
        f, mask ? std::optional<std::uint32_t>(
                      static_cast<std::uint32_t>(rng()))
                : std::nullopt));
    frames.push_back(std::move(f));
  }
  // A masked fragmented message with an interleaved ping.
  const Bytes part1 = to_bytes(std::string("frag-a-") + std::to_string(rng()));
  const Bytes part2 = to_bytes(std::string("frag-b-") + std::to_string(rng()));
  {
    ws::Frame f;
    f.fin = false;
    f.opcode = ws::Opcode::Text;
    f.payload = part1;
    f.masked = true;
    stream.raw(
        ws::encode_frame(f, static_cast<std::uint32_t>(rng())));
    frames.push_back(std::move(f));
    ws::Frame ping;
    ping.opcode = ws::Opcode::Ping;
    ping.payload = to_bytes("ka");
    stream.raw(ws::encode_frame(ping));
    frames.push_back(std::move(ping));
    ws::Frame fin;
    fin.fin = true;
    fin.opcode = ws::Opcode::Continuation;
    fin.payload = part2;
    fin.masked = true;
    stream.raw(
        ws::encode_frame(fin, static_cast<std::uint32_t>(rng())));
    frames.push_back(std::move(fin));
  }
  const Bytes bytes = stream.take();

  // Feed in seed-derived slices (incremental decode must not care).
  ws::FrameDecoder decoder;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 977, bytes.size() - off);
    if (auto st = decoder.push(BytesView(bytes).subspan(off, n)); !st) {
      return violation("generated frames rejected: " + st.error().to_string());
    }
    off += n;
  }
  const auto got = decoder.take_frames();
  if (got.size() != frames.size()) {
    return violation(strf("ws round-trip frame count %zu != %zu", got.size(),
                          frames.size()));
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (got[i].fin != frames[i].fin || got[i].opcode != frames[i].opcode ||
        got[i].masked != frames[i].masked ||
        got[i].payload != frames[i].payload) {
      return violation("ws round-trip changed frame " + std::to_string(i));
    }
  }
  // Reassembly: the fragmented message must come back as one text message
  // whose payload is the fragment concatenation, with the ping delivered
  // separately.
  ws::MessageAssembler assembler;
  for (const auto& f : got) {
    if (auto st = assembler.push_frame(f); !st) {
      return violation("assembler rejected a valid sequence: " +
                       st.error().to_string());
    }
  }
  const auto messages = assembler.take_messages();
  Bytes expected = part1;
  expected.insert(expected.end(), part2.begin(), part2.end());
  bool found = false;
  for (const auto& m : messages) {
    if (m.opcode == ws::Opcode::Text && m.payload == expected) found = true;
  }
  if (!found) {
    return violation("fragmented message did not reassemble to its parts");
  }
  if (assembler.mid_message()) {
    return violation("assembler left a message open after a fin frame");
  }
  return {};
}

// ---------------------------------------------------------------- json --

std::vector<Bytes> json_corpus() {
  std::vector<Bytes> out;
  out.push_back(to_bytes(std::string(
      R"({"broadcast_id":"abc","state":"RUNNING","n_watching":17})")));
  out.push_back(to_bytes(std::string(
      R"([1,2.5,-3,true,null,{"nested":["x","y"]},"end"])")));
  return out;
}

Status json_execute(BytesView data) {
  auto v = json::parse(input_as_text(data));
  if (!v) return check_clean(v.error());
  const std::string d1 = v.value().dump();
  auto v2 = json::parse(d1);
  if (!v2) {
    return violation("dumped JSON failed to parse: " + v2.error().to_string());
  }
  if (v2.value().dump() != d1) {
    return violation("JSON dump -> parse -> dump not a fixpoint");
  }
  return {};
}

Status json_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  json::Object obj;
  obj["id"] = json::Value(static_cast<std::int64_t>(rng() % 1000000));
  obj["ratio"] = json::Value(static_cast<double>(rng() % 4096) / 8.0);
  obj["live"] = json::Value((rng() & 1) != 0);
  obj["nothing"] = json::Value(nullptr);
  obj["title"] = json::Value("stream \"quoted\"\n\ttab");
  json::Array arr;
  for (int i = 0; i < 4; ++i) {
    arr.emplace_back(static_cast<int>(rng() % 100));
  }
  obj["views"] = json::Value(arr);
  const json::Value doc{obj};
  const std::string text = doc.dump();
  auto parsed = json::parse(text);
  if (!parsed) {
    return violation("generated JSON failed to parse: " +
                     parsed.error().to_string());
  }
  if (!(parsed.value() == doc)) {
    return violation("JSON round-trip changed the document");
  }
  if (parsed.value().dump() != text) {
    return violation("JSON dump -> parse -> dump not byte-identical");
  }
  return {};
}

// -------------------------------------------------------------- base64 --

std::vector<Bytes> base64_corpus() {
  std::vector<Bytes> out;
  out.push_back(to_bytes(base64_encode(to_bytes("dGhlIHNhbXBsZQ"))));
  out.push_back(to_bytes(std::string("aGVsbG8=")));
  out.push_back(to_bytes(std::string("AA==")));
  return out;
}

Status base64_execute(BytesView data) {
  auto decoded = base64_decode(input_as_text(data));
  if (!decoded) return check_clean(decoded.error());
  const std::string enc = base64_encode(decoded.value());
  auto again = base64_decode(enc);
  if (!again) {
    return violation("re-encoded base64 failed to decode: " +
                     again.error().to_string());
  }
  if (again.value() != decoded.value()) {
    return violation("base64 decode -> encode -> decode changed the bytes");
  }
  return {};
}

Status base64_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  Bytes blob(rng() % 300);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
  const std::string enc = base64_encode(blob);
  auto dec = base64_decode(enc);
  if (!dec) {
    return violation("generated base64 failed to decode: " +
                     dec.error().to_string());
  }
  if (dec.value() != blob) {
    return violation("base64 encode -> decode changed the bytes");
  }
  return {};
}

// --------------------------------------------------------------- bitio --

std::vector<Bytes> bitio_corpus() {
  BitWriter w;
  w.ue(0);
  w.ue(1);
  w.ue(255);
  w.se(-17);
  w.se(40);
  w.bits(0x5A5, 12);
  w.rbsp_trailing_bits();
  return {w.take()};
}

Status bitio_execute(BytesView data) {
  BitReader r(data);
  // Read an arbitrary mix of ue/se/fixed fields until the buffer runs
  // out; every failure must be a clean bounds error, never a crash or an
  // unbounded loop.
  for (int i = 0; i < 100000; ++i) {
    switch (i % 3) {
      case 0: {
        auto v = r.ue();
        if (!v) return check_clean(v.error());
        break;
      }
      case 1: {
        auto v = r.se();
        if (!v) return check_clean(v.error());
        break;
      }
      default: {
        auto v = r.bits(static_cast<int>(i % 24) + 1);
        if (!v) return check_clean(v.error());
        break;
      }
    }
    if (r.bits_remaining() == 0) return {};
  }
  return {};
}

Status bitio_roundtrip(std::uint64_t seed) {
  SplitMix64Engine rng(seed);
  std::vector<std::uint32_t> ue_vals;
  std::vector<std::int32_t> se_vals;
  for (int i = 0; i < 32; ++i) {
    ue_vals.push_back(static_cast<std::uint32_t>(rng() % 70000));
    se_vals.push_back(static_cast<std::int32_t>(rng() % 70000) - 35000);
  }
  ue_vals.push_back(0);
  se_vals.push_back(0);
  BitWriter w;
  for (std::uint32_t v : ue_vals) w.ue(v);
  for (std::int32_t v : se_vals) w.se(v);
  w.rbsp_trailing_bits();
  const Bytes bytes = w.take();
  BitReader r(bytes);
  for (std::size_t i = 0; i < ue_vals.size(); ++i) {
    auto v = r.ue();
    if (!v || v.value() != ue_vals[i]) {
      return violation("ue round-trip changed value " + std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < se_vals.size(); ++i) {
    auto v = r.se();
    if (!v || v.value() != se_vals[i]) {
      return violation("se round-trip changed value " + std::to_string(i));
    }
  }
  return {};
}

// ---------------------------------------------------------- fault plan --

std::vector<Bytes> fault_plan_corpus() {
  std::vector<Bytes> out;
  out.push_back(to_bytes(fault::Plan::generate(3).to_text()));
  fault::GenConfig radio;
  radio.kinds = fault::kRadioKinds;
  out.push_back(to_bytes(fault::Plan::generate(8, radio).to_text()));
  out.push_back(to_bytes(std::string(
      "# psc-fault-plan v1\n"
      "# hand-written\n"
      "episode edge_outage start=10 dur=30 target=-1\n"
      "episode rate_collapse start=5.5 dur=12 severity=0.08\n")));
  return out;
}

Status fault_plan_execute(BytesView data) {
  auto plan = fault::Plan::parse(input_as_text(data));
  if (!plan) return check_clean(plan.error());
  // Accepted input: one re-write canonicalises (episode ordering, overlap
  // drops, %.9g number formatting), after which write -> parse -> write
  // must be a byte fixpoint.
  const std::string t1 = plan.value().to_text();
  auto second = fault::Plan::parse(t1);
  if (!second) {
    return violation("re-written fault plan failed to parse: " +
                     second.error().to_string());
  }
  if (second.value().to_text() != t1) {
    return violation("fault plan write -> parse -> write not a fixpoint");
  }
  return {};
}

Status fault_plan_roundtrip(std::uint64_t seed) {
  fault::GenConfig cfg;
  cfg.intensity = 1.0 + static_cast<double>(seed % 5);
  const fault::Plan plan = fault::Plan::generate(seed, cfg);
  const std::string text = plan.to_text();
  auto parsed = fault::Plan::parse(text);
  if (!parsed) {
    return violation("generated fault plan failed to parse: " +
                     parsed.error().to_string());
  }
  if (parsed.value().size() != plan.size()) {
    return violation("fault plan round-trip changed the episode count");
  }
  if (parsed.value().to_text() != text) {
    return violation(
        "fault plan generate -> write -> parse -> write not byte-identical");
  }
  return {};
}

}  // namespace

void register_builtin_targets() {
  TargetRegistry& reg = TargetRegistry::instance();
  reg.add({"amf0", "AMF0 command encoding (RTMP connect/play payloads)",
           amf0_corpus, amf0_execute, amf0_roundtrip});
  reg.add({"flv_video", "FLV video tag bodies (AVCC + sequence headers)",
           flv_video_corpus, flv_video_execute, flv_video_roundtrip});
  reg.add({"flv_audio", "FLV audio tag bodies (AAC)", flv_audio_corpus,
           flv_audio_execute, flv_audio_roundtrip});
  reg.add({"rtmp_chunk",
           "RTMP chunk stream reader (fmt 0-3, ext timestamps, SetChunkSize)",
           rtmp_chunk_corpus, rtmp_chunk_execute, rtmp_chunk_roundtrip});
  reg.add({"rtmp_handshake", "RTMP C0/C1/C2 simple handshake",
           rtmp_handshake_corpus, rtmp_handshake_execute,
           rtmp_handshake_roundtrip});
  reg.add({"mpegts", "MPEG-TS demuxer (PAT/PMT/PES/adaptation fields)",
           mpegts_corpus, mpegts_execute, mpegts_roundtrip});
  reg.add({"hls_media", "HLS media playlist parser", hls_media_corpus,
           hls_media_execute, hls_media_roundtrip});
  reg.add({"hls_master", "HLS master playlist parser", hls_master_corpus,
           hls_master_execute, hls_master_roundtrip});
  reg.add({"h264_annexb",
           "H.264 Annex-B splitter + SPS/PPS/SEI/slice-header parsers",
           h264_annexb_corpus, h264_annexb_execute, h264_annexb_roundtrip});
  reg.add({"h264_avcc", "H.264 AVCC framing + AVCDecoderConfigurationRecord",
           h264_avcc_corpus, h264_avcc_execute, h264_avcc_roundtrip});
  reg.add({"h264_paramsets", "H.264 SPS/PPS RBSP parsers (direct)",
           h264_paramset_corpus, h264_paramsets_execute,
           h264_paramsets_roundtrip});
  reg.add({"aac_adts", "AAC ADTS frame header parser", aac_adts_corpus,
           aac_adts_execute, aac_adts_roundtrip});
  reg.add({"http_request", "HTTP/1.1 request parser", http_request_corpus,
           http_request_execute, http_request_roundtrip});
  reg.add({"http_response", "HTTP/1.1 response parser", http_response_corpus,
           http_response_execute, http_response_roundtrip});
  reg.add({"websocket", "WebSocket frame decoder + message assembler",
           websocket_corpus, websocket_execute, websocket_roundtrip});
  reg.add({"json", "JSON document parser (Periscope API bodies)",
           json_corpus, json_execute, json_roundtrip});
  reg.add({"base64", "Base64 decoder (WebSocket handshake keys)",
           base64_corpus, base64_execute, base64_roundtrip});
  reg.add({"bitio", "Exp-Golomb bit reader (H.264 RBSP syntax)",
           bitio_corpus, bitio_execute, bitio_roundtrip});
  reg.add({"fault_plan", "Fault-plan text format (episode timelines)",
           fault_plan_corpus, fault_plan_execute, fault_plan_roundtrip});
}

}  // namespace psc::testing
