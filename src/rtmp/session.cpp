#include "rtmp/session.h"

#include <cmath>

namespace psc::rtmp {

namespace {

constexpr std::uint32_t kOutChunkSize = 4096;
constexpr std::uint32_t kWindowAckSize = 2500000;
constexpr std::uint32_t kMediaStreamId = 1;

std::uint32_t ms_from(Duration d) {
  const double ms = to_ms(d);
  return ms <= 0 ? 0 : static_cast<std::uint32_t>(std::llround(ms));
}

/// Hand a received Audio/Video message on: an AVC sequence header to
/// `on_config`, a coded sample to `on_sample` (its data is the payload
/// with the FLV tag header stripped in place). Tags that do not parse,
/// and audio that is not a raw AAC frame, are dropped.
void decode_media(
    Message& msg,
    const std::function<void(const media::AvcDecoderConfig&)>& on_config,
    const std::function<void(media::MediaSample)>& on_sample) {
  if (msg.type == MessageType::Video) {
    auto tag = flv::parse_video_tag(std::move(msg.payload));
    if (!tag) return;
    if (tag.value().packet_type == flv::AvcPacketType::SequenceHeader) {
      auto cfg = media::parse_avc_decoder_config(tag.value().data);
      if (cfg && on_config) on_config(cfg.value());
    } else if (on_sample) {
      media::MediaSample s;
      s.kind = media::SampleKind::Video;
      s.dts = millis(msg.timestamp_ms);
      s.pts = millis(static_cast<double>(msg.timestamp_ms) +
                     tag.value().composition_time_ms);
      s.keyframe = tag.value().keyframe;
      s.data = std::move(tag.value().data);
      on_sample(std::move(s));
    }
    return;
  }
  auto tag = flv::parse_audio_tag(std::move(msg.payload));
  if (!tag || tag.value().packet_type != flv::AacPacketType::Raw) return;
  if (on_sample) {
    media::MediaSample s;
    s.kind = media::SampleKind::Audio;
    s.dts = millis(msg.timestamp_ms);
    s.pts = s.dts;
    s.keyframe = true;
    s.data = std::move(tag.value().data);
    on_sample(std::move(s));
  }
}

}  // namespace

// ---------------- MediaMessageWriter ----------------

bool MediaMessageWriter::write(ChunkWriter& chunks, ByteWriter& out,
                               std::uint32_t stream_id,
                               const media::MediaSample& sample) {
  const std::uint32_t ts = ms_from(sample.dts);
  if (sample.kind != media::SampleKind::Video) {
    const auto header = flv::audio_tag_header(flv::AacPacketType::Raw);
    const BytesView pieces[] = {header, sample.data};
    chunks.write(out, kCsidAudio, MessageType::Audio, ts, stream_id, pieces);
    return true;
  }
  if (!media::annexb_nal_views(sample.data, nals_).ok()) return false;
  const auto cts = static_cast<std::int32_t>(
      std::llround(to_ms(sample.pts - sample.dts)));
  const auto header = flv::video_tag_header(
      sample.keyframe, flv::AvcPacketType::Nalu, cts);
  // Every length prefix is written before any view of prefixes_ is
  // taken: resizing later would move the bytes the views point at.
  prefixes_.resize(4 * nals_.size());
  for (std::size_t i = 0; i < nals_.size(); ++i) {
    const std::size_t len = nals_[i].size();
    prefixes_[4 * i] = static_cast<std::uint8_t>(len >> 24);
    prefixes_[4 * i + 1] = static_cast<std::uint8_t>(len >> 16);
    prefixes_[4 * i + 2] = static_cast<std::uint8_t>(len >> 8);
    prefixes_[4 * i + 3] = static_cast<std::uint8_t>(len);
  }
  pieces_.clear();
  pieces_.push_back(header);
  for (std::size_t i = 0; i < nals_.size(); ++i) {
    pieces_.push_back(BytesView(prefixes_).subspan(4 * i, 4));
    pieces_.push_back(nals_[i]);
  }
  chunks.write(out, kCsidVideo, MessageType::Video, ts, stream_id, pieces_);
  return true;
}

// ---------------- Endpoint ----------------

Endpoint::Endpoint(Role role, std::uint64_t seed) : role_(role), seed_(seed) {
  if (role_ == Role::Client) send_hello();
}

void Endpoint::send_hello() {
  hello_ = make_hello(0, seed_);
  out_.raw(hello_);
}

Status Endpoint::handshake(BytesView data) {
  inbuf_.insert(inbuf_.end(), data.begin(), data.end());
  if (handshake_ == Handshake::WaitHello) {
    if (inbuf_.size() < 1 + kHandshakeBlobSize) return {};
    auto hello = parse_hello(inbuf_);
    if (!hello) return hello.error();
    if (role_ == Role::Server) send_hello();  // S0+S1 go out before S2
    out_.raw(make_echo(hello.value().blob));
    inbuf_.erase(inbuf_.begin(), inbuf_.begin() + 1 + kHandshakeBlobSize);
    handshake_ = Handshake::WaitEcho;
  }
  if (inbuf_.size() < kHandshakeBlobSize) return {};
  if (!echo_matches(BytesView(inbuf_).first(kHandshakeBlobSize),
                    BytesView(hello_).subspan(1))) {
    return Error{"rtmp_handshake", role_ == Role::Server
                                       ? "C2 does not echo S1"
                                       : "S2 does not echo C1"};
  }
  inbuf_.erase(inbuf_.begin(), inbuf_.begin() + kHandshakeBlobSize);
  handshake_ = Handshake::Done;
  return {};
}

template <typename Layer>
Status Endpoint::on_input(BytesView data, Layer& layer) {
  if (handshake_ != Handshake::Done) {
    if (auto s = handshake(data); !s || handshake_ != Handshake::Done) {
      return s;
    }
    layer.on_established();
    // Any bytes already past the handshake belong to the chunk stream.
    Status s = reader_.push(inbuf_);
    Bytes{}.swap(inbuf_);
    Bytes{}.swap(hello_);
    if (!s) return s;
  } else if (auto s = reader_.push(data); !s) {
    return s;
  }
  reader_.drain([&layer](Message& m) {
    if (m.type == MessageType::CommandAmf0) {
      auto values = amf::decode_all(m.payload);
      if (values && !values.value().empty()) layer.on_command(values.value());
    } else if (m.type == MessageType::Video ||
               m.type == MessageType::Audio) {
      layer.on_media(m);
    }
  });
  return {};
}

void Endpoint::write(std::uint32_t csid, MessageType type,
                     std::uint32_t stream_id, BytesView payload) {
  writer_.write(out_, csid, type, 0, stream_id, {&payload, 1});
}

void Endpoint::command(const std::vector<amf::Value>& values,
                       std::uint32_t stream_id) {
  write(kCsidCommand, MessageType::CommandAmf0, stream_id,
        amf::encode_all(values));
}

void Endpoint::set_chunk_size(std::uint32_t size) {
  ByteWriter w;
  w.u32be(size);
  write(kCsidProtocol, MessageType::SetChunkSize, 0, w.bytes());
  writer_.set_chunk_size(size);
}

void Endpoint::window_ack_size(std::uint32_t size) {
  ByteWriter w;
  w.u32be(size);
  write(kCsidProtocol, MessageType::WindowAckSize, 0, w.bytes());
}

void Endpoint::set_peer_bandwidth(std::uint32_t size) {
  ByteWriter w;
  w.u32be(size);
  w.u8(2);  // dynamic limit
  write(kCsidProtocol, MessageType::SetPeerBandwidth, 0, w.bytes());
}

void Endpoint::stream_begin(std::uint32_t stream_id) {
  ByteWriter w;
  w.u16be(static_cast<std::uint16_t>(UserControlEvent::StreamBegin));
  w.u32be(stream_id);
  write(kCsidProtocol, MessageType::UserControl, 0, w.bytes());
}

void Endpoint::avc_config(std::uint32_t stream_id, const media::Sps& sps,
                          const media::Pps& pps) {
  write(kCsidVideo, MessageType::Video, stream_id,
        flv::make_avc_sequence_header(sps, pps));
}

// ---------------- ServerSession ----------------

ServerSession::ServerSession(std::uint64_t seed)
    : conn_(Endpoint::Role::Server, seed) {}

Status ServerSession::on_input(BytesView data) {
  return conn_.on_input(data, *this);
}

void ServerSession::on_media(Message& msg) {
  if (publishing_) {
    decode_media(msg, publish_cbs_.on_avc_config, publish_cbs_.on_sample);
  }
}

void ServerSession::on_command(const std::vector<amf::Value>& v) {
  const std::string& name = v[0].as_string();
  const double txn = v.size() > 1 ? v[1].as_number() : 0.0;

  if (name == "connect") {
    app_ = v.size() > 2 ? v[2]["app"].as_string() : "";
    conn_.window_ack_size(kWindowAckSize);
    conn_.set_peer_bandwidth(kWindowAckSize);
    conn_.set_chunk_size(kOutChunkSize);
    amf::Object props{{"fmsVer", amf::Value("FMS/3,5,7,7009")},
                      {"capabilities", amf::Value(31.0)}};
    amf::Object info{{"level", amf::Value("status")},
                     {"code", amf::Value("NetConnection.Connect.Success")},
                     {"description", amf::Value("Connection succeeded.")}};
    conn_.command({amf::Value("_result"), amf::Value(txn),
                   amf::Value(std::move(props)),
                   amf::Value(std::move(info))});
  } else if (name == "createStream") {
    conn_.command({amf::Value("_result"), amf::Value(txn), amf::Value(),
                   amf::Value(double(kMediaStreamId))});
  } else if (name == "releaseStream" || name == "FCPublish") {
    // Courtesy commands sent by publishers before createStream; a
    // _result keeps strict clients happy.
    conn_.command({amf::Value("_result"), amf::Value(txn), amf::Value(),
                   amf::Value()});
  } else if (name == "publish") {
    stream_name_ = v.size() > 3 ? v[3].as_string() : "";
    if (publish_cbs_.on_publish_start &&
        !publish_cbs_.on_publish_start(stream_name_)) {
      send_status("error", "NetStream.Publish.BadName",
                  "Stream name is already in use.");
      return;
    }
    conn_.stream_begin(kMediaStreamId);
    send_status("status", "NetStream.Publish.Start", "Publishing.");
    publishing_ = true;
  } else if (name == "play") {
    stream_name_ = v.size() > 3 ? v[3].as_string() : "";
    conn_.stream_begin(kMediaStreamId);
    send_status("status", "NetStream.Play.Start", "Started playing.");
    playing_ = true;
  }
}

void ServerSession::send_status(const char* level, const char* code,
                                const char* description) {
  amf::Object info{{"level", amf::Value(level)},
                   {"code", amf::Value(code)},
                   {"description", amf::Value(description)}};
  conn_.command({amf::Value("onStatus"), amf::Value(0.0), amf::Value(),
                 amf::Value(std::move(info))},
                kMediaStreamId);
}

void ServerSession::send_avc_config(const media::Sps& sps,
                                    const media::Pps& pps) {
  conn_.avc_config(kMediaStreamId, sps, pps);
}

void ServerSession::send_sample(const media::MediaSample& sample) {
  conn_.sample(kMediaStreamId, sample);
}

// ---------------- ClientSession ----------------

ClientSession::ClientSession(std::string app, std::string stream_name,
                             std::uint64_t seed, Callbacks callbacks)
    : conn_(Endpoint::Role::Client, seed ^ 0xC11E57),
      app_(std::move(app)),
      stream_name_(std::move(stream_name)),
      cb_(std::move(callbacks)) {}

Status ClientSession::on_input(BytesView data) {
  return conn_.on_input(data, *this);
}

void ClientSession::on_established() {
  amf::Object args{{"app", amf::Value(app_)},
                   {"flashVer", amf::Value("LNX 11,1,102,55")},
                   {"tcUrl", amf::Value("rtmp://vidman.example/" + app_)},
                   {"fpad", amf::Value(false)},
                   {"audioCodecs", amf::Value(3191.0)},
                   {"videoCodecs", amf::Value(252.0)}};
  conn_.command({amf::Value("connect"), amf::Value(1.0),
                 amf::Value(std::move(args))});
}

void ClientSession::on_command(const std::vector<amf::Value>& v) {
  const std::string& name = v[0].as_string();
  if (name == "_result" && state_ == State::Connecting) {
    state_ = State::CreatingStream;
    conn_.command({amf::Value("createStream"), amf::Value(next_txn_++),
                   amf::Value()});
  } else if (name == "_result" && state_ == State::CreatingStream) {
    state_ = State::Playing;
    conn_.command({amf::Value("play"), amf::Value(next_txn_++), amf::Value(),
                   amf::Value(stream_name_)});
  } else if (name == "onStatus") {
    const std::string code = v.size() > 3 ? v[3]["code"].as_string() : "";
    if (code == "NetStream.Play.Start") playing_ = true;
    if (cb_.on_status) cb_.on_status(code);
  }
}

void ClientSession::on_media(Message& msg) {
  decode_media(msg, cb_.on_avc_config, cb_.on_sample);
}

// ---------------- PublisherSession ----------------

PublisherSession::PublisherSession(std::string app, std::string stream_key,
                                   std::uint64_t seed)
    : conn_(Endpoint::Role::Client, seed ^ 0x9B11C),
      app_(std::move(app)),
      stream_key_(std::move(stream_key)) {}

Status PublisherSession::on_input(BytesView data) {
  return conn_.on_input(data, *this);
}

void PublisherSession::on_established() {
  amf::Object args{{"app", amf::Value(app_)},
                   {"type", amf::Value("nonprivate")},
                   {"flashVer", amf::Value("FMLE/3.0")},
                   {"tcUrl", amf::Value("rtmp://vidman.example/" + app_)}};
  conn_.command({amf::Value("connect"), amf::Value(1.0),
                 amf::Value(std::move(args))});
}

void PublisherSession::on_command(const std::vector<amf::Value>& v) {
  const std::string& name = v[0].as_string();
  if (name == "_result" && state_ == State::Connecting) {
    state_ = State::CreatingStream;
    conn_.command({amf::Value("releaseStream"), amf::Value(next_txn_++),
                   amf::Value(), amf::Value(stream_key_)});
    conn_.command({amf::Value("FCPublish"), amf::Value(next_txn_++),
                   amf::Value(), amf::Value(stream_key_)});
    conn_.command({amf::Value("createStream"), amf::Value(next_txn_++),
                   amf::Value()});
  } else if (name == "_result" && state_ == State::CreatingStream &&
             v.size() > 3 && v[3].is_number()) {
    media_stream_id_ = static_cast<std::uint32_t>(v[3].as_number());
    state_ = State::Publishing;
    conn_.command({amf::Value("publish"), amf::Value(next_txn_++),
                   amf::Value(), amf::Value(stream_key_),
                   amf::Value("live")});
  } else if (name == "onStatus") {
    const std::string code = v.size() > 3 ? v[3]["code"].as_string() : "";
    if (code == "NetStream.Publish.Start") publishing_ = true;
  }
}

void PublisherSession::send_avc_config(const media::Sps& sps,
                                       const media::Pps& pps) {
  conn_.avc_config(media_stream_id_, sps, pps);
}

void PublisherSession::send_sample(const media::MediaSample& sample) {
  conn_.sample(media_stream_id_, sample);
}

}  // namespace psc::rtmp
