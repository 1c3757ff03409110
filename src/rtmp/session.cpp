#include "rtmp/session.h"

#include <cmath>

namespace psc::rtmp {

namespace {

constexpr std::uint32_t kOutChunkSize = 4096;
constexpr std::uint32_t kWindowAckSize = 2500000;
constexpr std::uint32_t kMediaStreamId = 1;

Bytes u32_payload(std::uint32_t v) {
  ByteWriter w;
  w.u32be(v);
  return w.take();
}

std::uint32_t ms_from(Duration d) {
  const double ms = to_ms(d);
  return ms <= 0 ? 0 : static_cast<std::uint32_t>(std::llround(ms));
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

// ---------------- ServerSession ----------------

ServerSession::ServerSession(std::uint64_t seed) : seed_(seed) {}

void ServerSession::send_message(std::uint32_t csid, MessageType type,
                                 std::uint32_t timestamp_ms,
                                 std::uint32_t stream_id, Bytes payload) {
  Message msg;
  msg.type = type;
  msg.timestamp_ms = timestamp_ms;
  msg.stream_id = stream_id;
  msg.payload = std::move(payload);
  writer_.write(out_, csid, msg);
}

Status ServerSession::on_input(BytesView data) {
  if (state_ != State::Command) {
    inbuf_.insert(inbuf_.end(), data.begin(), data.end());
    if (state_ == State::WaitHello) {
      if (inbuf_.size() < 1 + kHandshakeBlobSize) return {};
      auto hello = parse_hello(inbuf_);
      if (!hello) return hello.error();
      // S0+S1+S2.
      const Bytes s0s1 = make_hello(0, seed_);
      my_blob_.assign(s0s1.begin() + 1, s0s1.end());
      out_.raw(s0s1);
      out_.raw(make_echo(hello.value().blob));
      inbuf_.erase(inbuf_.begin(),
                   inbuf_.begin() + 1 + kHandshakeBlobSize);
      state_ = State::WaitEcho;
    }
    if (state_ == State::WaitEcho) {
      if (inbuf_.size() < kHandshakeBlobSize) return {};
      if (!echo_matches(BytesView(inbuf_).subspan(0, kHandshakeBlobSize),
                        my_blob_)) {
        return Error{"rtmp_handshake", "C2 does not echo S1"};
      }
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + kHandshakeBlobSize);
      state_ = State::Command;
      // Any bytes already past the handshake belong to the chunk stream.
      if (!inbuf_.empty()) {
        if (auto s = reader_.push(inbuf_); !s) return s;
        inbuf_.clear();
      }
    }
  } else {
    if (auto s = reader_.push(data); !s) return s;
  }
  reader_.drain([this](Message& m) {
    if (m.type == MessageType::CommandAmf0) {
      handle_command(m);
    } else if (m.type == MessageType::Video ||
               m.type == MessageType::Audio) {
      handle_published_media(m);
    }
    // Acknowledgement / UserControl from the client are accepted silently.
  });
  return {};
}

void ServerSession::handle_published_media(Message& msg) {
  if (!publishing_) return;
  if (msg.type == MessageType::Video) {
    auto tag = flv::parse_video_tag(std::move(msg.payload));
    if (!tag) return;
    if (tag.value().packet_type == flv::AvcPacketType::SequenceHeader) {
      auto cfg = media::parse_avc_decoder_config(tag.value().data);
      if (cfg && publish_cbs_.on_avc_config) {
        publish_cbs_.on_avc_config(cfg.value());
      }
      return;
    }
    if (publish_cbs_.on_sample) {
      media::MediaSample s;
      s.kind = media::SampleKind::Video;
      s.dts = millis(msg.timestamp_ms);
      s.pts = millis(static_cast<double>(msg.timestamp_ms) +
                     tag.value().composition_time_ms);
      s.keyframe = tag.value().keyframe;
      s.data = std::move(tag.value().data);
      publish_cbs_.on_sample(std::move(s));
    }
  } else {
    auto tag = flv::parse_audio_tag(std::move(msg.payload));
    if (!tag || tag.value().packet_type != flv::AacPacketType::Raw) return;
    if (publish_cbs_.on_sample) {
      media::MediaSample s;
      s.kind = media::SampleKind::Audio;
      s.dts = millis(msg.timestamp_ms);
      s.pts = s.dts;
      s.keyframe = true;
      s.data = std::move(tag.value().data);
      publish_cbs_.on_sample(std::move(s));
    }
  }
}

void ServerSession::handle_command(const Message& msg) {
  auto values = amf::decode_all(msg.payload);
  if (!values || values.value().empty()) return;
  const auto& v = values.value();
  const std::string& name = v[0].as_string();
  const double txn = v.size() > 1 ? v[1].as_number() : 0.0;

  if (name == "connect") {
    app_ = v.size() > 2 ? v[2]["app"].as_string() : "";
    send_message(kCsidProtocol, MessageType::WindowAckSize, 0, 0,
                 u32_payload(kWindowAckSize));
    {
      ByteWriter w;
      w.u32be(kWindowAckSize);
      w.u8(2);  // dynamic limit
      send_message(kCsidProtocol, MessageType::SetPeerBandwidth, 0, 0,
                   w.take());
    }
    send_message(kCsidProtocol, MessageType::SetChunkSize, 0, 0,
                 u32_payload(kOutChunkSize));
    writer_.set_chunk_size(kOutChunkSize);
    amf::Object props{{"fmsVer", amf::Value("FMS/3,5,7,7009")},
                      {"capabilities", amf::Value(31.0)}};
    amf::Object info{{"level", amf::Value("status")},
                     {"code", amf::Value("NetConnection.Connect.Success")},
                     {"description", amf::Value("Connection succeeded.")}};
    send_message(kCsidCommand, MessageType::CommandAmf0, 0, 0,
                 amf::encode_all({amf::Value("_result"), amf::Value(txn),
                                  amf::Value(std::move(props)),
                                  amf::Value(std::move(info))}));
  } else if (name == "createStream") {
    send_message(kCsidCommand, MessageType::CommandAmf0, 0, 0,
                 amf::encode_all({amf::Value("_result"), amf::Value(txn),
                                  amf::Value(),
                                  amf::Value(double(kMediaStreamId))}));
  } else if (name == "releaseStream" || name == "FCPublish") {
    // Courtesy commands sent by publishers before createStream; a
    // _result keeps strict clients happy.
    send_message(kCsidCommand, MessageType::CommandAmf0, 0, 0,
                 amf::encode_all({amf::Value("_result"), amf::Value(txn),
                                  amf::Value(), amf::Value()}));
  } else if (name == "publish") {
    stream_name_ = v.size() > 3 ? v[3].as_string() : "";
    {
      ByteWriter w;
      w.u16be(static_cast<std::uint16_t>(UserControlEvent::StreamBegin));
      w.u32be(kMediaStreamId);
      send_message(kCsidProtocol, MessageType::UserControl, 0, 0, w.take());
    }
    amf::Object info{{"level", amf::Value("status")},
                     {"code", amf::Value("NetStream.Publish.Start")},
                     {"description", amf::Value("Publishing.")}};
    send_message(kCsidCommand, MessageType::CommandAmf0, 0, kMediaStreamId,
                 amf::encode_all({amf::Value("onStatus"), amf::Value(0.0),
                                  amf::Value(),
                                  amf::Value(std::move(info))}));
    publishing_ = true;
    if (publish_cbs_.on_publish_start) {
      publish_cbs_.on_publish_start(stream_name_);
    }
  } else if (name == "play") {
    stream_name_ = v.size() > 3 ? v[3].as_string() : "";
    {
      ByteWriter w;
      w.u16be(static_cast<std::uint16_t>(UserControlEvent::StreamBegin));
      w.u32be(kMediaStreamId);
      send_message(kCsidProtocol, MessageType::UserControl, 0, 0, w.take());
    }
    amf::Object info{{"level", amf::Value("status")},
                     {"code", amf::Value("NetStream.Play.Start")},
                     {"description", amf::Value("Started playing.")}};
    send_message(kCsidCommand, MessageType::CommandAmf0, 0, kMediaStreamId,
                 amf::encode_all({amf::Value("onStatus"), amf::Value(0.0),
                                  amf::Value(),
                                  amf::Value(std::move(info))}));
    playing_ = true;
  }
}

void ServerSession::send_avc_config(const media::Sps& sps,
                                    const media::Pps& pps) {
  send_message(kCsidVideo, MessageType::Video, 0, kMediaStreamId,
               flv::make_avc_sequence_header(sps, pps));
}

void ServerSession::send_sample(const media::MediaSample& sample) {
  media_.write(writer_, out_, kMediaStreamId, sample);
}

Bytes ServerSession::take_output() {
  Bytes b = out_.take();
  return b;
}

// ---------------- ClientSession ----------------

ClientSession::ClientSession(std::string app, std::string stream_name,
                             std::uint64_t seed, Callbacks callbacks)
    : app_(std::move(app)),
      stream_name_(std::move(stream_name)),
      cb_(std::move(callbacks)) {
  // C0+C1 go out immediately.
  const Bytes c0c1 = make_hello(0, seed ^ 0xC11E57);
  my_blob_.assign(c0c1.begin() + 1, c0c1.end());
  out_.raw(c0c1);
}

void ClientSession::send_command(std::vector<amf::Value> values) {
  Message msg;
  msg.type = MessageType::CommandAmf0;
  msg.timestamp_ms = 0;
  msg.stream_id = 0;
  msg.payload = amf::encode_all(values);
  writer_.write(out_, kCsidCommand, msg);
}

Status ClientSession::on_input(BytesView data) {
  if (state_ == State::WaitHello || state_ == State::WaitEcho) {
    inbuf_.insert(inbuf_.end(), data.begin(), data.end());
    if (state_ == State::WaitHello) {
      if (inbuf_.size() < 1 + kHandshakeBlobSize) return {};
      auto hello = parse_hello(inbuf_);
      if (!hello) return hello.error();
      out_.raw(make_echo(hello.value().blob));  // C2
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + 1 + kHandshakeBlobSize);
      state_ = State::WaitEcho;
    }
    if (state_ == State::WaitEcho) {
      if (inbuf_.size() < kHandshakeBlobSize) return {};
      if (!echo_matches(BytesView(inbuf_).subspan(0, kHandshakeBlobSize),
                        my_blob_)) {
        return Error{"rtmp_handshake", "S2 does not echo C1"};
      }
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + kHandshakeBlobSize);
      state_ = State::Connecting;
      amf::Object args{{"app", amf::Value(app_)},
                       {"flashVer", amf::Value("LNX 11,1,102,55")},
                       {"tcUrl", amf::Value("rtmp://vidman.example/" + app_)},
                       {"fpad", amf::Value(false)},
                       {"audioCodecs", amf::Value(3191.0)},
                       {"videoCodecs", amf::Value(252.0)}};
      send_command({amf::Value("connect"), amf::Value(1.0),
                    amf::Value(std::move(args))});
      if (!inbuf_.empty()) {
        if (auto s = reader_.push(inbuf_); !s) return s;
        inbuf_.clear();
      }
    }
  } else {
    if (auto s = reader_.push(data); !s) return s;
  }
  reader_.drain([this](Message& m) { handle_message(m); });
  return {};
}

void ClientSession::handle_message(Message& msg) {
  switch (msg.type) {
    case MessageType::CommandAmf0: {
      auto values = amf::decode_all(msg.payload);
      if (!values || values.value().empty()) return;
      const auto& v = values.value();
      const std::string& name = v[0].as_string();
      if (name == "_result" && state_ == State::Connecting) {
        state_ = State::CreatingStream;
        send_command({amf::Value("createStream"), amf::Value(next_txn_++),
                      amf::Value()});
      } else if (name == "_result" && state_ == State::CreatingStream) {
        media_stream_id_ =
            v.size() > 3 ? static_cast<std::uint32_t>(v[3].as_number()) : 1;
        state_ = State::Playing;
        send_command({amf::Value("play"), amf::Value(next_txn_++),
                      amf::Value(), amf::Value(stream_name_)});
      } else if (name == "onStatus") {
        const std::string code =
            v.size() > 3 ? v[3]["code"].as_string() : "";
        if (code == "NetStream.Play.Start") playing_ = true;
        if (cb_.on_status) cb_.on_status(code);
      }
      break;
    }
    case MessageType::Video: {
      auto tag = flv::parse_video_tag(std::move(msg.payload));
      if (!tag) return;
      if (tag.value().packet_type == flv::AvcPacketType::SequenceHeader) {
        auto cfg = media::parse_avc_decoder_config(tag.value().data);
        if (cfg && cb_.on_avc_config) cb_.on_avc_config(cfg.value());
        return;
      }
      if (cb_.on_sample) {
        media::MediaSample s;
        s.kind = media::SampleKind::Video;
        s.dts = millis(msg.timestamp_ms);
        s.pts = millis(static_cast<double>(msg.timestamp_ms) +
                       tag.value().composition_time_ms);
        s.keyframe = tag.value().keyframe;
        s.data = std::move(tag.value().data);
        cb_.on_sample(std::move(s));
      }
      break;
    }
    case MessageType::Audio: {
      auto tag = flv::parse_audio_tag(std::move(msg.payload));
      if (!tag) return;
      if (tag.value().packet_type != flv::AacPacketType::Raw) return;
      if (cb_.on_sample) {
        media::MediaSample s;
        s.kind = media::SampleKind::Audio;
        s.dts = millis(msg.timestamp_ms);
        s.pts = s.dts;
        s.keyframe = true;
        s.data = std::move(tag.value().data);
        cb_.on_sample(std::move(s));
      }
      break;
    }
    default:
      break;  // window ack etc. — accepted silently
  }
}

Bytes ClientSession::take_output() { return out_.take(); }

// ---------------- PublisherSession ----------------

PublisherSession::PublisherSession(std::string app, std::string stream_key,
                                   std::uint64_t seed)
    : app_(std::move(app)), stream_key_(std::move(stream_key)) {
  const Bytes c0c1 = make_hello(0, seed ^ 0x9B11C);
  my_blob_.assign(c0c1.begin() + 1, c0c1.end());
  out_.raw(c0c1);
}

void PublisherSession::send_command(std::vector<amf::Value> values) {
  Message msg;
  msg.type = MessageType::CommandAmf0;
  msg.payload = amf::encode_all(values);
  writer_.write(out_, kCsidCommand, msg);
}

Status PublisherSession::on_input(BytesView data) {
  if (state_ == State::WaitHello || state_ == State::WaitEcho) {
    inbuf_.insert(inbuf_.end(), data.begin(), data.end());
    if (state_ == State::WaitHello) {
      if (inbuf_.size() < 1 + kHandshakeBlobSize) return {};
      auto hello = parse_hello(inbuf_);
      if (!hello) return hello.error();
      out_.raw(make_echo(hello.value().blob));
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + 1 + kHandshakeBlobSize);
      state_ = State::WaitEcho;
    }
    if (state_ == State::WaitEcho) {
      if (inbuf_.size() < kHandshakeBlobSize) return {};
      if (!echo_matches(BytesView(inbuf_).subspan(0, kHandshakeBlobSize),
                        my_blob_)) {
        return Error{"rtmp_handshake", "S2 does not echo C1"};
      }
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + kHandshakeBlobSize);
      state_ = State::Connecting;
      amf::Object args{{"app", amf::Value(app_)},
                       {"type", amf::Value("nonprivate")},
                       {"flashVer", amf::Value("FMLE/3.0")},
                       {"tcUrl", amf::Value("rtmp://vidman.example/" + app_)}};
      send_command({amf::Value("connect"), amf::Value(1.0),
                    amf::Value(std::move(args))});
      if (!inbuf_.empty()) {
        if (auto s = reader_.push(inbuf_); !s) return s;
        inbuf_.clear();
      }
    }
  } else {
    if (auto s = reader_.push(data); !s) return s;
  }
  reader_.drain([this](Message& m) { handle_message(m); });
  return {};
}

void PublisherSession::handle_message(const Message& msg) {
  if (msg.type != MessageType::CommandAmf0) return;
  auto values = amf::decode_all(msg.payload);
  if (!values || values.value().empty()) return;
  const auto& v = values.value();
  const std::string& name = v[0].as_string();
  if (name == "_result" && state_ == State::Connecting) {
    state_ = State::CreatingStream;
    send_command({amf::Value("releaseStream"), amf::Value(next_txn_++),
                  amf::Value(), amf::Value(stream_key_)});
    send_command({amf::Value("FCPublish"), amf::Value(next_txn_++),
                  amf::Value(), amf::Value(stream_key_)});
    send_command({amf::Value("createStream"), amf::Value(next_txn_++),
                  amf::Value()});
  } else if (name == "_result" && state_ == State::CreatingStream &&
             v.size() > 3 && v[3].is_number()) {
    media_stream_id_ = static_cast<std::uint32_t>(v[3].as_number());
    state_ = State::Publishing;
    send_command({amf::Value("publish"), amf::Value(next_txn_++),
                  amf::Value(), amf::Value(stream_key_),
                  amf::Value("live")});
  } else if (name == "onStatus") {
    const std::string code = v.size() > 3 ? v[3]["code"].as_string() : "";
    if (code == "NetStream.Publish.Start") publishing_ = true;
  }
}

void PublisherSession::send_avc_config(const media::Sps& sps,
                                       const media::Pps& pps) {
  Message msg;
  msg.type = MessageType::Video;
  msg.stream_id = media_stream_id_;
  msg.payload = flv::make_avc_sequence_header(sps, pps);
  writer_.write(out_, kCsidVideo, msg);
}

void PublisherSession::send_sample(const media::MediaSample& sample) {
  media_.write(writer_, out_, media_stream_id_, sample);
}

Bytes PublisherSession::take_output() { return out_.take(); }

}  // namespace psc::rtmp
