#include "service/origin_server.h"

namespace psc::service {

namespace {
bool is_keyframe(const media::MediaSample& s) {
  return s.kind == media::SampleKind::Video && s.keyframe;
}
}  // namespace

void OriginStream::set_config(const media::AvcDecoderConfig& cfg) {
  config_ = cfg;
  for (auto& [token, p] : players_) {
    p.session->send_avc_config(cfg.sps, cfg.pps);
  }
}

const media::MediaSample& OriginStream::push(media::MediaSample&& sample) {
  if (is_keyframe(sample)) ++backlog_keyframes_;
  // Too many GOPs or no room: drop the oldest GOP, i.e. the front
  // keyframe and everything up to (excluding) the next keyframe.
  while (!backlog_.empty() && (backlog_keyframes_ > kBacklogGops ||
                               backlog_.size() >= kBacklogCap)) {
    backlog_.pop_front();
    while (!backlog_.empty() && !is_keyframe(backlog_.front())) {
      backlog_.pop_front();
    }
    --backlog_keyframes_;
  }
  // The sample moves into the backlog; every player reads that one copy.
  const media::MediaSample* out = &sample;
  if (backlog_keyframes_ > 0) {
    backlog_.push_back(std::move(sample));
    out = &backlog_.back();
  }
  for (auto& [token, p] : players_) {
    p.session->send_sample(*out);
    if (p.on_sent) p.on_sent(*out);
  }
  return *out;
}

int OriginStream::attach(rtmp::ServerSession& session, SentFn on_sent) {
  if (config_) session.send_avc_config(config_->sps, config_->pps);
  for (const media::MediaSample& s : backlog_) session.send_sample(s);
  const int token = next_token_++;
  players_[token] = Player{&session, std::move(on_sent)};
  return token;
}

void OriginStream::reset() {
  config_.reset();
  backlog_.clear();
  backlog_keyframes_ = 0;
}

void MediaOrigin::set_metrics(obs::Registry* reg) {
  if (reg == nullptr) {
    conns_ = publish_refused_ = bytes_in_ = bytes_out_ = nullptr;
    return;
  }
  conns_ = &reg->counter("origin_connections_total");
  publish_refused_ = &reg->counter("origin_publish_refused_total");
  bytes_in_ = &reg->counter("origin_rtmp_bytes_in_total");
  bytes_out_ = &reg->counter("origin_rtmp_bytes_out_total");
}

int MediaOrigin::open_connection() {
  const int conn = next_conn_++;
  if (conns_ != nullptr) conns_->add(1);
  Connection c;
  c.session = std::make_unique<rtmp::ServerSession>(
      seed_ ^ (0x9E37u * static_cast<std::uint64_t>(conn)));
  connections_[conn] = std::move(c);
  wire_publish_hooks(conn);
  return conn;
}

void MediaOrigin::wire_publish_hooks(int conn) {
  rtmp::ServerSession::PublishCallbacks cbs;
  cbs.on_publish_start = [this, conn](const std::string& key) {
    // Refused: the connection already plays or publishes, or the key has
    // a live publisher.
    Connection& c = connections_.at(conn);
    auto it = streams_.find(key);
    if (c.is_publisher || c.player_token != 0 ||
        (it != streams_.end() && it->second.publisher_conn >= 0)) {
      if (publish_refused_ != nullptr) publish_refused_->add(1);
      return false;
    }
    c.stream = key;
    c.is_publisher = true;
    streams_[key].publisher_conn = conn;
    if (stream_hooks_.on_publish_start) {
      stream_hooks_.on_publish_start(key, now_);
    }
    return true;
  };
  // The session decodes media only once its publish was accepted, so the
  // connection is bound to its stream in both media callbacks.
  cbs.on_avc_config = [this, conn](const media::AvcDecoderConfig& cfg) {
    const std::string& key = connections_.at(conn).stream;
    if (stream_hooks_.on_avc_config) stream_hooks_.on_avc_config(key, cfg);
    streams_.at(key).media.set_config(cfg);
  };
  cbs.on_sample = [this, conn](media::MediaSample sample) {
    const std::string& key = connections_.at(conn).stream;
    // Published video arrives as AVCC (FLV framing); the fan-out path
    // re-wraps per player, so convert back to Annex-B once here.
    if (sample.kind == media::SampleKind::Video) {
      auto annexb = media::avcc_to_annexb(sample.data);
      if (!annexb) return;
      sample.data = std::move(annexb).value();
    }
    if (stream_hooks_.on_sample) stream_hooks_.on_sample(key, sample, now_);
    streams_.at(key).media.push(std::move(sample));
  };
  connections_.at(conn).session->set_publish_callbacks(std::move(cbs));
}

void MediaOrigin::close_connection(int conn) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  const Connection& c = it->second;
  auto sit = streams_.find(c.stream);
  if (sit != streams_.end()) {
    Stream& s = sit->second;
    if (c.player_token != 0) s.media.detach(c.player_token);
    if (c.is_publisher) {
      // Publisher gone: the stream ends; its players wait for the next.
      s.publisher_conn = -1;
      s.media.reset();
      if (stream_hooks_.on_publish_end) {
        stream_hooks_.on_publish_end(c.stream, now_);
      }
    }
    if (s.publisher_conn < 0 && s.media.player_count() == 0) {
      streams_.erase(sit);
    }
  }
  connections_.erase(it);
}

Status MediaOrigin::on_input(int conn, BytesView data) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) {
    return Error{"origin", "unknown connection"};
  }
  Connection& c = it->second;
  const bool was_playing = c.session->playing();
  ledger_.add_request(c.stream.empty() ? "rtmp" : c.stream, now_,
                      static_cast<double>(data.size()));
  if (bytes_in_ != nullptr) {
    bytes_in_->add(static_cast<double>(data.size()));
  }
  if (auto s = c.session->on_input(data); !s) return s;
  // A play command may have completed during this input: attach.
  if (!was_playing && c.session->playing() && !c.is_publisher) {
    c.stream = c.session->stream_name();
    c.player_token = streams_[c.stream].media.attach(*c.session);
  }
  return {};
}

Bytes MediaOrigin::take_output(int conn) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) return Bytes{};
  Bytes out = it->second.session->take_output();
  if (!out.empty()) {
    ledger_.add_request(
        it->second.stream.empty() ? "rtmp" : it->second.stream, now_,
        static_cast<double>(out.size()));
    if (bytes_out_ != nullptr) {
      bytes_out_->add(static_cast<double>(out.size()));
    }
  }
  return out;
}

bool MediaOrigin::has_output(int conn) const {
  auto it = connections_.find(conn);
  return it != connections_.end() && it->second.session->has_output();
}

std::vector<std::string> MediaOrigin::live_streams() const {
  std::vector<std::string> out;
  for (const auto& [name, s] : streams_) {
    if (s.publisher_conn >= 0) out.push_back(name);
  }
  return out;
}

std::size_t MediaOrigin::viewer_count(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.media.player_count();
}

}  // namespace psc::service
