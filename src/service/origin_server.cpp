#include "service/origin_server.h"

namespace psc::service {

void MediaOrigin::set_obs(obs::Obs* obs) {
  if (obs == nullptr) {
    conns_ = bytes_in_ = bytes_out_ = nullptr;
    return;
  }
  conns_ = &obs->metrics.counter("origin_connections_total");
  bytes_in_ = &obs->metrics.counter("origin_rtmp_bytes_in_total");
  bytes_out_ = &obs->metrics.counter("origin_rtmp_bytes_out_total");
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
    Connection& c = connections_.at(conn);
    c.stream = key;
    c.is_publisher = true;
    Stream& s = stream_of(key);
    s.publisher_conn = conn;
    if (stream_hooks_.on_publish_start) {
      stream_hooks_.on_publish_start(key, now_);
    }
  };
  cbs.on_avc_config = [this, conn](const media::AvcDecoderConfig& cfg) {
    Connection& c = connections_.at(conn);
    if (c.stream.empty()) return;
    Stream& s = stream_of(c.stream);
    s.config = cfg;
    if (stream_hooks_.on_avc_config) {
      stream_hooks_.on_avc_config(c.stream, cfg);
    }
    // Late config: forward to already-attached players.
    for (int player : s.players) {
      auto it = connections_.find(player);
      if (it != connections_.end()) {
        it->second.session->send_avc_config(cfg.sps, cfg.pps);
      }
    }
  };
  cbs.on_sample = [this, conn](media::MediaSample sample) {
    Connection& c = connections_.at(conn);
    if (c.stream.empty()) return;
    Stream& s = stream_of(c.stream);
    // Published video arrives as AVCC (FLV framing); the fan-out path
    // re-wraps per player, so convert back to Annex-B once here.
    if (sample.kind == media::SampleKind::Video) {
      auto annexb = media::avcc_to_annexb(sample.data);
      if (!annexb) return;
      sample.data = std::move(annexb).value();
    }
    if (stream_hooks_.on_sample) {
      stream_hooks_.on_sample(c.stream, sample, now_);
    }
    if (sample.kind == media::SampleKind::Video && sample.keyframe) {
      s.backlog.clear();
    }
    s.backlog.push_back(sample);
    static constexpr std::size_t kBacklogCap = 512;
    while (s.backlog.size() > kBacklogCap) s.backlog.pop_front();
    for (int player : s.players) {
      auto it = connections_.find(player);
      if (it != connections_.end()) {
        it->second.session->send_sample(sample);
      }
    }
  };
  connections_.at(conn).session->set_publish_callbacks(std::move(cbs));
}

void MediaOrigin::attach_player(int conn, const std::string& stream) {
  Connection& c = connections_.at(conn);
  c.stream = stream;
  Stream& s = stream_of(stream);
  s.players.insert(conn);
  // Decodable join burst: config + backlog from the latest keyframe.
  if (s.config) {
    c.session->send_avc_config(s.config->sps, s.config->pps);
  }
  for (const media::MediaSample& sample : s.backlog) {
    c.session->send_sample(sample);
  }
}

void MediaOrigin::close_connection(int conn) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) return;
  if (!it->second.stream.empty()) {
    auto sit = streams_.find(it->second.stream);
    if (sit != streams_.end()) {
      sit->second.players.erase(conn);
      if (it->second.is_publisher &&
          sit->second.publisher_conn == conn) {
        // Publisher gone: the stream ends.
        streams_.erase(sit);
        if (stream_hooks_.on_publish_end) {
          stream_hooks_.on_publish_end(it->second.stream, now_);
        }
      }
    }
  }
  connections_.erase(it);
}

Status MediaOrigin::on_input(int conn, BytesView data) {
  auto it = connections_.find(conn);
  if (it == connections_.end()) {
    return Error{"origin", "unknown connection"};
  }
  const bool was_playing = it->second.session->playing();
  ledger_.add_request(
      it->second.stream.empty() ? "rtmp" : it->second.stream, now_,
      static_cast<double>(data.size()));
  if (bytes_in_ != nullptr) {
    bytes_in_->add(static_cast<double>(data.size()));
  }
  if (auto s = it->second.session->on_input(data); !s) return s;
  // A play command may have completed during this input.
  if (!was_playing && it->second.session->playing() &&
      it->second.stream.empty()) {
    attach_player(conn, it->second.session->stream_name());
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
  return it == streams_.end() ? 0 : it->second.players.size();
}

}  // namespace psc::service
