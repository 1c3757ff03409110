#include "gateway/gateway.h"

#include <string_view>
#include <utility>

#include "json/json.h"

namespace psc::gateway {

namespace {

constexpr const char* kContentTypeM3u8 = "application/vnd.apple.mpegurl";
constexpr const char* kContentTypeTs = "video/mp2t";
constexpr const char* kContentTypeJson = "application/json";
constexpr const char* kContentTypeText = "text/plain";

util::BufferSlice text_slice(std::string_view text) {
  return util::BufferSlice(to_bytes(text));
}

bool wants_close(const http::Request& req) {
  auto it = req.headers.find("Connection");
  if (it == req.headers.end()) it = req.headers.find("connection");
  return it != req.headers.end() && it->second == "close";
}

}  // namespace

Gateway::Gateway(const GatewayConfig& cfg, SimBridge::WallClock clock)
    : cfg_(cfg),
      bridge_(sim_, std::move(clock)),
      origin_(cfg.seed),
      store_(SegmentStoreConfig{cfg.segment_target, cfg.playlist_window,
                                cfg.retain_extra}),
      http_requests_(&metrics_.counter("gateway_http_requests_total")),
      segments_served_(&metrics_.counter("gateway_segments_served_total")),
      bytes_served_(&metrics_.counter("gateway_http_bytes_total")),
      rtmp_accepted_(&metrics_.counter("gateway_rtmp_connections_total")),
      http_accepted_(&metrics_.counter("gateway_http_connections_total")) {
  store_.set_arena(&arena_);
  store_.set_metrics(&metrics_);
  origin_.set_metrics(&metrics_);

  service::MediaOrigin::StreamHooks hooks;
  hooks.on_publish_start = [this](const std::string& stream, TimePoint now) {
    store_.on_publish_start(stream, now);
  };
  hooks.on_sample = [this](const std::string& stream,
                           const media::MediaSample& sample, TimePoint now) {
    store_.on_sample(stream, sample, now);
  };
  hooks.on_publish_end = [this](const std::string& stream, TimePoint now) {
    store_.on_publish_end(stream, now);
  };
  origin_.set_stream_hooks(std::move(hooks));

  if (cfg_.enable_api) {
    service::WorldConfig wcfg;
    wcfg.target_concurrent = cfg_.world_concurrent;
    world_ = std::make_unique<service::World>(sim_, wcfg, cfg_.seed);
    servers_ = std::make_unique<service::MediaServerPool>(cfg_.seed);
    api_ = std::make_unique<service::ApiServer>(*world_, *servers_,
                                                service::ApiConfig{});
    world_->start(/*prepopulate=*/true);
  }
}

Gateway::~Gateway() {
  // Tear sockets down while origin_/store_/the connection maps are still
  // alive: on_close handlers touch them.
  loop_.close_all();
  loop_.stop_listening();
}

Status Gateway::start() {
  ConnectionHandlers rtmp;
  rtmp.on_data = [this](Connection& c, BytesView d) { on_rtmp_data(c, d); };
  rtmp.on_close = [this](Connection& c) { on_rtmp_close(c); };
  auto rtmp_port = loop_.listen(cfg_.rtmp_port, std::move(rtmp),
                                [this](Connection& c) { on_rtmp_accept(c); });
  if (!rtmp_port.ok()) return rtmp_port.error();
  rtmp_port_ = rtmp_port.value();

  ConnectionHandlers http;
  http.on_data = [this](Connection& c, BytesView d) { on_http_data(c, d); };
  http.on_close = [this](Connection& c) { on_http_close(c); };
  auto http_port = loop_.listen(cfg_.http_port, std::move(http),
                                [this](Connection& c) { on_http_accept(c); });
  if (!http_port.ok()) return http_port.error();
  http_port_ = http_port.value();
  return Status::ok_status();
}

// ---- RTMP side ---------------------------------------------------------

void Gateway::on_rtmp_accept(Connection& c) {
  c.set_write_cap(cfg_.write_cap);
  const int id = origin_.open_connection();
  c.user_tag = static_cast<std::uint64_t>(id);
  rtmp_conns_[id] = &c;
  rtmp_accepted_->add();
}

void Gateway::on_rtmp_data(Connection& c, BytesView data) {
  const int id = static_cast<int>(c.user_tag);
  origin_.advance_to(bridge_.now());
  const Status s = origin_.on_input(id, data);
  if (!s.ok()) {
    metrics_.counter("gateway_rtmp_protocol_errors_total").add();
    pump_rtmp_output();  // let any error reply reach the wire first
    c.close_after_flush();
    c.close();
    return;
  }
  pump_rtmp_output();
}

void Gateway::pump_rtmp_output() {
  for (auto& [id, conn] : rtmp_conns_) {
    if (conn->closing()) continue;
    while (origin_.has_output(id)) {
      Bytes out = origin_.take_output(id);
      if (!conn->send(util::BufferSlice(std::move(out)))) break;
    }
  }
}

void Gateway::on_rtmp_close(Connection& c) {
  const int id = static_cast<int>(c.user_tag);
  origin_.advance_to(bridge_.now());
  origin_.close_connection(id);  // fires on_publish_end for publishers
  rtmp_conns_.erase(id);
}

// ---- HTTP side ---------------------------------------------------------

void Gateway::on_http_accept(Connection& c) {
  c.set_write_cap(cfg_.write_cap);
  http_conns_[c.id()].conn = &c;
  http_accepted_->add();
}

void Gateway::on_http_data(Connection& c, BytesView data) {
  auto it = http_conns_.find(c.id());
  if (it == http_conns_.end()) return;
  HttpConn& hc = it->second;
  if (hc.parser.failed()) return;  // already rejected; draining the close
  const Status s = hc.parser.push(data);
  for (http::Request& req : hc.parser.take_requests()) {
    handle_http(c, req);
    if (c.closing()) return;
  }
  if (!s.ok()) {
    metrics_.counter("gateway_http_parse_errors_total").add();
    send_response(c, 400, kContentTypeText,
                  text_slice("bad request\n"),
                  /*keep_alive=*/false);
  }
}

void Gateway::on_http_close(Connection& c) { http_conns_.erase(c.id()); }

void Gateway::handle_http(Connection& c, const http::Request& req) {
  http_requests_->add();
  const bool keep_alive = !wants_close(req);

  if (req.method == "POST" && req.path.rfind("/api/v2/", 0) == 0) {
    if (api_ == nullptr) {
      send_response(c, 404, kContentTypeText,
                    text_slice("api disabled\n"),
                    keep_alive);
      return;
    }
    http::Response resp = api_->handle(req, bridge_.now());
    auto ct = resp.headers.find("Content-Type");
    send_response(c, resp.status,
                  ct == resp.headers.end() ? kContentTypeJson : ct->second,
                  std::move(resp.body), keep_alive);
    return;
  }

  if (req.method != "GET") {
    send_response(c, 404, kContentTypeText,
                  text_slice("not found\n"),
                  keep_alive);
    return;
  }

  if (req.path == "/healthz") {
    send_response(c, 200, kContentTypeText,
                  text_slice("ok\n"), keep_alive);
    return;
  }
  if (req.path == "/metrics.json") {
    send_response(c, 200, kContentTypeJson,
                  text_slice(metrics_.to_json()),
                  keep_alive);
    return;
  }
  if (req.path == "/streams") {
    json::Array streams;
    for (const auto& [name, st] : store_.streams()) {
      streams.push_back(json::Object{{"name", name},
                                     {"segments", st.segments.size()},
                                     {"ended", st.segments.ended()}});
    }
    const json::Value body(json::Object{{"streams", std::move(streams)}});
    send_response(c, 200, kContentTypeJson, text_slice(body.dump()),
                  keep_alive);
    return;
  }

  // /hls/<stream>/{master.m3u8, media.m3u8, seg_<N>.ts}
  const auto path = hls::split_edge_path(req.path);
  const SegmentStore::Stream* st = path && path->rendition == 0
                                       ? store_.find_stream(path->stream)
                                       : nullptr;
  if (st != nullptr) {
    const TimePoint now = bridge_.now();
    if (path->leaf == "master.m3u8" || path->leaf == "media.m3u8") {
      const std::string text =
          path->leaf == "master.m3u8"
              ? hls::write_master_m3u8(
                    {{"media.m3u8", hls::kSourceBandwidthBps}})
              : hls::write_m3u8(st->segments.live(now));
      send_response(c, 200, kContentTypeM3u8, text_slice(text), keep_alive);
      return;
    }
    const auto seq = hls::parse_segment_leaf(path->leaf);
    if (const hls::EdgeSegment* seg =
            seq ? st->segments.find(*seq, now) : nullptr) {
      // Zero-copy: the response body is a refcount bump on the same
      // arena block the segmenter committed.
      segments_served_->add();
      send_response(c, 200, kContentTypeTs, seg->segment.ts_data,
                    keep_alive);
      return;
    }
  }

  send_response(c, 404, kContentTypeText,
                text_slice("not found\n"),
                keep_alive);
}

void Gateway::send_response(Connection& c, int status,
                            const std::string& content_type,
                            util::BufferSlice body, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     http::reason_for(status) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  bytes_served_->add(static_cast<double>(head.size() + body.size()));
  if (!c.send(util::BufferSlice(to_bytes(head)))) return;
  if (!body.empty() && !c.send(std::move(body))) return;
  if (!keep_alive) c.close_after_flush();
}

// ---- loop --------------------------------------------------------------

int Gateway::poll_once(int cap_ms) {
  if (cap_ms < 0) cap_ms = cfg_.poll_cap_ms;
  bridge_.advance();
  const int n = loop_.poll(bridge_.poll_timeout_ms(cap_ms));
  bridge_.advance();
  return n;
}

void Gateway::run(const std::function<bool()>& keep_running) {
  while (keep_running() && !shutdown_) poll_once();
  request_shutdown();
  const double drain_start = bridge_.wall_elapsed_s();
  while (!drained() && bridge_.wall_elapsed_s() - drain_start < 5.0) {
    poll_once(5);
  }
  loop_.close_all();
}

void Gateway::request_shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  loop_.stop_listening();
  bridge_.advance();
  // Flush in-flight segments before dropping publishers: the open partial
  // segment of every live stream commits whole (no torn TS output) and
  // the playlists gain ENDLIST.
  store_.flush_all(bridge_.now());
  for (auto& [id, conn] : rtmp_conns_) conn->close();
  for (auto& [id, hc] : http_conns_) {
    if (hc.conn->buffered() > 0) {
      hc.conn->close_after_flush();
    } else {
      hc.conn->close();
    }
  }
}

}  // namespace psc::gateway
