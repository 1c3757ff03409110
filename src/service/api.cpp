#include "service/api.h"

#include <cmath>

#include "service/aggregate_audience.h"
#include "util/strings.h"

namespace psc::service {

ApiServer::ApiServer(WorldView& world, MediaServerPool& servers,
                     const ApiConfig& cfg, const fault::Plan& faults)
    : world_(world), servers_(servers), cfg_(cfg),
      limiter_(cfg.rate_limit), plan_(faults) {}

int ApiServer::watching_at(const BroadcastInfo& b, TimePoint now) const {
  int watching = b.viewers_at(now);
  if (overlay_ != nullptr) {
    watching +=
        static_cast<int>(std::lround(overlay_->extra_viewers_at(b, now)));
  }
  return watching;
}

json::Value ApiServer::describe(const BroadcastInfo& b, TimePoint now) const {
  json::Object o;
  o["id"] = b.id;
  o["state"] = b.live_at(now) ? "RUNNING" : "ENDED";
  o["status"] = b.status_text;
  // The map shows approximate coordinates.
  o["ip_lat"] = std::round(b.location.lat_deg * 100) / 100;
  o["ip_lng"] = std::round(b.location.lon_deg * 100) / 100;
  o["start"] = to_s(b.start_time);
  o["n_watching"] = watching_at(b, now);
  o["available_for_replay"] = b.available_for_replay;
  return json::Value(std::move(o));
}

json::Value ApiServer::handle_map_feed(const json::Value& body,
                                       TimePoint now) {
  geo::GeoRect rect;
  rect.lat_min = body["p_lat_min"].as_number(-90);
  rect.lat_max = body["p_lat_max"].as_number(90);
  rect.lon_min = body["p_lng_min"].as_number(-180);
  rect.lon_max = body["p_lng_max"].as_number(180);
  const bool include_replay = body["include_replay"].as_bool(false);

  json::Array broadcasts;
  for (const BroadcastInfo* b : world_.query_rect(rect, include_replay)) {
    broadcasts.push_back(describe(*b, now));
  }
  json::Object resp;
  resp["broadcasts"] = json::Value(std::move(broadcasts));
  return json::Value(std::move(resp));
}

json::Value ApiServer::handle_get_broadcasts(const json::Value& body,
                                             TimePoint now) {
  json::Array out;
  for (const json::Value& idv : body["broadcast_ids"].as_array()) {
    const BroadcastInfo* b = world_.find(idv.as_string());
    if (b != nullptr) out.push_back(describe(*b, now));
  }
  json::Object resp;
  resp["broadcasts"] = json::Value(std::move(out));
  return json::Value(std::move(resp));
}

json::Value ApiServer::handle_access_video(const json::Value& body,
                                           TimePoint now) {
  json::Object resp;
  const BroadcastInfo* b = world_.find(body["broadcast_id"].as_string());
  if (b == nullptr || !b->live_at(now)) {
    resp["error"] = "broadcast not available";
    return json::Value(std::move(resp));
  }
  // Public streams go over plaintext RTMP (port 80) / HTTP; private
  // broadcasts are encrypted end to end: RTMPS and HTTPS for HLS (§3).
  const int watching = watching_at(*b, now);
  if (watching >= cfg_.hls_viewer_threshold) {
    const MediaServer& edge = servers_.hls_edge_for(access_counter_++);
    resp["protocol"] = "hls";
    resp["hls_url"] =
        strf("%s://%s/hls/%s/playlist.m3u8",
             b->is_private ? "https" : "http", edge.hostname.c_str(),
             b->id.c_str());
    resp["encrypted"] = b->is_private;
    resp["edge_ip"] = edge.ip;
  } else {
    const MediaServer& origin =
        servers_.rtmp_origin_for(b->location, b->id);
    resp["protocol"] = "rtmp";
    resp["rtmp_url"] = strf("%s://%s:%d/live/%s",
                            b->is_private ? "rtmps" : "rtmp",
                            origin.ip.c_str(), b->is_private ? 443 : 80,
                            b->id.c_str());
    resp["encrypted"] = b->is_private;
    resp["server_ip"] = origin.ip;
    resp["server_region"] = origin.region;
  }
  resp["n_watching"] = watching;
  return json::Value(std::move(resp));
}

json::Value ApiServer::handle_access_replay(const json::Value& body,
                                            TimePoint now) {
  json::Object resp;
  const BroadcastInfo* b = world_.find(body["broadcast_id"].as_string());
  if (b == nullptr) {
    resp["error"] = "broadcast not found";
    return json::Value(std::move(resp));
  }
  if (b->live_at(now)) {
    resp["error"] = "broadcast still live";
    return json::Value(std::move(resp));
  }
  if (!b->available_for_replay) {
    // The common case for never-watched broadcasts: >80% of them were
    // unavailable for replay in the paper's dataset.
    resp["error"] = "replay not available";
    return json::Value(std::move(resp));
  }
  const MediaServer& edge = servers_.hls_edge_for(access_counter_++);
  resp["protocol"] = "hls";
  resp["replay_url"] =
      strf("%s://%s/hls/%s/vod.m3u8", b->is_private ? "https" : "http",
           edge.hostname.c_str(), b->id.c_str());
  resp["encrypted"] = b->is_private;
  resp["edge_ip"] = edge.ip;
  return json::Value(std::move(resp));
}

json::Value ApiServer::handle_ranked_feed(TimePoint now) {
  // The home screen: ~80 broadcasts ranked by viewers plus a couple of
  // "featured" picks. Ranking reuses the world's viewer-sorted query at
  // world scope (featured = the global top picks regardless of region).
  auto hits = world_.query_rect(geo::GeoRect::world());
  json::Array featured, ranked;
  std::size_t i = 0;
  for (const BroadcastInfo* b : hits) {
    if (i < 2) {
      featured.push_back(describe(*b, now));
    } else if (ranked.size() < 80) {
      ranked.push_back(describe(*b, now));
    }
    ++i;
  }
  json::Object resp;
  resp["featured"] = json::Value(std::move(featured));
  resp["broadcasts"] = json::Value(std::move(ranked));
  return json::Value(std::move(resp));
}

json::Value ApiServer::call(const std::string& api_request,
                            const json::Value& body, TimePoint now,
                            int* status_out) {
  const fault::ApiFault f = plan_.api_at(now);
  last_injected_latency_ = f.extra_latency;
  if (f.status != 0) {
    if (obs_ != nullptr) {
      obs_->metrics.counter("api_faulted_total").add(1);
      obs_->trace.instant("fault",
                          strf("api %d %s", f.status, api_request.c_str()),
                          now);
    }
    if (status_out != nullptr) *status_out = f.status;
    return json::Value(
        json::Object{{"error", json::Value("service unavailable")}});
  }
  const std::string account = body["cookie"].as_string();
  if (!limiter_.allow(account.empty() ? "anonymous" : account, now)) {
    ++throttled_;
    if (obs_ != nullptr) {
      obs_->metrics.counter("api_throttled_total").add(1);
      obs_->trace.instant("service", "429 " + api_request, now);
    }
    if (status_out != nullptr) *status_out = 429;
    return json::Value(json::Object{{"error", json::Value("rate limited")}});
  }
  ++served_;
  if (obs_ != nullptr) {
    obs_->metrics
        .counter("api_requests_total{api=\"" + api_request + "\"}")
        .add(1);
    obs_->trace.instant("service", "api " + api_request, now);
  }
  if (status_out != nullptr) *status_out = 200;
  if (api_request == "mapGeoBroadcastFeed") {
    return handle_map_feed(body, now);
  }
  if (api_request == "getBroadcasts") {
    return handle_get_broadcasts(body, now);
  }
  if (api_request == "accessVideo") {
    return handle_access_video(body, now);
  }
  if (api_request == "accessReplay") {
    return handle_access_replay(body, now);
  }
  if (api_request == "rankedBroadcastFeed") {
    return handle_ranked_feed(now);
  }
  if (api_request == "playbackMeta") {
    playback_metas_.push_back(body);
    return json::Value(json::Object{});
  }
  if (status_out != nullptr) *status_out = 404;
  return json::Value(
      json::Object{{"error", json::Value("unknown api request")}});
}

http::Response ApiServer::handle(const http::Request& req, TimePoint now) {
  static constexpr std::string_view kPrefix = "/api/v2/";
  if (req.method != "POST" || !starts_with(req.path, kPrefix)) {
    return http::Response::not_found();
  }
  const std::string api_request = req.path.substr(kPrefix.size());
  auto body = json::parse(req.body);
  if (!body) {
    http::Response r;
    r.status = 500;
    r.reason = http::reason_for(500);
    return r;
  }
  int status = 200;
  const json::Value out = call(api_request, body.value(), now, &status);
  if (status == 429) return http::Response::too_many_requests();
  if (status == 404) return http::Response::not_found();
  http::Response resp = http::Response::json(out.dump());
  if (obs_ != nullptr) {
    obs_->metrics.histogram("api_response_bytes")
        .record(static_cast<double>(resp.body.size()));
  }
  return resp;
}

}  // namespace psc::service
