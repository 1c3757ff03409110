// The Periscope API server (Table 1 of the paper).
//
// The app POSTs JSON to https://api.periscope.tv/api/v2/<apiRequest>.
// Implemented requests:
//   mapGeoBroadcastFeed — broadcasts inside a lat/lon rectangle (capped,
//                         which is why zooming in reveals more);
//   getBroadcasts       — descriptions incl. current viewer counts for a
//                         list of 13-char broadcast ids;
//   accessVideo         — where/how to watch: RTMP origin for normal
//                         broadcasts, HLS playlist URL once the viewer
//                         count crosses the fallback threshold (~100);
//   playbackMeta        — end-of-session playback statistics upload;
//   accessReplay        — VOD playlist URL for a finished broadcast the
//                         broadcaster kept available for replay;
//   rankedBroadcastFeed — the app's home list: ~80 ranked broadcasts
//                         plus a couple of featured ones (§3).
//
// Every request carries a "cookie" identifying the account; the rate
// limiter answers 429 per account, as the paper observed.
#pragma once

#include <vector>

#include "fault/plan.h"
#include "http/http.h"
#include "json/json.h"
#include "obs/bundle.h"
#include "service/rate_limiter.h"
#include "service/servers.h"
#include "service/world_view.h"

namespace psc::service {

class AggregateAudience;

struct ApiConfig {
  RateLimitConfig rate_limit;
  /// Concurrent-viewer count at which accessVideo switches to HLS.
  int hls_viewer_threshold = 100;
};

class ApiServer {
 public:
  /// The API only reads the world, so any WorldView works: the live
  /// World of an independent-worlds study, or a shared-world campaign's
  /// ReplayWorld. Every call() consults `faults` (the empty plan by
  /// default): an API error burst turns the response into a 503, a
  /// latency burst is recorded for the caller to apply. The plan must
  /// outlive the server.
  ApiServer(WorldView& world, MediaServerPool& servers, const ApiConfig& cfg,
            const fault::Plan& faults = fault::Plan::none());

  /// Handle a POST /api/v2/<name>. `now` is the (simulated) server time.
  http::Response handle(const http::Request& req, TimePoint now);

  /// Convenience for in-process calls (no HTTP framing).
  json::Value call(const std::string& api_request, const json::Value& body,
                   TimePoint now, int* status_out = nullptr);

  /// playbackMeta uploads received so far.
  const std::vector<json::Value>& playback_metas() const {
    return playback_metas_;
  }

  std::size_t requests_served() const { return served_; }
  std::size_t requests_throttled() const { return throttled_; }

  /// Attach a metric/trace sink (nullptr = off): per-endpoint request
  /// counters, 429 counter, response-size histogram, and one trace
  /// instant per request on the shard lane.
  void set_obs(obs::Obs* obs) { obs_ = obs; }

  /// Extra latency the fault plan injected into the most recent call()
  /// (the in-process call path has no transport to delay, so the caller
  /// applies it to the request's service time).
  Duration last_injected_latency() const { return last_injected_latency_; }

  /// Aggregate-audience overlay (hybrid-fidelity campaigns): the fluid
  /// audience's extra concurrent viewers on top of a broadcast's native
  /// count. Raises n_watching in responses and the accessVideo HLS
  /// switch — so a flash-crowded broadcast serves its cohort over HLS
  /// exactly as the real service sheds load — but never feeds back into
  /// the world process itself. nullptr = no fluid tier. The audience
  /// must outlive the server.
  void set_viewer_overlay(const AggregateAudience* audience) {
    overlay_ = audience;
  }

 private:
  /// Concurrent viewers the API reports: the broadcast's own curve plus
  /// the aggregate overlay when set.
  int watching_at(const BroadcastInfo& b, TimePoint now) const;
  json::Value describe(const BroadcastInfo& b, TimePoint now) const;
  json::Value handle_map_feed(const json::Value& body, TimePoint now);
  json::Value handle_get_broadcasts(const json::Value& body, TimePoint now);
  json::Value handle_access_video(const json::Value& body, TimePoint now);
  json::Value handle_access_replay(const json::Value& body, TimePoint now);
  json::Value handle_ranked_feed(TimePoint now);

  WorldView& world_;
  MediaServerPool& servers_;
  ApiConfig cfg_;
  obs::Obs* obs_ = nullptr;
  RateLimiter limiter_;
  const fault::Plan& plan_;
  const AggregateAudience* overlay_ = nullptr;
  Duration last_injected_latency_{0};
  std::vector<json::Value> playback_metas_;
  std::size_t served_ = 0;
  std::size_t throttled_ = 0;
  std::size_t access_counter_ = 0;
};

}  // namespace psc::service
