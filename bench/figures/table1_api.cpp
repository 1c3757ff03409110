// Table 1: the relevant Periscope API commands — exercises each request
// against the simulated service and prints the request/response contents.
#include "figure.h"
#include "json/json.h"

using namespace psc;

namespace {

void show(const char* name, const json::Value& req, const json::Value& resp,
          const char* note) {
  std::printf("\n/%s\n", name);
  std::printf("  request : %s\n", req.dump().substr(0, 100).c_str());
  std::string out = resp.dump();
  if (out.size() > 160) out = out.substr(0, 160) + "...";
  std::printf("  response: %s\n", out.c_str());
  std::printf("  paper   : %s\n", note);
}

}  // namespace

bench::FigureResult figures::table1_api(bench::Reporter&) {
  const core::StudyConfig cfg = bench::default_study_config();
  core::Study study(cfg, core::own_world(cfg, 1));
  study.sim().run_until(study.sim().now() + seconds(30));
  service::ApiServer& api = study.api();
  const TimePoint now = study.sim().now();

  // mapGeoBroadcastFeed
  json::Object feed_req;
  feed_req["cookie"] = "bench-account";
  feed_req["p_lat_min"] = 35.0;
  feed_req["p_lat_max"] = 60.0;
  feed_req["p_lng_min"] = -10.0;
  feed_req["p_lng_max"] = 30.0;
  feed_req["include_replay"] = false;
  const json::Value feed_req_v{std::move(feed_req)};
  const json::Value feed = api.call("mapGeoBroadcastFeed", feed_req_v, now);
  show("mapGeoBroadcastFeed", feed_req_v, feed,
       "coordinates of a rectangle -> list of broadcasts inside the area");

  // getBroadcasts
  json::Array ids;
  for (const json::Value& b : feed["broadcasts"].as_array()) {
    ids.push_back(b["id"]);
    if (ids.size() >= 3) break;
  }
  json::Object get_req;
  get_req["cookie"] = "bench-account";
  get_req["broadcast_ids"] = json::Value(std::move(ids));
  const json::Value get_req_v{std::move(get_req)};
  const json::Value got = api.call("getBroadcasts", get_req_v, now);
  show("getBroadcasts", get_req_v, got,
       "list of 13-character broadcast IDs -> descriptions incl. number "
       "of viewers");

  // accessVideo (used by the app when joining; decides RTMP vs HLS)
  json::Object acc_req;
  acc_req["cookie"] = "bench-account";
  if (!feed["broadcasts"].as_array().empty()) {
    acc_req["broadcast_id"] = feed["broadcasts"][std::size_t{0}]["id"];
  }
  const json::Value acc_req_v{std::move(acc_req)};
  const json::Value acc = api.call("accessVideo", acc_req_v, now);
  show("accessVideo", acc_req_v, acc,
       "(studied in §5) broadcast id -> playback endpoint; RTMP origin "
       "for normal broadcasts, HLS playlist URL for popular ones");

  // accessReplay (finished broadcasts kept for replay)
  json::Object rep_req;
  rep_req["cookie"] = "bench-account";
  rep_req["broadcast_id"] = "abcdefghijklm";
  const json::Value rep_req_v{std::move(rep_req)};
  const json::Value rep = api.call("accessReplay", rep_req_v, now);
  show("accessReplay", rep_req_v, rep,
       "(§3: 'a user can make broadcasts available also for later "
       "replay') ended broadcast id -> VOD playlist URL, or an error for "
       "the >80% of zero-viewer broadcasts not kept");

  // playbackMeta
  json::Object meta_req;
  meta_req["cookie"] = "bench-account";
  meta_req["broadcast_id"] = "abcdefghijklm";
  meta_req["stats"] = json::Value(json::Object{
      {"n_stalls", json::Value(1)},
      {"join_time_s", json::Value(0.8)},
      {"playback_latency_s", json::Value(2.4)}});
  const json::Value meta_req_v{std::move(meta_req)};
  const json::Value meta = api.call("playbackMeta", meta_req_v, now);
  show("playbackMeta", meta_req_v, meta,
       "playback statistics -> nothing (server-side collection)");

  // Rate limiting (the 429 behaviour both crawlers must pace around).
  std::printf("\nrate limiting: hammering one account...\n");
  int served = 0, throttled = 0;
  for (int i = 0; i < 40; ++i) {
    int status = 0;
    json::Object r;
    r["cookie"] = "hammer-account";
    (void)api.call("getBroadcasts", json::Value(std::move(r)), now, &status);
    (status == 429 ? throttled : served)++;
  }
  std::printf("  40 rapid requests -> %d served, %d x HTTP 429 "
              "(paper: 'too frequent requests will be answered with "
              "HTTP 429')\n",
              served, throttled);
  return {.values = {{"requests", 40 + 5}}};
}
