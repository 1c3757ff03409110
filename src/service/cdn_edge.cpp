#include "service/cdn_edge.h"

namespace psc::service {

void CdnEdge::set_obs(obs::Obs* obs) {
  if (obs == nullptr) {
    requests_ = hits_ = misses_ = nullptr;
    return;
  }
  requests_ = &obs->metrics.counter("cdn_requests_total");
  hits_ = &obs->metrics.counter("cdn_hits_total");
  misses_ = &obs->metrics.counter("cdn_misses_total");
}

http::Response CdnEdge::handle(const http::Request& req,
                               TimePoint now) const {
  // Every served response lands in the edge's per-epoch load account —
  // and in the metric sink when one is attached.
  const auto serve = [&](http::Response r) {
    ledger_.add_request(host_, now, static_cast<double>(r.body.size()));
    if (requests_ != nullptr) {
      requests_->add(1);
      (r.status == 200 ? hits_ : misses_)->add(1);
    }
    return r;
  };
  if (plan_.all_edges_down(now)) {
    // Injected edge outage: the PoP is up enough to answer, but broken.
    http::Response r;
    r.status = 503;
    r.reason = http::reason_for(503);
    return serve(std::move(r));
  }
  const auto path = hls::split_edge_path(req.path);
  if (req.method != "GET" || !path) return serve(http::Response::not_found());
  auto it = pipelines_.find(path->stream);
  if (it == pipelines_.end() ||
      path->rendition >= it->second->rendition_count()) {
    return serve(http::Response::not_found());
  }
  const LiveBroadcastPipeline& pipe = *it->second;
  const hls::EdgeLog& log = pipe.edge_log(path->rendition);
  const auto playlist = [&](const std::string& text) {
    return serve(http::Response::ok(to_bytes(text),
                                    "application/vnd.apple.mpegurl"));
  };
  if (path->leaf == "master.m3u8") return playlist(pipe.master_playlist());
  if (path->leaf == "playlist.m3u8") {
    return playlist(hls::write_m3u8(log.live(now)));
  }
  if (path->leaf == "vod.m3u8") return playlist(hls::write_m3u8(log.vod()));
  if (const auto seq = hls::parse_segment_leaf(path->leaf)) {
    if (const hls::EdgeSegment* seg = log.find(*seq, now)) {
      return serve(http::Response::ok(seg->segment.ts_data, "video/mp2t"));
    }
  }
  // Unknown, or not (yet) on this edge.
  return serve(http::Response::not_found());
}

}  // namespace psc::service
