#include "service/cdn_edge.h"

#include <cstdlib>

#include "util/strings.h"

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
  if (req.method != "GET" || !starts_with(req.path, "/hls/")) {
    return serve(http::Response::not_found());
  }
  // /hls/<id>/<rest>
  const std::string after = req.path.substr(5);
  const std::size_t slash = after.find('/');
  if (slash == std::string::npos) return serve(http::Response::not_found());
  const std::string id = after.substr(0, slash);
  const std::string rest = after.substr(slash + 1);

  auto it = pipelines_.find(id);
  if (it == pipelines_.end()) return serve(http::Response::not_found());
  const LiveBroadcastPipeline& pipe = *it->second;

  // Rendition prefix "r<k>/".
  std::size_t rendition = 0;
  std::string leaf = rest;
  if (!leaf.empty() && leaf[0] == 'r') {
    const std::size_t rs = leaf.find('/');
    if (rs != std::string::npos) {
      const long k = std::strtol(leaf.c_str() + 1, nullptr, 10);
      if (k > 0 && static_cast<std::size_t>(k) < pipe.rendition_count()) {
        rendition = static_cast<std::size_t>(k);
        leaf = leaf.substr(rs + 1);
      }
    }
  }

  if (leaf == "master.m3u8") {
    return serve(http::Response::ok(to_bytes(pipe.master_playlist()),
                                    "application/vnd.apple.mpegurl"));
  }
  if (leaf == "playlist.m3u8") {
    return serve(http::Response::ok(
        to_bytes(hls::write_m3u8(pipe.edge_playlist(now, rendition))),
        "application/vnd.apple.mpegurl"));
  }
  if (leaf == "vod.m3u8") {
    return serve(http::Response::ok(
        to_bytes(hls::write_m3u8(pipe.vod_playlist(rendition))),
        "application/vnd.apple.mpegurl"));
  }
  if (starts_with(leaf, "seg_")) {
    // Resolve through the pipeline's URI scheme (handles renditions).
    const std::string uri =
        rendition == 0 ? leaf : strf("r%zu/%s", rendition, leaf.c_str());
    const LiveBroadcastPipeline::EdgeSegment* seg = pipe.find_segment(uri);
    if (seg == nullptr || seg->available_at > now) {
      // Not (yet) on this edge.
      return serve(http::Response::not_found());
    }
    return serve(http::Response::ok(seg->segment.ts_data, "video/mp2t"));
  }
  return serve(http::Response::not_found());
}

}  // namespace psc::service
