// The Fastly-like CDN edge as an HTTP server.
//
// HLS clients speak real HTTP to this: GET the master/media/VOD playlist,
// GET the MPEG-TS segments. A segment URL answers 404 until the packaged
// segment has actually reached the edge — which is exactly the freshness
// behaviour that bounds HLS delivery latency in Fig. 5.
#pragma once

#include <map>
#include <string>

#include "fault/plan.h"
#include "http/http.h"
#include "obs/bundle.h"
#include "service/load.h"
#include "service/pipeline.h"

namespace psc::service {

class CdnEdge {
 public:
  /// The edge answers 503 to every request while `faults` has an
  /// all-edges outage (the empty plan by default; per-edge outages are
  /// the client's to apply, since one CdnEdge serves both logical edges).
  /// The plan must outlive the edge.
  explicit CdnEdge(std::string host,
                   const fault::Plan& faults = fault::Plan::none())
      : plan_(faults), host_(std::move(host)) {}

  /// Make a broadcast's content available at /hls/<broadcast_id>/...
  /// The pipeline must outlive its registration.
  void attach(const std::string& broadcast_id,
              const LiveBroadcastPipeline* pipeline) {
    pipelines_[broadcast_id] = pipeline;
  }
  void detach(const std::string& broadcast_id) {
    pipelines_.erase(broadcast_id);
  }

  /// Serve one request at edge-local time `now`:
  ///   GET /hls/<id>/master.m3u8          — variant list
  ///   GET /hls/<id>/playlist.m3u8        — live media playlist (source)
  ///   GET /hls/<id>/r<k>/playlist.m3u8   — ladder rendition k
  ///   GET /hls/<id>/vod.m3u8             — replay playlist
  ///   GET /hls/<id>/seg_<n>.ts           — source segment
  ///   GET /hls/<id>/r<k>/seg_<n>.ts      — rendition segment
  http::Response handle(const http::Request& req, TimePoint now) const;

  const std::string& host() const { return host_; }

  /// Per-epoch account of the requests and media bytes this edge served,
  /// keyed by the edge's own host. handle() is logically const (serving a
  /// playlist does not change the edge), so the book is mutable.
  void set_load_epoch_length(Duration len) { ledger_.set_epoch_length(len); }
  const EpochLoadLedger& load_ledger() const { return ledger_; }

  /// Attach a metric sink (may be nullptr = off). Served requests are
  /// counted as hits; segment requests answered 404 because the segment
  /// has not reached the edge yet are the "freshness misses" that bound
  /// HLS delivery latency (Fig. 5), and are counted separately.
  void set_obs(obs::Obs* obs);

 private:
  const fault::Plan& plan_;
  std::string host_;
  std::map<std::string, const LiveBroadcastPipeline*, std::less<>>
      pipelines_;
  mutable EpochLoadLedger ledger_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
};

}  // namespace psc::service
