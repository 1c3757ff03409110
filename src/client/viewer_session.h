// One automated viewing session: the app "teleports" into a broadcast,
// watches for a fixed time (60 s in the paper) while tcpdump-style
// capture records the incoming media bytes, then reports playback
// statistics.
//
// ViewerSession is the core both protocols share: the player, uplink,
// capture, fault arming, give-up/finish and stats. RtmpViewerSession
// glues rtmp::ClientSession <-> simulated network <-> rtmp::ServerSession
// fed by the broadcast pipeline; HlsViewerSession polls the edge playlist
// and fetches MPEG-TS segments over HTTP.
//
// Both sessions run under a fault::Plan (the empty plan unless one is
// given): its radio episodes are armed on the session's access links,
// origin restarts drop the RTMP connection and edge outages 503 HLS
// requests. The RTMP client reconnects with capped exponential backoff +
// deterministic jitter; the HLS client refetches timed-out or 5xx'd
// segments with failover to the other edge when given a resilience
// policy, and otherwise drops a failed fetch (the next playlist poll
// moves past the hole). Both give up — ending the session in a defined
// state — once their retry budgets are exhausted. Under the empty plan
// nothing is armed, dropped or refused.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "client/device.h"
#include "client/player.h"
#include "fault/plan.h"
#include "http/http.h"
#include "obs/bundle.h"
#include "net/capture.h"
#include "rtmp/session.h"
#include "service/cdn_edge.h"
#include "service/pipeline.h"
#include "service/servers.h"

namespace psc::client {

enum class Protocol { Rtmp, Hls };

/// How a session ended: Completed = it played (or silently failed) to the
/// end of its watch time; GaveUp = its resilience policy exhausted the
/// retry budget and aborted. Every session terminates as one or the
/// other — retry ladders are bounded by construction.
enum class Outcome { Completed, GaveUp };

/// End-of-session statistics — what playbackMeta uploads plus what the
/// offline capture analysis needs.
struct SessionStats {
  Protocol protocol = Protocol::Rtmp;
  std::string broadcast_id;
  std::string device_model;
  std::string server_ip;
  std::string secondary_server_ip;  // HLS: the second CDN edge used
  std::string server_region;
  double distance_km = 0;   // viewer <-> broadcaster
  double avg_viewers = 0;

  bool ever_played = false;
  double join_time_s = 0;
  double played_s = 0;
  double stalled_s = 0;
  int stall_count = 0;
  double stall_ratio = 0;
  double playback_latency_s = 0;
  double reported_fps = 0;
  std::uint64_t bytes_received = 0;

  /// --- Hybrid-fidelity cohort (set by the Study when the aggregate
  /// audience tier is on; see service/aggregate_audience.h) ---
  /// This session is a sampled representative of the fluid audience.
  bool cohort = false;
  /// Statistical weight: one cohort session stands for this many
  /// aggregate viewers (1/sample_rate). 1 when the tier is off.
  double cohort_weight = 1;
  /// Aggregate (fluid) concurrent viewers of the broadcast when this
  /// session joined — the load context its QoE was measured under.
  double agg_viewers_at_join = 0;
  /// Previous-epoch merged average concurrency on this session's primary
  /// server when it started (what the load->latency penalty was read
  /// from).
  double server_load_at_join = 0;

  /// Resilience outcome (always Completed under the empty plan).
  Outcome outcome = Outcome::Completed;
  /// RTMP: successful reconnects after a dropped connection.
  int reconnects = 0;
  /// Retry attempts made (RTMP reconnect attempts / HLS refetches).
  int retries = 0;

  bool operator==(const SessionStats&) const = default;
};

/// The viewer-session core; RtmpViewerSession and HlsViewerSession are
/// protocol layers over it. Their hooks run once per session, never on
/// the per-sample or per-segment path.
class ViewerSession {
 public:
  virtual ~ViewerSession() = default;
  ViewerSession(const ViewerSession&) = delete;  // callbacks hold `this`
  ViewerSession& operator=(const ViewerSession&) = delete;

  /// Begin the session at the current sim time; ends after `watch_time`.
  void start(Duration watch_time);
  bool finished() const { return finished_; }
  SessionStats stats() const;
  const net::Capture& capture() const { return capture_; }
  /// Capture only arrival times and sizes, not the bytes (a tap still
  /// sees them). Call before start().
  void capture_records_only() { capture_.set_keep_bytes(false); }
  /// Hand each delivered record to `tap` as the capture takes it (see
  /// net::Capture::set_tap); retire() detaches it.
  void set_capture_tap(net::Capture::Tap tap) {
    capture_.set_tap(std::move(tap));
  }
  /// Stop and free bulk buffers (capture trace). The object must outlive
  /// any simulation events still referencing it; they become no-ops and
  /// record nothing.
  void retire();
  /// Earliest simulation time at which no scheduled event can still
  /// reference this object (poll chains, link deliveries and retry
  /// ladders are all bounded) — destroying it after this point is safe.
  TimePoint safe_destroy_at() const;

 protected:
  /// `server` is the uplink's far end (the origin, or edge A). `policy`
  /// (nullptr: the session never retries) bounds safe_destroy_at().
  ViewerSession(sim::Simulation& sim, service::LiveBroadcastPipeline& pipe,
                Device& device, const service::MediaServer& server,
                const PlayerConfig& player_cfg, std::uint64_t seed,
                obs::Obs* obs, const fault::Plan& faults, Protocol protocol,
                const fault::ResilienceConfig* policy);

  /// Hooks: open the protocol's traffic at the end of start(); react to
  /// the finish; the latest callback time of the protocol's own links and
  /// timers (retries aside); the stats fields only the protocol knows.
  virtual void begin() = 0;
  virtual void on_finish() {}
  virtual TimePoint layer_horizon() const = 0;
  virtual void layer_stats(SessionStats& st) const = 0;

  /// The retry budget is exhausted: end the session as GaveUp.
  void give_up();
  void finish();
  const char* label() const {
    return protocol_ == Protocol::Rtmp ? "rtmp" : "hls";
  }

  sim::Simulation& sim_;
  service::LiveBroadcastPipeline& pipe_;
  Device& device_;
  obs::Obs* obs_ = nullptr;
  const fault::Plan& plan_;
  net::Link up_link_;  // device -> origin / edge A
  net::Capture capture_;
  PlayerConfig player_cfg_;
  std::optional<Player> player_;
  TimePoint session_start_{};
  TimePoint stop_at_{};
  bool finished_ = false;
  bool retired_ = false;
  bool gave_up_ = false;
  /// Retry attempts made (RTMP reconnect attempts / HLS refetches).
  int retries_ = 0;
  std::uint64_t video_frames_ = 0;

 private:
  Protocol protocol_;
  Duration retry_horizon_;
  double max_decode_fps_;
};

class RtmpViewerSession : public ViewerSession {
 public:
  /// `extra_origin_latency` is added to the origin->device path latency —
  /// the shared-world campaign passes the origin's load penalty here.
  /// `faults` must outlive the session; a connection it drops reconnects
  /// on `policy`'s ladder.
  RtmpViewerSession(sim::Simulation& sim, service::LiveBroadcastPipeline& pipe,
                    Device& device, const service::MediaServer& origin,
                    const PlayerConfig& player_cfg, std::uint64_t seed,
                    Duration extra_origin_latency = Duration{0},
                    obs::Obs* obs = nullptr,
                    const fault::Plan& faults = fault::Plan::none(),
                    const fault::ResilienceConfig& policy = {});
  ~RtmpViewerSession() override;

 private:
  void begin() override;
  void on_finish() override;
  TimePoint layer_horizon() const override {
    return origin_link_.busy_until();
  }
  void layer_stats(SessionStats& st) const override;

  void make_connection();
  void pump();
  void drop_connection();
  void schedule_reconnect();
  void attempt_reconnect();
  void unsubscribe();

  const service::MediaServer& origin_;
  net::Link origin_link_;  // origin -> device access link
  std::unique_ptr<rtmp::ServerSession> server_;
  std::unique_ptr<rtmp::ClientSession> client_;
  fault::Backoff reconnect_backoff_;
  std::uint64_t seed_ = 0;
  /// Connection generation: bumped on every drop; in-flight deliveries
  /// from an older connection check it and become no-ops, so stale bytes
  /// can never corrupt a fresh handshake.
  std::uint64_t conn_gen_ = 0;
  int subscription_ = 0;  // origin attachment of this connection (0 = none)
  int reconnects_ = 0;
};

class HlsViewerSession : public ViewerSession {
 public:
  /// Live: follow the sliding playlist at the live edge.
  /// Replay: play a finished broadcast's VOD playlist from the start
  /// (the paper: "a user can make broadcasts available also for later
  /// replay"; replay power == live power in Fig. 8).
  enum class Mode { Live, Replay };

  /// `extra_a_latency`/`extra_b_latency` are added to the respective
  /// edge->device path latency (shared-world load penalties). `faults`
  /// must outlive the session, and so must `resilience` when set: the
  /// fetch timeout and retry ladder, or nullptr to drop failed fetches.
  HlsViewerSession(sim::Simulation& sim, service::LiveBroadcastPipeline& pipe,
                   Device& device, const service::MediaServer& edge_a,
                   const service::MediaServer& edge_b,
                   const PlayerConfig& player_cfg, std::uint64_t seed,
                   Mode mode = Mode::Live, bool adaptive = false,
                   Duration extra_a_latency = Duration{0},
                   Duration extra_b_latency = Duration{0},
                   obs::Obs* obs = nullptr,
                   const fault::Plan& faults = fault::Plan::none(),
                   const fault::ResilienceConfig* resilience = nullptr);
  ~HlsViewerSession() override;

  /// Playlist polls + segment GETs issued (request-rate ablations).
  std::uint64_t http_requests() const { return http_requests_; }

  /// --- ABR introspection (adaptive mode) ---
  /// Rendition index fetched for each segment, in fetch order.
  const std::vector<std::size_t>& fetched_renditions() const {
    return fetched_renditions_;
  }
  /// Number of up/down switches the rate adaptation made.
  std::size_t abr_switches() const;
  /// Current throughput estimate (EWMA over segment downloads), bits/s.
  double throughput_estimate_bps() const { return throughput_est_bps_; }

 private:
  /// Continuation of a playlist GET: the body of a 200 response, or an
  /// empty string when the edge answered anything else.
  using PlaylistFn = void (HlsViewerSession::*)(const std::string& body);

  void begin() override;
  void on_finish() override;
  TimePoint layer_horizon() const override {
    // The playlist poll chain stops within one poll interval of finish.
    return std::max({edge_a_link_.busy_until(), edge_b_link_.busy_until(),
                     stop_at_ + poll_interval_});
  }
  void layer_stats(SessionStats& st) const override;

  /// GET playlist `name` from edge A: uplink -> CdnEdge -> edge-A link ->
  /// downlink. The response bytes count as received; `then` runs on
  /// arrival unless the session has finished.
  void get_playlist(const char* name, PlaylistFn then);
  void on_master_playlist(const std::string& body);
  void on_media_playlist(const std::string& body);
  void poll_playlist();
  void maybe_fetch_next();
  /// Issue one segment GET: attempt 0 targets `edge_idx` = seq % 2,
  /// retries flip to the other edge.
  void issue_fetch(std::uint64_t seq, std::size_t rendition, int attempt,
                   int edge_idx);
  /// Forget fetch `fid` and cancel its timeout (response arrived or the
  /// fetch failed definitively).
  void settle_fetch(std::uint64_t fid);
  /// A fetch came back non-200 or timed out: retry with backoff on the
  /// other edge (resilience on) or drop it.
  void handle_fetch_failure(std::uint64_t seq, std::size_t rendition,
                            int attempt, int edge_idx);
  void on_segment(TimePoint t, const hls::EdgeSegment& seg,
                  util::BufferSlice body);
  /// ABR decision: rendition to fetch next, from the throughput estimate
  /// and the master playlist's advertised bandwidths.
  std::size_t pick_rendition() const;

  /// The lowest sequence this viewer may still request (its consumer
  /// mark on the pipeline): the oldest held sequence, else next_seq_;
  /// before the first playlist, the live window's start (pinned at the
  /// first one the edge serves) or 0 for a replay.
  std::uint64_t low_water() const;
  /// Hand low_water() to the pipeline, which may then evict.
  void publish_low_water();
  /// Sequence `seq` no longer holds an in-flight slot (delivered,
  /// abandoned, or dropped after the finish).
  void release_slot(std::uint64_t seq);
  /// Detach from the pipeline: nothing is fetched after the finish.
  void detach_consumer();

  /// Base path of this broadcast's content on the edges.
  std::string hls_base() const { return "/hls/" + pipe_.info().id + "/"; }

  const fault::ResilienceConfig* resilience_;
  service::CdnEdge edge_server_;  // HTTP frontend over the edge content
  net::Link edge_a_link_;  // edge A -> device
  net::Link edge_b_link_;  // edge B -> device
  bool started_fetching_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_known_seq_ = 0;
  Duration poll_interval_{3.6};
  std::uint64_t http_requests_ = 0;
  std::uint64_t playlist_bytes_ = 0;
  std::string edge_a_ip_;
  std::string edge_b_ip_;
  Mode mode_ = Mode::Live;
  bool adaptive_ = false;
  std::vector<double> variant_bandwidths_;  // per rendition, from master
  std::size_t current_rendition_ = 0;
  double throughput_est_bps_ = 0;
  std::vector<std::size_t> fetched_renditions_;
  bool playlist_ended_ = false;
  bool refetch_scheduled_ = false;
  int in_flight_ = 0;
  /// Sequences holding an in-flight slot: fetching or awaiting a retry.
  std::vector<std::uint64_t> held_;
  /// Consumer token on the pipeline's edge (0 = not attached).
  int consumer_ = 0;
  /// First sequence of the first non-empty live playlist the edge served
  /// this viewer; the viewer starts at or after it.
  std::optional<std::uint64_t> served_window_first_;
  /// Fetches awaiting a response: fetch id -> its timeout (empty without
  /// a resilience policy). A settled fetch (delivered, failed or timed
  /// out) is missing, and any late event for it is a no-op.
  std::map<std::uint64_t, sim::EventHandle> live_fetches_;
  std::uint64_t fetch_counter_ = 0;
  int consecutive_failures_ = 0;
  Rng rng_;
};

}  // namespace psc::client
