#include "client/viewer_session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hls/edge_log.h"
#include "util/strings.h"

namespace psc::client {

namespace {

/// One-way network latency between two points: speed-of-light-in-fiber
/// plus a fixed routing/processing overhead.
Duration path_latency(const geo::GeoPoint& a, const geo::GeoPoint& b) {
  const double km = geo::distance_km(a, b);
  return millis(10) + seconds(km / 200000.0);
}

constexpr BitRate kOriginEgressRate = 400e6;  // per-connection server side
constexpr double kVideoFps = 30.0;

/// Least retry slack safe_destroy_at() allows: every ladder of the
/// default policy fits under it; only a larger policy raises it.
constexpr Duration kMinRetrySlack = seconds(15);

/// How long after the finish an event of `policy` can still fire: RTMP
/// schedules reconnects until the finish, each one capped delay out; an
/// HLS fetch issued by then arms a timeout and at most one refetch delay.
Duration retry_horizon(Protocol protocol,
                       const fault::ResilienceConfig* policy) {
  if (policy == nullptr) return Duration{0};
  // The longest single delay of a ladder: its cap at full jitter.
  const auto longest = [](const fault::BackoffConfig& c) {
    return c.max * (1.0 + std::max(0.0, c.jitter));
  };
  return protocol == Protocol::Rtmp
             ? longest(policy->rtmp_reconnect)
             : longest(policy->hls_retry) + policy->hls_fetch_timeout;
}

}  // namespace

// ---------------- Core ----------------

ViewerSession::ViewerSession(sim::Simulation& sim,
                             service::LiveBroadcastPipeline& pipe,
                             Device& device,
                             const service::MediaServer& server,
                             const PlayerConfig& player_cfg,
                             std::uint64_t seed, obs::Obs* obs,
                             const fault::Plan& faults, Protocol protocol,
                             const fault::ResilienceConfig* policy)
    : sim_(sim),
      pipe_(pipe),
      device_(device),
      obs_(obs),
      plan_(faults),
      up_link_(sim, device.config().up_rate,
               path_latency(device.config().location, server.location)),
      player_cfg_(player_cfg),
      protocol_(protocol),
      retry_horizon_(retry_horizon(protocol, policy)),
      max_decode_fps_(device.config().max_decode_fps *
                      Rng(seed).uniform(0.94, 1.0)) {}

void ViewerSession::start(Duration watch_time) {
  session_start_ = sim_.now();
  stop_at_ = session_start_ + watch_time;
  player_.emplace(player_cfg_, session_start_, pipe_.epoch_s(), obs_,
                  label());
  sim_.schedule_at(stop_at_, [this] { finish(); });
  fault::arm_access_link(sim_, up_link_, plan_, session_start_, stop_at_);
  fault::arm_access_link(sim_, device_.downlink(), plan_, session_start_,
                         stop_at_);
  begin();
}

void ViewerSession::give_up() {
  if (finished_) return;
  gave_up_ = true;
  if (obs_ != nullptr) {
    obs_->metrics.counter("sessions_gave_up_total").add(1);
    obs_->trace.instant("fault", std::string(label()) + " give up",
                        sim_.now());
    obs_->log.log(obs::EventKind::GaveUp, to_s(sim_.now()), 0, 0, label());
  }
  finish();
}

void ViewerSession::finish() {
  if (finished_) return;
  if (player_) player_->finish(sim_.now());
  finished_ = true;
  on_finish();
}

void ViewerSession::retire() {
  finish();
  retired_ = true;
  capture_.clear();
}

TimePoint ViewerSession::safe_destroy_at() const {
  // In-flight deliveries are bounded by the link busy horizons; the last
  // event the session schedules itself is a retry ladder's, at most
  // retry_horizon_ past the finish.
  const TimePoint t =
      std::max({layer_horizon(), up_link_.busy_until(),
                device_.downlink().busy_until(), stop_at_});
  return t + std::max(kMinRetrySlack, retry_horizon_);
}

SessionStats ViewerSession::stats() const {
  SessionStats st;
  st.protocol = protocol_;
  st.broadcast_id = pipe_.info().id;
  st.device_model = device_.config().model;
  st.distance_km =
      geo::distance_km(device_.config().location, pipe_.info().location);
  st.avg_viewers = pipe_.info().average_viewers();
  st.bytes_received = capture_.total_bytes();
  st.outcome = gave_up_ ? Outcome::GaveUp : Outcome::Completed;
  st.retries = retries_;
  layer_stats(st);
  if (player_) {
    st.ever_played = player_->ever_played();
    st.join_time_s = to_s(player_->join_time());
    st.played_s = to_s(player_->played());
    st.stalled_s = to_s(player_->stalled());
    st.stall_count = player_->stall_count();
    st.stall_ratio = player_->stall_ratio();
    st.playback_latency_s = player_->mean_playback_latency_s();
    const double measured_fps =
        st.played_s > 0 ? static_cast<double>(video_frames_) / st.played_s
                        : 0;
    st.reported_fps = std::min(measured_fps, max_decode_fps_);
  }
  return st;
}

// ---------------- RTMP ----------------

RtmpViewerSession::RtmpViewerSession(sim::Simulation& sim,
                                     service::LiveBroadcastPipeline& pipe,
                                     Device& device,
                                     const service::MediaServer& origin,
                                     const PlayerConfig& player_cfg,
                                     std::uint64_t seed,
                                     Duration extra_origin_latency,
                                     obs::Obs* obs,
                                     const fault::Plan& faults,
                                     const fault::ResilienceConfig& policy)
    : ViewerSession(sim, pipe, device, origin, player_cfg, seed, obs, faults,
                    Protocol::Rtmp, &policy),
      origin_(origin),
      origin_link_(sim, kOriginEgressRate,
                   path_latency(origin.location, device.config().location) +
                       extra_origin_latency),
      reconnect_backoff_(policy.rtmp_reconnect, Rng(seed ^ 0xFA017u)),
      seed_(seed) {
  make_connection();
}

RtmpViewerSession::~RtmpViewerSession() { unsubscribe(); }

void RtmpViewerSession::unsubscribe() {
  if (subscription_ != 0) {
    pipe_.origin().detach(std::exchange(subscription_, 0));
  }
}

void RtmpViewerSession::make_connection() {
  // Each reconnect gets a fresh handshake jitter stream, fully determined
  // by (seed, generation); generation 0 mixes in nothing.
  const std::uint64_t mix = 0x9E3779B97F4A7C15ull * conn_gen_;
  server_ =
      std::make_unique<rtmp::ServerSession>((seed_ ^ 0x5EED) ^ mix);
  rtmp::ClientSession::Callbacks cbs;
  cbs.on_sample = [this](media::MediaSample s) {
    if (finished_ || !player_) return;
    if (s.kind != media::SampleKind::Video) return;
    ++video_frames_;
    player_->on_media(sim_.now(), s.pts, s.pts + seconds(1.0 / kVideoFps));
  };
  client_ = std::make_unique<rtmp::ClientSession>(
      "live", pipe_.info().id, seed_ ^ mix, std::move(cbs));
}

void RtmpViewerSession::begin() {
  // An origin restart resets the TCP connection at the episode start;
  // the client notices and runs its reconnect ladder.
  for (const fault::Episode& e : plan_.episodes()) {
    if (e.kind != fault::Kind::OriginRestart) continue;
    if (e.end() <= session_start_ || e.start >= stop_at_) continue;
    sim_.schedule_at(std::max(session_start_, e.start),
                     [this] { drop_connection(); });
  }
  pump();
}

void RtmpViewerSession::pump() {
  if (finished_) return;
  if (client_->has_output()) {
    up_link_.send(client_->take_output(),
                  [this, gen = conn_gen_](TimePoint, util::BufferSlice data) {
      if (finished_ || gen != conn_gen_) return;
      (void)server_->on_input(data);
      // Play accepted: take the origin's join burst and go live.
      if (server_->playing() && subscription_ == 0) {
        subscription_ = pipe_.origin().attach(
            *server_, [this](const media::MediaSample&) { pump(); });
      }
      pump();
    });
  }
  if (server_->has_output()) {
    origin_link_.send(server_->take_output(),
                      [this, gen = conn_gen_](TimePoint,
                                              util::BufferSlice data) {
      device_.downlink().send(std::move(data),
                              [this, gen](TimePoint t,
                                          util::BufferSlice d) {
                                // Bytes reach the device after the
                                // finish, but not the cleared capture
                                // of a retired session.
                                if (!retired_) capture_.record(t, d);
                                if (finished_ || gen != conn_gen_) return;
                                (void)client_->on_input(d);
                                pump();
                              });
    });
  }
}

void RtmpViewerSession::drop_connection() {
  if (finished_) return;
  // Invalidate every in-flight delivery of the old connection; the bytes
  // still cross the (simulated) wire but land in a closed socket.
  ++conn_gen_;
  unsubscribe();
  if (obs_ != nullptr) {
    obs_->metrics.counter("rtmp_disconnects_total").add(1);
    obs_->trace.instant("fault", "rtmp disconnect", sim_.now());
  }
  schedule_reconnect();
}

void RtmpViewerSession::schedule_reconnect() {
  if (finished_) return;
  if (reconnect_backoff_.exhausted()) {
    give_up();
    return;
  }
  ++retries_;
  if (obs_ != nullptr) {
    obs_->log.log(obs::EventKind::Retry, to_s(sim_.now()),
                  static_cast<double>(retries_), 0, "rtmp");
  }
  const Duration delay = reconnect_backoff_.next();
  sim_.schedule_after(delay, [this, gen = conn_gen_] {
    // A newer drop supersedes this attempt (its own ladder is running).
    if (finished_ || gen != conn_gen_) return;
    attempt_reconnect();
  });
}

void RtmpViewerSession::attempt_reconnect() {
  if (plan_.origin_restarting(sim_.now())) {
    // Still down: connection refused, keep climbing the ladder.
    schedule_reconnect();
    return;
  }
  ++reconnects_;
  reconnect_backoff_.reset();
  if (obs_ != nullptr) {
    obs_->metrics.counter("rtmp_reconnects_total").add(1);
    obs_->trace.instant("fault", "rtmp reconnect", sim_.now());
    obs_->log.log(obs::EventKind::Reconnect, to_s(sim_.now()),
                  static_cast<double>(reconnects_));
  }
  make_connection();
  pump();
}

void RtmpViewerSession::on_finish() {
  // Nothing reads the connection after the finish: free its buffers.
  unsubscribe();
  server_->discard_buffers();
  client_->discard_buffers();
}

void RtmpViewerSession::layer_stats(SessionStats& st) const {
  st.server_ip = origin_.ip;
  st.server_region = origin_.region;
  st.reconnects = reconnects_;
}

// ---------------- HLS ----------------

HlsViewerSession::HlsViewerSession(sim::Simulation& sim,
                                   service::LiveBroadcastPipeline& pipe,
                                   Device& device,
                                   const service::MediaServer& edge_a,
                                   const service::MediaServer& edge_b,
                                   const PlayerConfig& player_cfg,
                                   std::uint64_t seed, Mode mode,
                                   bool adaptive, Duration extra_a_latency,
                                   Duration extra_b_latency, obs::Obs* obs,
                                   const fault::Plan& faults,
                                   const fault::ResilienceConfig* resilience)
    : ViewerSession(sim, pipe, device, edge_a, player_cfg, seed, obs, faults,
                    Protocol::Hls, resilience),
      resilience_(resilience),
      edge_server_("fastly.periscope.tv", faults),
      edge_a_link_(sim, 400e6,
                   path_latency(edge_a.location, device.config().location) +
                       extra_a_latency),
      edge_b_link_(sim, 400e6,
                   path_latency(edge_b.location, device.config().location) +
                       extra_b_latency),
      edge_a_ip_(edge_a.ip),
      edge_b_ip_(edge_b.ip),
      mode_(mode),
      adaptive_(adaptive),
      rng_(seed) {
  edge_server_.set_obs(obs_);
  edge_server_.attach(pipe.info().id, &pipe);
}

HlsViewerSession::~HlsViewerSession() { detach_consumer(); }

void HlsViewerSession::detach_consumer() {
  if (consumer_ != 0) pipe_.detach_consumer(std::exchange(consumer_, 0));
}

void HlsViewerSession::on_finish() { detach_consumer(); }

std::uint64_t HlsViewerSession::low_water() const {
  if (!started_fetching_) {
    if (mode_ == Mode::Replay) return 0;
    return served_window_first_.value_or(
        service::LiveBroadcastPipeline::kLiveWindow);
  }
  // Held sequences were all taken from next_seq_, so lie below it.
  return held_.empty() ? next_seq_
                       : *std::min_element(held_.begin(), held_.end());
}

void HlsViewerSession::publish_low_water() {
  if (consumer_ != 0) pipe_.advance_consumer(consumer_, low_water());
}

void HlsViewerSession::release_slot(std::uint64_t seq) {
  --in_flight_;
  held_.erase(std::find(held_.begin(), held_.end(), seq));
  publish_low_water();
}

void HlsViewerSession::begin() {
  consumer_ = pipe_.attach_consumer(low_water());
  if (adaptive_ && pipe_.rendition_count() > 1) {
    // Fetch the master playlist first, then poll the media playlist.
    get_playlist("master.m3u8", &HlsViewerSession::on_master_playlist);
  } else {
    poll_playlist();
  }
}

void HlsViewerSession::get_playlist(const char* name, PlaylistFn then) {
  // A real GET rides the uplink to the edge; the response is the M3U8.
  http::Request req;
  req.path = hls_base() + name;
  const std::size_t req_size = req.serialize().size();
  up_link_.send(req_size, [this, path = std::move(req.path), then](
                              TimePoint t_edge, util::BufferSlice) mutable {
    if (finished_) return;
    http::Request get;
    get.path = std::move(path);
    const http::Response resp = edge_server_.handle(get, t_edge);
    if (then == &HlsViewerSession::on_media_playlist &&
        mode_ == Mode::Live && !served_window_first_) {
      // The first playlist this viewer can start from, whenever it
      // arrives: no segment from its window on may be evicted.
      const hls::EdgeLog& log = pipe_.edge_log();
      if (log.servable(t_edge) > 0) {
        served_window_first_ = log.window_first_sequence(t_edge);
        publish_low_water();
      }
    }
    edge_a_link_.send(resp.serialize(),
                      [this, then](TimePoint, util::BufferSlice data) {
      device_.downlink().send(std::move(data),
                              [this, then](TimePoint, util::BufferSlice d) {
        if (finished_) return;
        playlist_bytes_ += d.size();
        auto parsed = http::Response::parse_slice(d);
        const bool ok = parsed && parsed.value().status == 200;
        (this->*then)(ok ? to_string(parsed.value().body) : std::string());
      });
    });
  });
  ++http_requests_;
}

void HlsViewerSession::on_master_playlist(const std::string& body) {
  // Start at the lowest rendition and let the throughput estimator ramp
  // up. A failed fetch leaves no variants known, so ABR stays on the
  // source rendition; the session polls the media playlist either way.
  if (auto variants = hls::parse_master_m3u8(body)) {
    variant_bandwidths_.clear();
    for (const hls::VariantRef& v : variants.value()) {
      variant_bandwidths_.push_back(v.bandwidth_bps);
    }
    current_rendition_ = static_cast<std::size_t>(
        std::min_element(variant_bandwidths_.begin(),
                         variant_bandwidths_.end()) -
        variant_bandwidths_.begin());
  }
  poll_playlist();
}

std::size_t HlsViewerSession::pick_rendition() const {
  if (variant_bandwidths_.size() < 2 || throughput_est_bps_ <= 0) {
    return current_rendition_;
  }
  // Highest rendition whose advertised bandwidth fits in ~70% of the
  // estimated throughput; fall back to the lowest.
  std::size_t best = 0;
  double best_bw = -1;
  std::size_t lowest = 0;
  for (std::size_t i = 0; i < variant_bandwidths_.size(); ++i) {
    if (variant_bandwidths_[i] < variant_bandwidths_[lowest]) lowest = i;
    if (variant_bandwidths_[i] <= 0.7 * throughput_est_bps_ &&
        variant_bandwidths_[i] > best_bw) {
      best = i;
      best_bw = variant_bandwidths_[i];
    }
  }
  return best_bw < 0 ? lowest : best;
}

std::size_t HlsViewerSession::abr_switches() const {
  std::size_t switches = 0;
  for (std::size_t i = 1; i < fetched_renditions_.size(); ++i) {
    if (fetched_renditions_[i] != fetched_renditions_[i - 1]) ++switches;
  }
  return switches;
}

void HlsViewerSession::poll_playlist() {
  if (finished_) return;
  get_playlist(mode_ == Mode::Replay ? "vod.m3u8" : "playlist.m3u8",
               &HlsViewerSession::on_media_playlist);
  // Reload cadence per the HLS spec: once per target segment duration.
  // A VOD playlist (#EXT-X-ENDLIST) is never reloaded.
  if (!playlist_ended_) {
    sim_.schedule_after(poll_interval_, [this] { poll_playlist(); });
  }
}

void HlsViewerSession::on_media_playlist(const std::string& body) {
  auto pl = hls::parse_m3u8(body);
  if (!pl || pl.value().segments.empty()) return;
  // Reload cadence follows the advertised target duration.
  if (to_s(pl.value().target_duration) >= 1.0) {
    poll_interval_ = pl.value().target_duration;
  }
  const auto& segs = pl.value().segments;
  playlist_ended_ = pl.value().ended;
  if (!started_fetching_) {
    if (mode_ == Mode::Replay) {
      // Replay plays from the beginning of the recording.
      next_seq_ = segs.front().sequence;
    } else {
      // Live-edge start: a few segments back, per HLS convention.
      const std::uint64_t last = segs.back().sequence;
      const std::uint64_t first = segs.front().sequence;
      next_seq_ = last >= first + 2 ? last - 2 : first;
    }
    started_fetching_ = true;
  }
  last_known_seq_ = segs.back().sequence;
  maybe_fetch_next();
}

void HlsViewerSession::maybe_fetch_next() {
  if (finished_ || !started_fetching_) return;
  // Replay paces itself like a real VOD player: keep ~20 s buffered,
  // don't slurp the whole recording (this is also why Fig. 8 found
  // replay power equal to live — the radio duty cycle is the same).
  if (mode_ == Mode::Replay && player_ &&
      player_->buffered_at(sim_.now()) > seconds(20)) {
    if (!refetch_scheduled_) {
      refetch_scheduled_ = true;
      sim_.schedule_after(seconds(1), [this] {
        refetch_scheduled_ = false;
        maybe_fetch_next();
      });
    }
    return;
  }
  // Two parallel connections to the two edges (the paper observed HLS
  // chunks fetched over multiple connections to different servers).
  while (in_flight_ < 2 && next_seq_ <= last_known_seq_) {
    const std::uint64_t seq = next_seq_++;
    ++in_flight_;
    held_.push_back(seq);
    if (adaptive_) {
      const std::size_t previous = current_rendition_;
      current_rendition_ = pick_rendition();
      if (current_rendition_ != previous && obs_ != nullptr) {
        obs_->metrics.counter("abr_switches_total").add(1);
        obs_->trace.instant(
            "player",
            strf("abr r%zu->r%zu", previous, current_rendition_),
            sim_.now());
        obs_->log.log(obs::EventKind::AbrSwitch, to_s(sim_.now()),
                      static_cast<double>(previous),
                      static_cast<double>(current_rendition_));
      }
    }
    issue_fetch(seq, current_rendition_, /*attempt=*/0,
                /*edge_idx=*/static_cast<int>(seq % 2));
  }
  publish_low_water();
}

void HlsViewerSession::issue_fetch(std::uint64_t seq, std::size_t rendition,
                                   int attempt, int edge_idx) {
  ++http_requests_;
  net::Link& edge_link = edge_idx == 0 ? edge_a_link_ : edge_b_link_;
  const TimePoint fetch_start = sim_.now();
  const std::uint64_t fid = ++fetch_counter_;
  sim::EventHandle& timeout = live_fetches_[fid];
  if (resilience_ != nullptr) {
    // Abandon the attempt if nothing came back within the fetch timeout
    // (e.g. the radio blacked out mid-download) and run the retry ladder.
    timeout = sim_.schedule_after(
        resilience_->hls_fetch_timeout,
        [this, fid, seq, rendition, attempt, edge_idx] {
          if (live_fetches_.erase(fid) == 0) return;  // already settled
          if (obs_ != nullptr) {
            obs_->metrics.counter("hls_fetch_timeouts_total").add(1);
            obs_->trace.instant(
                "fault",
                strf("hls timeout seg %llu",
                     static_cast<unsigned long long>(seq)),
                sim_.now());
            // Status 0 = timed out before any response arrived.
            obs_->log.log(obs::EventKind::FetchOutcome, to_s(sim_.now()), 0,
                          edge_idx, "timeout");
          }
          handle_fetch_failure(seq, rendition, attempt, edge_idx);
        });
  }
  http::Request seg_req;
  seg_req.path = hls_base() + hls::segment_uri(rendition, seq);
  up_link_.send(seg_req.serialize().size(),
                [this, seg_req, rendition, fetch_start, fid, seq,
                 attempt, edge_idx,
                 &edge_link](TimePoint t_edge, util::BufferSlice) {
    if (!live_fetches_.contains(fid)) return;  // timed out underway
    if (finished_) {
      settle_fetch(fid);
      return;
    }
    http::Response resp = edge_server_.handle(seg_req, t_edge);
    if (resp.status == 200 && plan_.edge_down(edge_idx, t_edge)) {
      // This PoP (only) is down; the edge frontend object serves both
      // logical edges and 503s only whole-CDN outages (playlists
      // included), so the single-edge outage is applied here and the
      // client can fail over to the other edge.
      resp = http::Response();
      resp.status = 503;
      resp.reason = http::reason_for(503);
    }
    if (resp.status != 200) {
      // 404: not on the edge (yet); the client backs off and re-polls.
      // 5xx under faults: retry with backoff on the other edge (or drop).
      if (obs_ != nullptr) {
        obs_->log.log(obs::EventKind::FetchOutcome, to_s(sim_.now()),
                      resp.status, edge_idx);
      }
      settle_fetch(fid);
      handle_fetch_failure(seq, rendition, attempt, edge_idx);
      return;
    }
    const hls::EdgeSegment* es =
        pipe_.edge_log(rendition).find(seq, t_edge);
    edge_link.send(resp.serialize(),
                   [this, es, seq, rendition, fetch_start, fid,
                    edge_idx](TimePoint, util::BufferSlice data) {
      device_.downlink().send(
          std::move(data),
          [this, es, seq, rendition, fetch_start, fid,
           edge_idx](TimePoint t2, util::BufferSlice d) {
            if (!live_fetches_.contains(fid)) return;  // timed out
            settle_fetch(fid);
            release_slot(seq);
            consecutive_failures_ = 0;
            if (finished_ || es == nullptr) return;
            auto parsed = http::Response::parse_slice(d);
            if (!parsed || parsed.value().status != 200) return;
            const double dl_s = to_s(t2 - fetch_start);
            if (dl_s > 1e-6) {
              const double thr =
                  static_cast<double>(d.size()) * 8.0 / dl_s;
              throughput_est_bps_ = throughput_est_bps_ <= 0
                                        ? thr
                                        : 0.7 * throughput_est_bps_ +
                                              0.3 * thr;
            }
            fetched_renditions_.push_back(rendition);
            if (obs_ != nullptr) {
              obs_->metrics.histogram("hls_segment_fetch_s")
                  .record(dl_s);
              obs_->trace.complete("service", "GET segment", fetch_start,
                                   t2);
              obs_->log.log(obs::EventKind::FetchOutcome, to_s(t2), 200,
                            edge_idx);
            }
            // Isolate the GET response body — "saving the response of
            // HTTP GET request which contains an MPEG-TS file" (§2).
            on_segment(t2, *es, std::move(parsed.value().body));
          });
    });
  });
}

void HlsViewerSession::settle_fetch(std::uint64_t fid) {
  // An empty handle (no resilience policy) cancels nothing.
  if (auto fetch = live_fetches_.extract(fid)) sim_.cancel(fetch.mapped());
}

void HlsViewerSession::handle_fetch_failure(std::uint64_t seq,
                                            std::size_t rendition,
                                            int attempt, int edge_idx) {
  if (resilience_ == nullptr || finished_) {
    // No resilience: drop the fetch; the slot frees and the next
    // playlist poll moves the client past the hole.
    release_slot(seq);
    return;
  }
  const fault::BackoffConfig& pol = resilience_->hls_retry;
  if (pol.max_attempts > 0 && attempt + 1 >= pol.max_attempts) {
    // Retry budget exhausted: abandon this segment. Enough abandoned
    // segments in a row and the player gives up entirely.
    release_slot(seq);
    ++consecutive_failures_;
    if (obs_ != nullptr) {
      obs_->metrics.counter("hls_segments_abandoned_total").add(1);
    }
    if (consecutive_failures_ >= resilience_->hls_give_up_after) {
      give_up();
    }
    return;
  }
  ++retries_;
  const Duration delay = fault::backoff_delay(pol, attempt, rng_);
  if (obs_ != nullptr) {
    obs_->metrics.counter("hls_retries_total").add(1);
    obs_->log.log(obs::EventKind::Retry, to_s(sim_.now()), attempt + 1, 0,
                  "hls");
  }
  // The in-flight slot stays held: the retry inherits it. Fail over to
  // the other edge — the paper's clients already talk to two PoPs.
  sim_.schedule_after(delay,
                      [this, seq, rendition, attempt, edge_idx] {
    if (finished_) {
      release_slot(seq);
      return;
    }
    issue_fetch(seq, rendition, attempt + 1, 1 - edge_idx);
  });
}

void HlsViewerSession::on_segment(
    TimePoint t, const hls::EdgeSegment& seg, util::BufferSlice body) {
  capture_.record(t, body);
  video_frames_ += static_cast<std::uint64_t>(
      std::llround(to_s(seg.segment.duration) * kVideoFps));
  player_->on_media(t, seg.segment.start_dts,
                    seg.segment.start_dts + seg.segment.duration);
  maybe_fetch_next();
}

void HlsViewerSession::layer_stats(SessionStats& st) const {
  // Segments alternate across the two CDN edges; report the one used for
  // even-numbered segments first (both appear in the capture).
  st.server_ip = edge_a_ip_;
  st.secondary_server_ip = edge_b_ip_;
  st.server_region = "fastly";
  st.bytes_received += playlist_bytes_;
}

}  // namespace psc::client
