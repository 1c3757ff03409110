#include "core/study.h"

#include <algorithm>
#include <stdexcept>

#include "obs/attrib.h"
#include "obs/slo.h"
#include "util/strings.h"

namespace psc::core {

std::vector<SessionRecord> CampaignResult::rtmp() const {
  std::vector<SessionRecord> out;
  for (const SessionRecord& r : sessions) {
    if (r.stats.protocol == client::Protocol::Rtmp) out.push_back(r);
  }
  return out;
}

std::vector<SessionRecord> CampaignResult::hls() const {
  std::vector<SessionRecord> out;
  for (const SessionRecord& r : sessions) {
    if (r.stats.protocol == client::Protocol::Hls) out.push_back(r);
  }
  return out;
}

std::vector<double> CampaignResult::metric(
    const std::vector<SessionRecord>& recs,
    double (*fn)(const SessionRecord&)) {
  std::vector<double> out;
  out.reserve(recs.size());
  for (const SessionRecord& r : recs) out.push_back(fn(r));
  return out;
}

client::DeviceConfig Study::galaxy_s3() {
  client::DeviceConfig d;
  d.model = "Galaxy S3";
  d.max_decode_fps = 26.5;  // older SoC drops frames at 30 fps
  return d;
}

client::DeviceConfig Study::galaxy_s4() {
  client::DeviceConfig d;
  d.model = "Galaxy S4";
  d.max_decode_fps = 29.7;
  return d;
}

Duration world_horizon(const StudyConfig& cfg, int sessions) {
  const double span_s = to_s(cfg.preroll) + to_s(cfg.watch_time) + 10.0;
  Duration horizon = seconds(30 + span_s * (sessions + 1) + 120);
  if (cfg.aggregate.enabled && cfg.aggregate.gen.horizon > horizon) {
    horizon = cfg.aggregate.gen.horizon;
  }
  return horizon;
}

WorldContext own_world(const StudyConfig& cfg, int sessions) {
  WorldContext ctx;
  const std::uint64_t world_seed = cfg.seed ^ 0x0170BB57ull;
  const Duration horizon = world_horizon(cfg, sessions);
  ctx.timeline = service::WorldTimeline::record(cfg.world, world_seed,
                                                horizon,
                                                cfg.load.epoch_length);
  ctx.campaign_seed = cfg.seed;
  if (!cfg.aggregate.enabled) return ctx;
  // The private audience integrates up to its recording's horizon, which
  // must stay the flash-crowd horizon; a longer world needs a second,
  // longer recording of the same process.
  ctx.aggregate = campaign_audience(
      cfg, cfg.aggregate.gen.horizon == horizon
               ? ctx.timeline
               : service::WorldTimeline::record(cfg.world, world_seed,
                                                cfg.aggregate.gen.horizon,
                                                cfg.load.epoch_length));
  auto board =
      std::make_shared<service::EpochLoadBoard>(cfg.load.epoch_length);
  for (std::size_t e = 0; e < ctx.aggregate->ledger().epoch_count(); ++e) {
    board->merge_epoch(e, ctx.aggregate->ledger());
  }
  ctx.load_board = std::move(board);
  return ctx;
}

std::shared_ptr<const service::AggregateAudience> campaign_audience(
    const StudyConfig& cfg,
    std::shared_ptr<const service::WorldTimeline> timeline) {
  const service::MediaServerPool pool(cfg.seed ^ 0x5EEDull);
  return std::make_shared<service::AggregateAudience>(
      std::move(timeline), service::make_flash_crowd_schedule(cfg.aggregate),
      pool, cfg.aggregate, cfg.load.epoch_length);
}

namespace {

/// Faults off is the empty plan; on, the plan text when there is one
/// (a malformed one throws), else the plan generated from the seed.
fault::Plan make_fault_plan(const fault::FaultConfig& cfg) {
  if (!cfg.enabled) return fault::Plan();
  if (cfg.plan_text.empty()) return fault::Plan::generate(cfg.seed, cfg.gen);
  auto parsed = fault::Plan::parse(cfg.plan_text);
  if (!parsed) {
    throw std::invalid_argument("fault plan rejected: " +
                                parsed.error().message);
  }
  return std::move(parsed).value();
}

}  // namespace

Study::Study(const StudyConfig& cfg, WorldContext world)
    : cfg_(cfg),
      fault_plan_(make_fault_plan(cfg.fault)),
      rng_(cfg.seed),
      world_(sim_, std::move(world.timeline)),
      load_board_(std::move(world.load_board)),
      aggregate_(std::move(world.aggregate)),
      servers_(world.campaign_seed ^ 0x5EEDull),
      api_(world_, servers_, cfg.api, fault_plan_) {
  servers_.load_ledger().set_epoch_length(cfg_.load.epoch_length);
  obs_.trace.set_enabled(obs::trace_enabled());
  obs_.log.set_enabled(obs::metrics_enabled());
  api_.set_obs(obs_ptr());
  api_.set_viewer_overlay(aggregate_.get());
  if (obs::Obs* o = obs_ptr()) {
    for (const fault::Episode& e : fault_plan_.episodes()) {
      o->metrics
          .counter(strf("fault_episodes_total{kind=\"%s\"}",
                        fault::kind_name(e.kind)))
          .add(1);
    }
  }
}

std::optional<json::Value> Study::access_video(
    const std::string& broadcast_id, std::size_t session_idx) {
  // The retry ladder is seeded from one study-RNG draw, so a study
  // without resilience must not build one: the draw would move every
  // later record.
  std::optional<fault::Backoff> backoff;
  if (const fault::ResilienceConfig* r = resilience()) {
    backoff.emplace(r->api_retry, Rng(rng_.engine()()));
  }
  int attempt = 0;
  for (;;) {
    json::Object req;
    req["cookie"] = strf("viewer-%zu", session_idx);
    req["broadcast_id"] = broadcast_id;
    int status = 200;
    json::Value access = api_.call("accessVideo",
                                   json::Value(std::move(req)), sim_.now(),
                                   &status);
    // Injected API latency burst: the app simply sees a slow response.
    const Duration extra = api_.last_injected_latency();
    if (extra > Duration{0}) sim_.run_until(sim_.now() + extra);
    if (status < 500) return access;
    if (!backoff || backoff->exhausted()) {
      if (obs::Obs* o = obs_ptr()) {
        o->metrics.counter("api_gave_up_total").add(1);
        o->log.log(obs::EventKind::GaveUp, to_s(sim_.now()), 0, 0, "api");
      }
      return std::nullopt;
    }
    const Duration delay = backoff->next();
    ++attempt;
    if (obs::Obs* o = obs_ptr()) {
      o->metrics.counter("api_retries_total").add(1);
      o->log.log(obs::EventKind::Retry, to_s(sim_.now()), attempt, status,
                 "api");
    }
    sim_.run_until(sim_.now() + delay);
  }
}

void Study::report_playback_meta(const client::SessionStats& st) {
  json::Object stats;
  stats["n_stalls"] = st.stall_count;
  if (st.protocol == client::Protocol::Rtmp) {
    stats["join_time_s"] = st.join_time_s;
    stats["stall_time_s"] = st.stalled_s;
    stats["playback_latency_s"] = st.playback_latency_s;
    stats["frame_rate"] = st.reported_fps;
  }
  json::Object body;
  body["cookie"] = "auto-viewer";
  body["broadcast_id"] = st.broadcast_id;
  body["stats"] = json::Value(std::move(stats));
  (void)api_.call("playbackMeta", json::Value(std::move(body)), sim_.now());
}

std::optional<SessionRecord> Study::run_one_session(client::Device& device,
                                                    bool analyze) {
  const Duration need = cfg_.preroll + cfg_.watch_time + seconds(5);
  // Past its recorded horizon the timeline is frozen (no arrivals, no
  // departures): a session there would silently watch a dead world.
  const Duration horizon = world_.timeline().horizon();
  if (to_s(sim_.now() + need) > to_s(horizon)) {
    throw std::logic_error(
        strf("Study: session at t=%.3f s needs the world until t=%.3f s, "
             "past the recorded horizon of %.3f s",
             to_s(sim_.now()), to_s(sim_.now() + need), to_s(horizon)));
  }
  const service::BroadcastInfo* b = world_.teleport(rng_, need);
  if (b == nullptr) return std::nullopt;
  const TimePoint session_begin = sim_.now();

  // Spin up the live pipeline for this broadcast and let it run so the
  // origin backlog / CDN edge have content before the viewer arrives.
  service::PipelineConfig pipe_cfg = cfg_.pipeline;
  pipe_cfg.arena = &arena_;  // recycle segment buffers across sessions
  if (cfg_.hls_adaptive && pipe_cfg.transcode_ladder.empty()) {
    pipe_cfg.transcode_ladder = {
        {"mid", media::TranscodeProfile{0.55, 5}, 220e3},
        {"low", media::TranscodeProfile{0.3, 10}, 120e3},
    };
  }
  auto pipeline_ptr = std::make_unique<service::LiveBroadcastPipeline>(
      sim_, *b, pipe_cfg);
  service::LiveBroadcastPipeline& pipeline = *pipeline_ptr;
  pipeline.set_obs(obs_ptr());
  pipeline.start(need + seconds(5));
  sim_.run_until(sim_.now() + cfg_.preroll);

  // accessVideo: the service decides RTMP vs HLS from current popularity.
  const std::size_t session_idx = session_counter_++;
  // Session uid: shard-stable, so event-log records and histogram
  // exemplars name the same session for any PSC_THREADS.
  const std::uint64_t session_uid =
      (cfg_.shard_index << 20) | static_cast<std::uint64_t>(session_idx);
  if (obs::Obs* o = obs_ptr()) {
    // The protocol is unknown until accessVideo answers; API retry
    // events recorded before then carry an empty proto.
    o->log.begin_session(session_uid, "", to_s(sim_.now()));
  }
  const std::optional<json::Value> access = access_video(b->id, session_idx);
  if (!access) {
    // The API never recovered within the retry budget: the app drops
    // back to the channel list without ever opening a player. The
    // pipeline still gets an orderly retirement.
    if (obs::Obs* o = obs_ptr()) {
      o->log.end_session(to_s(sim_.now()), 0, 0);
      attribute_current_session(o, session_uid, session_begin, sim_.now(),
                                Duration{0});
    }
    pipeline.stop();
    pipeline.retire();
    retired_pipelines_.emplace_back(pipeline.safe_destroy_at(),
                                    std::move(pipeline_ptr));
    return std::nullopt;
  }
  const bool use_hls = (*access)["protocol"].as_string() == "hls";
  // An RTMP viewer is served from the origin; nobody fetches the edge.
  if (!use_hls) pipeline.release_hls();
  if (obs::Obs* o = obs_ptr()) {
    o->log.set_proto(use_hls ? "hls" : "rtmp");
  }

  // Per-session buffer jitter: the app's effective startup buffer varies
  // with device state and stream conditions, which is what spreads the
  // join-time and latency boxplots in Fig. 4 (identical thresholds would
  // collapse them to a point).
  const double jitter = rng_.uniform(0.7, 1.8);
  std::unique_ptr<client::ViewerSession> session;
  // Which servers this session loads and how much (HLS stripes two
  // edges, half each); the shared-world load board turns the *previous*
  // epoch's merged load on those servers into extra path latency now.
  std::string load_ip_a;
  std::string load_ip_b;
  double load_weight = 1.0;
  Duration penalty_paid{0};  // worst load penalty on this session's path
  // Priced at session_begin, not now: the clock is past the preroll
  // here, and a session that teleported near the end of epoch e would
  // otherwise ask for epoch e itself — which the barrier has not merged
  // yet (silent zero). The contract is "a session starting in epoch e
  // reads the merged load of epoch e-1" (load.h), and the start is the
  // teleport.
  const auto penalty = [&](const std::string& ip) {
    return load_board_->penalty(ip, session_begin, cfg_.load);
  };
  if (use_hls) {
    client::PlayerConfig pc = cfg_.hls_player;
    pc.start_threshold = seconds(to_s(pc.start_threshold) * jitter);
    const service::MediaServer& edge_a = servers_.hls_edges()[0];
    const service::MediaServer& edge_b = servers_.hls_edges()[1];
    load_ip_a = edge_a.ip;
    load_ip_b = edge_b.ip;
    load_weight = 0.5;
    const Duration pen_a = penalty(edge_a.ip);
    const Duration pen_b = penalty(edge_b.ip);
    penalty_paid = std::max(pen_a, pen_b);
    session = std::make_unique<client::HlsViewerSession>(
        sim_, pipeline, device, edge_a, edge_b, pc, rng_.engine()(),
        client::HlsViewerSession::Mode::Live, cfg_.hls_adaptive, pen_a,
        pen_b, obs_ptr(), fault_plan_, resilience());
  } else {
    client::PlayerConfig pc = cfg_.rtmp_player;
    pc.start_threshold = seconds(to_s(pc.start_threshold) * jitter);
    pc.resume_threshold = seconds(to_s(pc.resume_threshold) * jitter);
    const service::MediaServer& origin =
        servers_.rtmp_origin_for(b->location, b->id);
    load_ip_a = origin.ip;
    penalty_paid = penalty(origin.ip);
    session = std::make_unique<client::RtmpViewerSession>(
        sim_, pipeline, device, origin, pc, rng_.engine()(), penalty_paid,
        obs_ptr(), fault_plan_, cfg_.fault.policy);
  }
  // Captures keep records only; an analysed session's reconstructor reads
  // each record's bytes as it is delivered (a check keeps them, to
  // reconstruct from the capture as well).
  std::optional<analysis::StreamReconstructor> recon;
  if (analyze) {
    recon.emplace(use_hls ? analysis::StreamReconstructor::Kind::Hls
                          : analysis::StreamReconstructor::Kind::Rtmp);
    session->set_capture_tap(
        [&r = *recon](TimePoint t, BytesView d) { r.feed(t, d); });
  }
  if (!analyze || !analysis_check_) session->capture_records_only();
  const TimePoint watch_begin = sim_.now();
  session->start(cfg_.watch_time);
  sim_.run_until(sim_.now() + cfg_.watch_time + seconds(2));
  pipeline.stop();

  SessionRecord rec;
  rec.stats = session->stats();
  report_playback_meta(rec.stats);
  if (aggregate_ != nullptr) {
    rec.stats.cohort = true;
    rec.stats.cohort_weight = cfg_.aggregate.sample_rate > 0
                                  ? 1.0 / cfg_.aggregate.sample_rate
                                  : 1.0;
    rec.stats.agg_viewers_at_join =
        aggregate_->viewers_at(b->id, watch_begin);
    rec.stats.server_load_at_join =
        load_board_->previous_epoch_concurrent(load_ip_a, session_begin);
  }

  // Book this session into the pool's per-epoch load account.
  const TimePoint watch_end = sim_.now();
  const double bytes = static_cast<double>(rec.stats.bytes_received);
  auto& ledger = servers_.load_ledger();
  ledger.add_session(load_ip_a, watch_begin, watch_end, load_weight, bytes);
  if (!load_ip_b.empty()) {
    ledger.add_session(load_ip_b, watch_begin, watch_end, load_weight,
                       bytes);
  }
  if (recon) {
    auto analysis = recon->finish();
    if (analysis_check_) {
      analysis_check_(rec.stats.protocol, session->capture(), analysis);
    }
    if (analysis) rec.analysis = std::move(analysis).value();
  }
  if (obs::Obs* o = obs_ptr()) {
    const char* proto = use_hls ? "hls" : "rtmp";
    o->metrics.counter(strf("sessions_total{proto=\"%s\"}", proto)).add(1);
    // Exemplar context: worst join/stall buckets link back to the
    // session uid and its sim-time neighbourhood in the trace.
    o->metrics.histogram(strf("join_time_s{proto=\"%s\"}", proto))
        .record(rec.stats.join_time_s, to_s(watch_end), session_uid);
    o->metrics.histogram(strf("session_stalled_s{proto=\"%s\"}", proto))
        .record(rec.stats.stalled_s, to_s(watch_end), session_uid);
    // One kernel-lane span per session: teleport to watch end, on the
    // shard's own trace lane.
    o->trace.complete("kernel",
                      strf("session %zu %s", session_idx, proto),
                      session_begin, watch_end);
    if (resilience() != nullptr) {
      o->metrics.counter("session_reconnects_total")
          .add(rec.stats.reconnects);
      o->metrics.counter("session_retries_total").add(rec.stats.retries);
    }
    if (aggregate_ != nullptr) {
      o->metrics.counter("cohort_sessions_total").add(1);
      o->metrics.counter("cohort_weight_total")
          .add(rec.stats.cohort_weight);
      o->metrics.histogram("cohort_agg_viewers_at_join")
          .record(rec.stats.agg_viewers_at_join);
    }
    // SLO observations bucket by the load epoch of the session *start*
    // (same convention as the load board: the teleport prices the epoch).
    const double epoch_len = to_s(cfg_.load.epoch_length);
    const std::uint64_t epoch =
        epoch_len > 0
            ? static_cast<std::uint64_t>(to_s(session_begin) / epoch_len)
            : 0;
    o->slo.observe("join_s", proto, epoch, rec.stats.join_time_s);
    o->slo.observe("stall_ratio", proto, epoch, rec.stats.stall_ratio);
    o->log.end_session(to_s(watch_end), rec.stats.played_s,
                       rec.stats.stalled_s);
    attribute_current_session(o, session_uid, session_begin, watch_end,
                              penalty_paid);
  }
  // Retire rather than destroy: late events may still reference these
  // objects; retirement frees their bulk buffers and neuters callbacks.
  // Destruction happens in purge_retired() once each object's event
  // horizon has passed.
  session->retire();
  pipeline.retire();
  retired_sessions_.emplace_back(session->safe_destroy_at(),
                                 std::move(session));
  retired_pipelines_.emplace_back(pipeline.safe_destroy_at(),
                                  std::move(pipeline_ptr));
  return rec;
}

namespace {

/// fault::Plan kinds -> attribution causes (obs cannot see fault:: — the
/// dependency runs the other way — so the mapping lives here).
obs::Cause cause_from_fault_kind(fault::Kind k) {
  switch (k) {
    case fault::Kind::LinkBlackout: return obs::Cause::RadioBlackout;
    case fault::Kind::RateCollapse: return obs::Cause::RateCollapse;
    case fault::Kind::HandoverGap: return obs::Cause::HandoverGap;
    case fault::Kind::EdgeOutage: return obs::Cause::EdgeOutage;
    case fault::Kind::OriginRestart: return obs::Cause::OriginRestart;
    case fault::Kind::ApiErrorBurst: return obs::Cause::ApiFault;
    case fault::Kind::ApiLatencyBurst: return obs::Cause::ApiFault;
  }
  return obs::Cause::Unattributed;
}

}  // namespace

void Study::attribute_current_session(obs::Obs* o, std::uint64_t uid,
                                      TimePoint begin, TimePoint end,
                                      Duration penalty_paid) {
  if (!o->log.enabled()) return;
  obs::SessionEvidence evidence;
  evidence.load_penalty_s = to_s(penalty_paid);
  const double lo = to_s(begin);
  const double hi = to_s(end);
  for (const fault::Episode& e : fault_plan_.episodes()) {
    const double es = to_s(e.start);
    const double ee = to_s(e.end());
    if (ee <= lo) continue;
    if (es >= hi) break;  // episodes are sorted by start
    evidence.episodes.push_back({cause_from_fault_kind(e.kind), es, ee});
  }
  const obs::SessionAttribution att =
      obs::attribute_session(o->log.current_session_events(), evidence);
  obs::record_attribution(*o, att, uid);
}

void Study::finalize_obs() {
  obs::Obs* o = obs_ptr();
  if (o == nullptr) return;
  o->metrics.counter("sim_events_scheduled_total")
      .add(static_cast<double>(sim_.events_scheduled()));
  o->metrics.counter("sim_events_executed_total")
      .add(static_cast<double>(sim_.events_executed()));
  o->metrics.counter("sim_events_cancelled_total")
      .add(static_cast<double>(sim_.events_cancelled()));
  o->metrics.counter("sim_callback_heap_allocs_total")
      .add(static_cast<double>(sim_.callback_heap_allocs()));
  o->metrics.counter("sim_queue_depth_at_schedule_total")
      .add(static_cast<double>(sim_.queue_depth_at_schedule()));
  o->metrics.gauge("sim_heap_depth_max")
      .set_max(static_cast<double>(sim_.max_heap_depth()));

  // Media-path arena: allocation avoidance + slice refcount churn.
  const util::BufferArena::Stats arena = arena_.stats();
  o->metrics.counter("arena_allocations_total")
      .add(static_cast<double>(arena.allocations()));
  o->metrics.counter("arena_buffers_reused_total")
      .add(static_cast<double>(arena.buffers_reused));
  o->metrics.counter("arena_slices_adopted_total")
      .add(static_cast<double>(arena.slices_adopted));
  o->metrics.counter("arena_slice_retains_total")
      .add(static_cast<double>(arena.slice_retains));
  o->metrics.gauge("arena_outstanding_peak")
      .set_max(static_cast<double>(arena.outstanding_peak));
  o->metrics.gauge("sim_virtual_time_s").set_max(to_s(sim_.now()));
  o->metrics.counter("trace_events_dropped_total")
      .add(static_cast<double>(o->trace.dropped()));
  o->metrics.counter("log_events_dropped_total")
      .add(static_cast<double>(o->log.dropped()));

  // SLO violations as tracer instants, stamped at the failing epoch's
  // end. Evaluated on this shard's own observations (the campaign-level
  // verdicts over the merged track live in the snapshot's `slo` section).
  obs::emit_violation_instants(o->trace, o->slo, obs::active_slo_config(),
                               to_s(cfg_.load.epoch_length));

  // Load-ledger occupancy: what the pool's per-epoch account booked.
  const service::EpochLoadLedger& ledger = servers_.load_ledger();
  obs::Counter& sess_s = o->metrics.counter("load_session_seconds_total");
  obs::Counter& bytes = o->metrics.counter("load_bytes_total");
  obs::Counter& reqs = o->metrics.counter("load_requests_total");
  obs::Histogram& occ = o->metrics.histogram("load_epoch_session_seconds");
  for (std::size_t e = 0; e < ledger.epoch_count(); ++e) {
    const auto* epoch = ledger.epoch(e);
    if (epoch == nullptr) continue;
    for (const auto& [ip, acct] : *epoch) {
      sess_s.add(acct.session_seconds);
      bytes.add(acct.bytes);
      reqs.add(acct.requests);
      occ.record(acct.session_seconds);
    }
  }
}

KernelTotals Study::kernel_totals() const {
  KernelTotals t;
  t.events_executed = sim_.events_executed();
  t.events_scheduled = sim_.events_scheduled();
  t.callback_heap_allocs = sim_.callback_heap_allocs();
  const util::BufferArena::Stats arena = arena_.stats();
  t.arena_allocations = arena.allocations();
  t.arena_buffers_reused = arena.buffers_reused;
  t.slices_adopted = arena.slices_adopted;
  t.slice_retains = arena.slice_retains;
  return t;
}

void Study::purge_retired() {
  const TimePoint now = sim_.now();
  std::erase_if(retired_pipelines_,
                [now](const auto& e) { return e.first < now; });
  std::erase_if(retired_sessions_,
                [now](const auto& e) { return e.first < now; });
}

void Study::warm_up() {
  if (warmed_up_) return;
  warmed_up_ = true;
  sim_.run_until(sim_.now() + seconds(30));
}

void Study::step_session(client::Device& device, bool analyze,
                         CampaignResult* out) {
  auto rec = run_one_session(device, analyze);
  if (rec && out != nullptr) out->sessions.push_back(std::move(*rec));
  // The adb script pushes "close", "home", then Teleports again.
  sim_.run_until(sim_.now() + seconds(3));
  purge_retired();
}

CampaignResult Study::run_campaign(int n, BitRate bandwidth_limit,
                                   const client::DeviceConfig& device_cfg,
                                   bool analyze) {
  warm_up();
  devices_.push_back(
      std::make_unique<client::Device>(sim_, device_cfg, rng_.engine()()));
  client::Device& device = *devices_.back();
  if (bandwidth_limit > 0) device.set_bandwidth_limit(bandwidth_limit);

  CampaignResult result;
  for (int i = 0; i < n; ++i) step_session(device, analyze, &result);
  return result;
}

void Study::begin_campaign(BitRate bandwidth_limit, bool two_device,
                           const client::DeviceConfig& device_cfg) {
  if (campaign_begun_) return;
  campaign_begun_ = true;
  warm_up();
  if (two_device) {
    devices_.push_back(std::make_unique<client::Device>(sim_, galaxy_s3(),
                                                        rng_.engine()()));
    devices_.push_back(std::make_unique<client::Device>(sim_, galaxy_s4(),
                                                        rng_.engine()()));
  } else {
    devices_.push_back(std::make_unique<client::Device>(sim_, device_cfg,
                                                        rng_.engine()()));
  }
  if (bandwidth_limit > 0) {
    for (auto& d : devices_) d->set_bandwidth_limit(bandwidth_limit);
  }
}

int Study::run_sessions_until(TimePoint deadline, int max_sessions,
                              bool analyze, CampaignResult* out) {
  int attempted = 0;
  while (sim_.now() < deadline && epoch_attempted_ < max_sessions) {
    // Alternate devices per session (S3, S4, S3, ... in two_device mode).
    client::Device& device =
        *devices_[static_cast<std::size_t>(epoch_attempted_) %
                  devices_.size()];
    ++epoch_attempted_;
    ++attempted;
    step_session(device, analyze, out);
  }
  // The shard now parks until the next epoch: give back the pooled
  // segment storage, keeping the pool entries so the arena counters and
  // every result stay as they were.
  arena_.release_pooled_storage();
  return attempted;
}

CampaignResult Study::run_two_device_campaign(int n, BitRate bandwidth_limit,
                                              bool analyze) {
  CampaignResult all;
  const int half = n / 2;
  CampaignResult s3 = run_campaign(half, bandwidth_limit, galaxy_s3(),
                                   analyze);
  CampaignResult s4 = run_campaign(n - half, bandwidth_limit, galaxy_s4(),
                                   analyze);
  all.sessions = std::move(s3.sessions);
  for (SessionRecord& r : s4.sessions) all.sessions.push_back(std::move(r));
  return all;
}

}  // namespace psc::core
