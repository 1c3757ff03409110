#include "campaigns.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "analysis/stats.h"
#include "core/parallel.h"
#include "core/study.h"
#include "fault/plan.h"
#include "json/json.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/aggregate_audience.h"
#include "service/pipeline.h"
#include "service/world_timeline.h"

namespace psc::suite {

namespace {

enum class Kind { paper_fig3, shared_faulted, flashcrowd_hls };

// Workload definitions. Sizes put one round of paper_fig3 near 12-14 s on
// a 4-core machine at 4 threads; the fixed seeds pin the fault plan and
// the flash-crowd schedule, so --seed varies only the worlds and sessions.
constexpr int kThreads = 4;
constexpr int kShardSize = 12;
constexpr int kPaperUnlimited = 3382;  // the paper's §5 campaign
constexpr int kPaperPerLimit = 91;     // its largest tc-limit campaign
constexpr double kPaperLimitsMbps[] = {0.5, 1.0, 2.0, 4.0};
constexpr int kSharedSessions = 1152;
constexpr int kSharedWorlds = 4;
constexpr std::uint64_t kFaultSeed = 7;
constexpr int kFlashSessions = 2400;
constexpr std::uint64_t kFlashSeed = 11;
constexpr double kFlashPeakCap = 2e6;
constexpr double kFlashSampleRate = 1.0 / 100;
// Smoke scale: two shards per campaign.
constexpr int kSmokeSessions = 2 * kShardSize;

using Plan = std::vector<core::ShardedCampaign>;
using Results = std::vector<core::CampaignResult>;

Kind kind_of(const std::string& w) {
  if (w == "shared_faulted") return Kind::shared_faulted;
  if (w == "flashcrowd_hls") return Kind::flashcrowd_hls;
  return Kind::paper_fig3;
}

/// The seed of the round plan. Every measured round runs this one plan,
/// so a run's inputs do not depend on how many rounds fit in --seconds.
std::uint64_t plan_seed(const Options& opts, Kind k) {
  return mix_seed(opts.seed, 0x5EC0DE00ull + static_cast<unsigned>(k));
}

/// The recorded-world horizon ShardedRunner::run_shared derives by default
/// (and the fluid horizon of an independent-mode aggregate campaign).
Duration campaign_horizon(const core::StudyConfig& cfg) {
  const double span_s = to_s(cfg.preroll) + to_s(cfg.watch_time) + 10.0;
  return seconds(30 + span_s * (kShardSize + 1) + 120);
}

core::ShardedCampaign make_campaign(Kind k, std::uint64_t seed, int sessions,
                                    double limit_bps) {
  core::ShardedCampaign c;
  c.base.seed = seed;
  c.base.world.target_concurrent = 800;
  c.base.world.hotspot_count = 120;
  c.sessions = sessions;
  c.bandwidth_limit = limit_bps;
  c.shard_size = kShardSize;
  switch (k) {
    case Kind::paper_fig3:
      break;
    case Kind::shared_faulted:
      c.base.mode = core::CampaignMode::shared_world;
      c.base.fault.enabled = true;
      c.base.fault.seed = kFaultSeed;
      c.analyze = true;
      break;
    case Kind::flashcrowd_hls:
      c.base.aggregate.enabled = true;
      c.base.aggregate.schedule_seed = kFlashSeed;
      c.base.aggregate.gen.horizon = campaign_horizon(c.base);
      c.base.aggregate.gen.peak_xm = kFlashPeakCap / 8;
      c.base.aggregate.gen.peak_cap = kFlashPeakCap;
      c.base.aggregate.sample_rate = kFlashSampleRate;
      break;
  }
  return c;
}

Plan round_plan(Kind k, std::uint64_t seed, bool smoke) {
  Plan p;
  switch (k) {
    case Kind::paper_fig3:
      p.push_back(make_campaign(
          k, mix_seed(seed, 0), smoke ? kSmokeSessions : kPaperUnlimited, 0));
      for (std::size_t i = 0; i < 4; ++i) {
        p.push_back(make_campaign(k, mix_seed(seed, i + 1),
                                  smoke ? kShardSize / 2 : kPaperPerLimit,
                                  kPaperLimitsMbps[i] * 1e6));
      }
      break;
    case Kind::shared_faulted:
      // One world sets the cost of all its sessions (the bytes they move
      // differ 2x between seeds), so the round spreads its sessions over
      // several worlds to keep the cost of a round steady across seeds.
      for (int i = 0; i < kSharedWorlds; ++i) {
        p.push_back(make_campaign(
            k, mix_seed(seed, static_cast<std::uint64_t>(i)),
            smoke ? kShardSize : kSharedSessions / kSharedWorlds, 0));
      }
      break;
    case Kind::flashcrowd_hls:
      p.push_back(make_campaign(k, seed,
                                smoke ? kSmokeSessions : kFlashSessions, 0));
      break;
  }
  return p;
}

int requested(const Plan& plan) {
  int n = 0;
  for (const core::ShardedCampaign& c : plan) n += c.sessions;
  return n;
}

std::size_t recorded(const Results& rs) {
  std::size_t n = 0;
  for (const core::CampaignResult& r : rs) n += r.sessions.size();
  return n;
}

/// result_digest: FNV-1a over every session's stats (doubles at %.17g),
/// its reconstruction summary and each campaign's KernelTotals.
std::string digest(const Results& rs) {
  Fnv1a h;
  for (const core::CampaignResult& r : rs) {
    h.u64(r.sessions.size());
    for (const core::SessionRecord& rec : r.sessions) {
      const client::SessionStats& s = rec.stats;
      h.u64(static_cast<std::uint64_t>(s.protocol));
      h.str(s.broadcast_id);
      h.str(s.device_model);
      h.str(s.server_ip);
      h.str(s.secondary_server_ip);
      h.str(s.server_region);
      h.num(s.distance_km);
      h.num(s.avg_viewers);
      h.u64(s.ever_played ? 1 : 0);
      h.num(s.join_time_s);
      h.num(s.played_s);
      h.num(s.stalled_s);
      h.u64(static_cast<std::uint64_t>(s.stall_count));
      h.num(s.stall_ratio);
      h.num(s.playback_latency_s);
      h.num(s.reported_fps);
      h.u64(s.bytes_received);
      h.u64(s.cohort ? 1 : 0);
      h.num(s.cohort_weight);
      h.num(s.agg_viewers_at_join);
      h.num(s.server_load_at_join);
      h.u64(static_cast<std::uint64_t>(s.outcome));
      h.u64(static_cast<std::uint64_t>(s.reconnects));
      h.u64(static_cast<std::uint64_t>(s.retries));
      const analysis::StreamAnalysis& a = rec.analysis;
      h.u64(static_cast<std::uint64_t>(a.width));
      h.u64(static_cast<std::uint64_t>(a.height));
      h.u64(a.frames.size());
      for (const analysis::FrameRecord& f : a.frames) {
        h.u64(static_cast<std::uint64_t>(f.qp));
        h.u64(f.bytes);
      }
      h.u64(a.segments.size());
      h.u64(a.ntp_marks.size());
    }
    const core::KernelTotals& k = r.kernel;
    for (std::uint64_t v :
         {k.events_executed, k.events_scheduled, k.wheel_inserts,
          k.callback_heap_allocs, k.arena_allocations,
          k.arena_buffers_reused, k.slices_adopted, k.slice_retains}) {
      h.u64(v);
    }
  }
  return h.hex();
}

/// Per-round output checks: every record is sane. A requested session
/// that was not recorded, or one that gave up, is a failed operation.
void check_round(const Plan& plan, const Results& rs, Outcome& out) {
  out.attempted += static_cast<std::uint64_t>(requested(plan));
  int reported = 0;
  const auto bad = [&](const std::string& why) {
    if (reported++ < 5) {
      out.fail(why);
    } else {
      out.correct = false;
    }
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::size_t want = static_cast<std::size_t>(plan[i].sessions);
    const std::size_t got = rs[i].sessions.size();
    if (got > want) bad("campaign recorded more sessions than requested");
    if (got < want) out.failed += want - got;
    for (const core::SessionRecord& rec : rs[i].sessions) {
      const client::SessionStats& s = rec.stats;
      if (s.outcome == client::Outcome::GaveUp) ++out.failed;
      const bool finite = std::isfinite(s.join_time_s) &&
                          std::isfinite(s.played_s) &&
                          std::isfinite(s.stalled_s) &&
                          std::isfinite(s.stall_ratio);
      if (!finite || s.join_time_s < 0 || s.played_s < 0 ||
          s.stalled_s < 0 || s.stall_ratio < 0 || s.stall_ratio > 1) {
        bad("session " + s.broadcast_id + " has out-of-range stats");
      }
      if (s.broadcast_id.empty()) bad("session without a broadcast id");
      if (s.cohort != plan[i].base.aggregate.enabled) {
        bad("cohort tagging does not match the aggregate tier setting");
      }
    }
  }
}

struct RoundRun {
  double wall_s = 0;
  Results results;
};

RoundRun run_round(core::ShardedRunner& runner, const Plan& plan,
                   bool collect, Spans& spans, const char* name) {
  obs::set_metrics_enabled(collect);
  obs::set_trace_enabled(false);
  RoundRun r;
  auto scope = spans.scope(name);
  const double t0 = now_s();
  r.results = runner.run_many(plan);
  r.wall_s = now_s() - t0;
  obs::set_metrics_enabled(false);
  return r;
}

/// One-time set-up the benchmark can invoke itself: the recorded world
/// (shared_faulted, flashcrowd_hls), the fluid audience (flashcrowd_hls),
/// the fault plan (shared_faulted), and a one-shard warm-up campaign so
/// lazy initialisation is not charged to the first measured round.
struct Prepared {
  double timeline_record_s = 0;
  double aggregate_build_s = 0;
  std::size_t fault_episodes = 0;
};

Prepared prepare(Kind k, const Options& opts, core::ShardedRunner& runner,
                 Spans& spans) {
  auto scope = spans.scope("setup");
  Prepared p;
  const core::StudyConfig base =
      round_plan(k, plan_seed(opts, k), opts.smoke).front().base;
  if (k == Kind::shared_faulted) {
    auto s = spans.scope("fault.plan");
    p.fault_episodes =
        fault::Plan::generate(base.fault.seed, base.fault.gen).size();
  }
  if (k != Kind::paper_fig3) {
    std::shared_ptr<const service::WorldTimeline> timeline;
    {
      auto s = spans.scope("service.world_timeline_record");
      const double t0 = now_s();
      timeline = service::WorldTimeline::record(
          base.world, base.seed ^ 0x0170BB57ull, campaign_horizon(base),
          base.load.epoch_length);
      p.timeline_record_s = now_s() - t0;
    }
    if (k == Kind::flashcrowd_hls) {
      auto s = spans.scope("service.aggregate_audience");
      const double t0 = now_s();
      const service::MediaServerPool pool(base.seed ^ 0x5EEDull);
      const service::AggregateAudience audience(
          timeline, service::make_flash_crowd_schedule(base.aggregate), pool,
          base.aggregate, base.load.epoch_length);
      p.aggregate_build_s = now_s() - t0;
    }
  }
  Plan warm = round_plan(k, mix_seed(plan_seed(opts, k), 0xAA), true);
  warm.resize(1);
  warm.front().sessions = opts.smoke ? 2 : kShardSize;
  (void)run_round(runner, warm, false, spans, "warmup.run_many");
  return p;
}

/// Thread-count invariance on a two-shard slice of the round plan: the
/// digest at 1 thread must equal the digest at 4.
void check_threads(Kind k, const Options& opts, Spans& spans, Outcome& out) {
  auto scope = spans.scope("verify.threads");
  Plan slice = round_plan(k, plan_seed(opts, k), opts.smoke);
  slice.resize(1);
  slice.front().sessions = kSmokeSessions;
  core::ShardedRunner one(1);
  core::ShardedRunner four(4);
  const std::string d1 = digest(run_round(one, slice, false, spans,
                                          "verify.run_many.threads1")
                                    .results);
  const std::string d4 = digest(run_round(four, slice, false, spans,
                                          "verify.run_many.threads4")
                                    .results);
  std::printf("verify: slice digest threads=1 %s threads=4 %s\n", d1.c_str(),
              d4.c_str());
  if (d1 != d4) out.fail("slice digest differs between 1 and 4 threads");
}

double counter_sum(const obs::Registry& reg, const std::string& prefix) {
  double v = 0;
  for (const auto& [name, c] : reg.counters()) {
    if (name.rfind(prefix, 0) == 0) v += c.value();
  }
  return v;
}

/// Fluid viewer-seconds carried by one independent-mode flash-crowd
/// campaign: every shard integrates its own audience (Study's
/// init_aggregate), so rebuild each from its shard seed.
double fluid_viewer_seconds(const core::ShardedCampaign& c, int threads) {
  const int shards = (c.sessions + c.shard_size - 1) / c.shard_size;
  std::vector<double> vs(static_cast<std::size_t>(shards), 0);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < shards; ++i) {
    jobs.push_back([&c, &vs, i] {
      const std::uint64_t seed =
          core::shard_seed(c.base.seed, static_cast<std::uint64_t>(i));
      const auto tl = service::WorldTimeline::record(
          c.base.world, seed ^ 0x0170BB57ull, c.base.aggregate.gen.horizon,
          c.base.load.epoch_length);
      const service::MediaServerPool pool(seed ^ 0x5EEDull);
      vs[static_cast<std::size_t>(i)] =
          service::AggregateAudience(
              tl, service::make_flash_crowd_schedule(c.base.aggregate), pool,
              c.base.aggregate, c.base.load.epoch_length)
              .total_viewer_seconds();
    });
  }
  core::parallel_invoke(std::move(jobs), threads);
  double total = 0;
  for (double v : vs) total += v;
  return total;
}

/// Per-layer numbers from the first traced round (exact counts) plus the
/// isolated layer replay sized by its counters.
Values layer_values(Kind k, const Options& opts, const Plan& plan,
                    const RoundRun& traced, double untraced_wall_s,
                    const Prepared& prep, Spans& spans, Outcome& out) {
  obs::Registry reg;
  core::KernelTotals kernel;
  double rtmp_bytes = 0;
  double hls_bytes = 0;
  double hls_sessions = 0;
  double reconnects = 0;
  double retries = 0;
  double gave_up = 0;
  for (const core::CampaignResult& r : traced.results) {
    reg.merge(r.metrics);
    kernel.merge(r.kernel);
    for (const core::SessionRecord& rec : r.sessions) {
      const client::SessionStats& s = rec.stats;
      const bool hls = s.protocol == client::Protocol::Hls;
      (hls ? hls_bytes : rtmp_bytes) += static_cast<double>(s.bytes_received);
      hls_sessions += hls ? 1 : 0;
      reconnects += s.reconnects;
      retries += s.retries;
      gave_up += s.outcome == client::Outcome::GaveUp ? 1 : 0;
    }
  }
  const double sessions = static_cast<double>(recorded(traced.results));

  // Wall-clock shard timings from the process registry.
  const auto process = json::parse(obs::process_to_json());
  const json::Value hists =
      process.ok() ? process.value()["histograms"] : json::Value();
  const bool shared = k == Kind::shared_faulted;
  const json::Value& shard_hist =
      hists[shared ? "shard_epoch_wall_s" : "shard_wall_s"];
  const double shard_wall_sum = shard_hist["sum"].as_number();

  const core::StudyConfig& base = plan.front().base;
  const LayerCosts costs = replay_layers(
      service::video_config_for(service::BroadcastInfo{}),
      mix_seed(opts.seed, 0x1A7E), replay_media_s(opts), spans);
  if (!costs.problem.empty()) out.fail(costs.problem);
  // Each session's pipeline encodes and segments from its teleport to
  // the end of the watch (+2 s close).
  const double media_s =
      sessions * (to_s(base.preroll) + to_s(base.watch_time) + 2);
  const double segments = counter_sum(reg, "pipeline_segments_total");
  const double encode_est = media_s * costs.encode_s_per_media_s;
  const double mux_est = segments * costs.mux_s_per_segment;
  const double rtmp_est = rtmp_bytes *
                          (costs.chunk_write_ns_per_byte +
                           costs.chunk_read_ns_per_byte) *
                          1e-9;
  const double captured = rtmp_bytes + hls_bytes;
  const double reconstruct_ns =
      captured > 0 ? (rtmp_bytes * costs.reconstruct_rtmp_ns_per_byte +
                      hls_bytes * costs.reconstruct_hls_ns_per_byte) /
                         captured
                   : 0;
  const double reconstruct_est =
      plan.front().analyze ? captured * reconstruct_ns * 1e-9 : 0;

  Values v = {
      {"core.pool_busy_share",
       shard_wall_sum / (kThreads * traced.wall_s)},
      {"core.shard_wall_p50_s", shard_hist["p50"].as_number()},
      {"core.shard_wall_max_s", shard_hist["max"].as_number()},
      {"core.barrier_wait_s", hists["epoch_barrier_wait_s"]["sum"].as_number()},
      {"core.timeline_record_s", prep.timeline_record_s},
      {"sim.events_executed", static_cast<double>(kernel.events_executed)},
      {"sim.events_cancelled", counter_sum(reg, "sim_events_cancelled_total")},
      {"sim.events_per_cpu_s",
       static_cast<double>(kernel.events_executed) / shard_wall_sum},
      {"sim.wheel_insert_share", static_cast<double>(kernel.wheel_inserts) /
                                     static_cast<double>(
                                         kernel.events_scheduled)},
      {"sim.allocs_per_event", kernel.allocs_per_event()},
      {"util.arena_allocations", static_cast<double>(kernel.arena_allocations)},
      {"util.slice_retains", static_cast<double>(kernel.slice_retains)},
      {"media.encode_ns_per_byte", costs.encode_ns_per_byte},
      {"media.encode_cpu_s_est", encode_est},
      {"mpegts.mux_ns_per_byte", costs.mux_ns_per_byte},
      {"mpegts.mux_cpu_s_est", mux_est},
      {"hls.segments", segments},
      {"rtmp.chunk_write_ns_per_byte", costs.chunk_write_ns_per_byte},
      {"rtmp.chunk_read_ns_per_byte", costs.chunk_read_ns_per_byte},
      {"rtmp.cpu_s_est", rtmp_est},
      {"analysis.reconstruct_ns_per_byte", reconstruct_ns},
      {"analysis.reconstruct_cpu_s_est", reconstruct_est},
      {"layer_coverage_est",
       (encode_est + mux_est + rtmp_est + reconstruct_est) / shard_wall_sum},
      {"service.api_requests", counter_sum(reg, "api_requests_total")},
      {"service.load_bytes", counter_sum(reg, "load_bytes_total")},
      {"service.aggregate_build_s", prep.aggregate_build_s},
      {"client.hls_share", sessions > 0 ? hls_sessions / sessions : 0},
      {"client.reconnects", reconnects},
      {"client.retries", retries},
      {"client.gave_up", gave_up},
      {"fault.episodes", static_cast<double>(prep.fault_episodes)},
  };
  if (k == Kind::flashcrowd_hls) {
    auto s = spans.scope("service.fluid_viewer_seconds");
    v.emplace_back("service.agg_viewer_s_per_s",
                   fluid_viewer_seconds(plan.front(), kThreads) /
                       untraced_wall_s);
  }
  return v;
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return name == "paper_fig3" || name == "shared_faulted" ||
         name == "flashcrowd_hls";
}

Outcome run_campaign_workload(const Options& opts, Spans& spans,
                              bool setup_only, double* ready_s) {
  const Kind k = kind_of(opts.workload);
  Outcome out;
  core::ShardedRunner runner(kThreads);
  const Prepared prep = prepare(k, opts, runner, spans);
  *ready_s = now_s();
  if (setup_only) return out;

  // Measure: run the one round plan (one run_many call) again and again,
  // at least once, and start another round only while it is expected to
  // end within --seconds (judged by the round just run). Every round has
  // the same inputs, so every round's digest must equal the first. Traced
  // runs repeat each round with collectors on; the digest must not change.
  const Plan plan = round_plan(k, plan_seed(opts, k), opts.smoke);
  std::vector<double> rates;
  double wall_total = 0;
  double traced_total = 0;
  Values layers;
  const double start = now_s();
  for (int r = 0;; ++r) {
    const double round_start = now_s();
    {
      const RoundRun run = run_round(runner, plan, false, spans, "run_many");
      check_round(plan, run.results, out);
      const std::string d = digest(run.results);
      if (r == 0) out.digest = d;
      if (d != out.digest) {
        out.fail("round " + std::to_string(r) + " digest " + d +
                 " differs from round 0's " + out.digest);
      }
      rates.push_back(static_cast<double>(recorded(run.results)) /
                      run.wall_s);
      wall_total += run.wall_s;
      std::printf("round %d: sessions=%d wall_s=%.3f digest=%s\n", r,
                  requested(plan), run.wall_s, d.c_str());
    }
    if (opts.traced) {
      obs::process_reset();
      const RoundRun traced =
          run_round(runner, plan, true, spans, "run_many.traced");
      traced_total += traced.wall_s;
      const std::string td = digest(traced.results);
      if (td != out.digest) {
        out.fail("traced digest " + td + " differs from untraced " +
                 out.digest);
      }
      if (r == 0) {
        layers = layer_values(k, opts, plan, traced, wall_total, prep,
                              spans, out);
      }
    }
    const double last = now_s() - round_start;
    if (now_s() - start + last > opts.seconds) break;
  }
  check_threads(k, opts, spans, out);

  if (opts.traced) {
    out.values = std::move(layers);
    out.values.emplace_back("obs.trace_overhead_pct",
                            (traced_total / wall_total - 1) * 100);
  } else {
    out.values = {{"throughput_per_s", analysis::median(rates)},
                  {"peak_rss_mb", peak_rss_mb()}};
  }
  return out;
}

}  // namespace psc::suite
