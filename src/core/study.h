// Study: the top-level facade tying the whole reproduction together.
//
// A Study owns one simulation, one replayed world (a recorded
// WorldTimeline, see WorldContext), the API server and the media server
// pools, and can run:
//   * automated viewing campaigns (the paper's adb Teleport script:
//     teleport -> watch 60 s -> close -> repeat, with tcpdump capture and
//     a mitmproxy logging playbackMeta) — the data of §5;
//   * crawls, via the crawler module against study.api() — the data
//     of §4.
//
// This is the public API a downstream user starts from; see
// examples/quickstart.cpp.
#pragma once

#include <memory>
#include <vector>

#include "analysis/reconstruct.h"
#include "client/device.h"
#include "client/viewer_session.h"
#include "fault/plan.h"
#include "obs/bundle.h"
#include "service/aggregate_audience.h"
#include "service/api.h"
#include "service/chat.h"
#include "service/load.h"
#include "service/pipeline.h"
#include "service/servers.h"
#include "service/world_timeline.h"
#include "sim/simulation.h"
#include "util/buffer.h"

namespace psc::core {

/// How a sharded campaign treats the world and the servers. Every shard
/// replays a recorded WorldTimeline either way; the modes differ in whose.
///  * independent_worlds — each shard records and replays its own world
///    (own_world()) and runs against its own unloaded servers (the
///    default). Fastest; sessions in different shards can never interact.
///  * shared_world — every shard replays one campaign-wide timeline and
///    contends for one set of servers via epoch-reconciled load. Sessions
///    in different shards observe the same broadcasts and each other's
///    server load (one epoch late).
enum class CampaignMode { independent_worlds, shared_world };

struct StudyConfig {
  std::uint64_t seed = 42;
  /// Position of this shard in its campaign (0 for standalone studies).
  /// Set by the sharded runner; folded into session uids so event-log
  /// records and histogram exemplars identify sessions the same way for
  /// any PSC_THREADS.
  std::uint64_t shard_index = 0;
  service::WorldConfig world;
  service::ApiConfig api;
  service::PipelineConfig pipeline;
  /// RTMP keeps ~2 s of buffer (the paper: delivery is <0.3 s, so "the
  /// majority of the few seconds of playback latency ... comes from
  /// buffering"); HLS effectively buffers whole segments.
  client::PlayerConfig rtmp_player{millis(1800), millis(1000)};
  client::PlayerConfig hls_player{millis(500), millis(2000)};
  Duration watch_time = seconds(60);
  /// Enable the HLS transcode ladder + adaptive client (an extension the
  /// paper hypothesised but did not observe in production; see the
  /// ablation_abr figure). Off by default to match the measured service.
  bool hls_adaptive = false;
  /// Broadcast runs this long before the viewer teleports in, so the
  /// origin backlog and the CDN edge have content (a real broadcast has
  /// been running for a while when a viewer joins).
  Duration preroll = seconds(16);
  /// Campaign mode (see CampaignMode). Only consulted by the sharded
  /// runner; a standalone Study runs on whatever WorldContext it is given
  /// (usually own_world(), i.e. independent_worlds).
  CampaignMode mode = CampaignMode::independent_worlds;
  /// Epoch length + load->latency model for shared_world campaigns.
  service::EpochLoadConfig load;
  /// Fault injection + client resilience (docs/ROBUSTNESS.md). Off by
  /// default: the study runs the same code over an empty plan. When
  /// enabled, the plan seed is used verbatim (never mixed with the shard
  /// seed) so every shard replays the same fault timeline, and client
  /// resilience turns on. Resilience is the one remaining switch: its
  /// API retry ladder takes a draw from the study RNG (moving every later
  /// record) and its HLS fetch timeouts schedule kernel events, so
  /// turning it on for clean runs would change them.
  fault::FaultConfig fault;
  /// Hybrid-fidelity aggregate audience tier (flash crowds + fluid load;
  /// service/aggregate_audience.h). Off by default; off, the study prices
  /// load against an empty board (a zero penalty).
  service::AggregateConfig aggregate;
};

/// The world a Study runs in: the recorded timeline it replays, the
/// merged load it prices sessions against and the fluid audience on top.
/// A shared-world shard gets the campaign's context from the runner; an
/// independent shard builds its own with own_world().
struct WorldContext {
  std::shared_ptr<const service::WorldTimeline> timeline;
  /// Merged load of past epochs, never null: empty (every penalty 0)
  /// unless a shared-world runner or the fluid tier fills it. Only
  /// epochs the owner has already merged are ever read.
  std::shared_ptr<const service::EpochLoadBoard> load_board =
      std::make_shared<const service::EpochLoadBoard>();
  /// Seeds the server pool (`campaign_seed ^ 0x5EED`). In a shared-world
  /// campaign this is the *campaign* seed, so every shard's pool is
  /// identical and load accounts key to the same ips.
  std::uint64_t campaign_seed = 0;
  /// Fluid audience over the timeline (immutable, read lock-free by all
  /// shards); nullptr = tier off.
  std::shared_ptr<const service::AggregateAudience> aggregate;
};

/// How much world history a Study running `sessions` teleport-watch-close
/// cycles needs recorded: the 30 s warmup, one cycle (preroll + watch +
/// close/home pacing) per session plus a spare one, and slack for join
/// time and no-broadcast retries — raised to the flash-crowd horizon when
/// the fluid tier is on, since a shared-world campaign's audience
/// integrates over the same recording. A session that would outrun the
/// recorded horizon throws std::logic_error.
Duration world_horizon(const StudyConfig& cfg, int sessions);

/// An independent shard's context: its own world (seed `cfg.seed ^
/// 0x0170BB57`) recorded over world_horizon(cfg, sessions), its own server
/// seed and, with the fluid tier on, a private audience whose load is
/// pre-merged into a private board, so sessions pay the aggregate load
/// penalties from epoch 1 on without the shared-world barrier schedule.
WorldContext own_world(const StudyConfig& cfg, int sessions);

/// The fluid audience of the campaign seeded `cfg.seed` over `timeline`,
/// routed through the campaign's server pool (seed `cfg.seed ^ 0x5EED`,
/// the pool every Study of that campaign builds).
std::shared_ptr<const service::AggregateAudience> campaign_audience(
    const StudyConfig& cfg,
    std::shared_ptr<const service::WorldTimeline> timeline);

/// One completed viewing session: the app-reported stats plus the offline
/// capture reconstruction.
struct SessionRecord {
  client::SessionStats stats;
  analysis::StreamAnalysis analysis;
};

/// Raw kernel + allocator totals of a campaign, independent of the
/// observability toggles (the BENCH `allocs_per_event` field must exist
/// in collectors-off runs too). Summed across shards in shard order.
struct KernelTotals {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t wheel_inserts = 0;
  std::uint64_t callback_heap_allocs = 0;
  /// Fresh allocator hits attributable to the media-path arena
  /// (buffers + block headers); pool reuse keeps this near-constant.
  std::uint64_t arena_allocations = 0;
  std::uint64_t arena_buffers_reused = 0;
  std::uint64_t slices_adopted = 0;
  std::uint64_t slice_retains = 0;

  void merge(const KernelTotals& o) {
    events_executed += o.events_executed;
    events_scheduled += o.events_scheduled;
    wheel_inserts += o.wheel_inserts;
    callback_heap_allocs += o.callback_heap_allocs;
    arena_allocations += o.arena_allocations;
    arena_buffers_reused += o.arena_buffers_reused;
    slices_adopted += o.slices_adopted;
    slice_retains += o.slice_retains;
  }
  /// Tracked allocations per executed event — the media-path zero-copy
  /// regression metric (docs/PERFORMANCE.md).
  double allocs_per_event() const {
    if (events_executed == 0) return 0.0;
    return static_cast<double>(arena_allocations + callback_heap_allocs) /
           static_cast<double>(events_executed);
  }
};

struct CampaignResult {
  std::vector<SessionRecord> sessions;

  /// Kernel/allocator counters summed across this campaign's shards.
  /// Always populated by the sharded runner (no obs toggle needed).
  KernelTotals kernel;

  /// Deterministic metric snapshot of the campaign: per-shard registries
  /// merged in shard order, so the same campaign produces a byte-identical
  /// to_json() for any PSC_THREADS. Empty when observability was off.
  obs::Registry metrics;
  /// One sim-time trace lane per shard (index = shard = Chrome tid);
  /// serialize with obs::chrome_trace_json(). Empty when tracing was off.
  std::vector<std::vector<obs::TraceEvent>> shard_traces;
  /// Structured per-session event logs, appended in shard order (see
  /// obs/eventlog.h). Empty when metrics were off.
  std::vector<obs::LogEvent> events;
  /// Per-epoch SLO observations, merged in shard order; evaluate with
  /// obs::evaluate_slo()/obs::slo_json(). Empty when metrics were off.
  obs::SloTrack slo;

  std::vector<SessionRecord> rtmp() const;
  std::vector<SessionRecord> hls() const;
  /// Extract one metric across records.
  static std::vector<double> metric(
      const std::vector<SessionRecord>& recs,
      double (*fn)(const SessionRecord&));
};

class Study {
 public:
  /// The world is a ReplayWorld over `world.timeline`, the server pool is
  /// seeded from `world.campaign_seed`, and sessions run against the load
  /// in `world.load_board` while contributing to this shard's ledger.
  /// Throws std::invalid_argument when faults are on and
  /// `cfg.fault.plan_text` does not parse.
  Study(const StudyConfig& cfg, WorldContext world);

  /// Run `n` sequential Teleport sessions on `device_cfg` with the given
  /// downlink cap (0 => unlimited). Captures are reconstructed when
  /// `analyze` is set. Every call adds one new device; to run a campaign
  /// on two device configs, call once per config (as
  /// run_two_device_campaign does).
  CampaignResult run_campaign(int n, BitRate bandwidth_limit,
                              const client::DeviceConfig& device_cfg,
                              bool analyze = true);

  /// The paper's setup: half the sessions on a Galaxy S3, then the other
  /// half on an S4 (begin_campaign's `two_device` mode alternates them
  /// per session instead).
  CampaignResult run_two_device_campaign(int n, BitRate bandwidth_limit,
                                         bool analyze = true);

  /// --- Epoch-stepped driving (shared-world campaigns) ---
  /// Run the 30 s warmup and create the campaign devices (S3+S4
  /// alternating when `two_device`, else `device_cfg`). Idempotent.
  void begin_campaign(BitRate bandwidth_limit, bool two_device,
                      const client::DeviceConfig& device_cfg);
  /// Run whole sessions — teleport, watch, close — while the sim clock is
  /// before `deadline` and fewer than `max_sessions` have been attempted
  /// in total. A session that starts before the deadline may finish past
  /// it (its load lands in later epochs and is merged at later barriers).
  /// Completed records append to `out`. Returns sessions attempted now.
  /// Before returning (the shard then parks at the epoch barrier) it
  /// frees the storage pooled in the shard's arena.
  int run_sessions_until(TimePoint deadline, int max_sessions, bool analyze,
                         CampaignResult* out);
  /// Total sessions attempted via run_sessions_until so far.
  int sessions_attempted() const { return epoch_attempted_; }

  /// This shard's metric/trace sink, or nullptr when observability is off
  /// at runtime (PSC_METRICS / PSC_TRACE_OUT unset) — instrumented
  /// components then skip their recording branches entirely.
  obs::Obs* obs_ptr() { return obs::enabled() ? &obs_ : nullptr; }
  obs::Obs& obs() { return obs_; }
  /// Fold the kernel counters (events scheduled/executed/cancelled, peak
  /// heap depth, callback heap allocs, virtual time) and the server
  /// pool's load-ledger occupancy into the registry. Call once, after the
  /// campaign; the sharded runner does this before harvesting the shard.
  void finalize_obs();

  /// Raw kernel + arena counters of this shard so far (no obs needed).
  KernelTotals kernel_totals() const;

  /// The campaign's fault timeline; empty when faults are off.
  const fault::Plan& fault_plan() const { return fault_plan_; }

  /// The fluid audience this study runs under, or nullptr (tier off).
  const service::AggregateAudience* aggregate() const {
    return aggregate_.get();
  }

  sim::Simulation& sim() { return sim_; }
  service::WorldView& world_view() { return world_; }
  service::ApiServer& api() { return api_; }
  service::MediaServerPool& servers() { return servers_; }
  const StudyConfig& config() const { return cfg_; }

  static client::DeviceConfig galaxy_s3();
  static client::DeviceConfig galaxy_s4();

 private:
  /// One teleport-watch-close cycle; returns nullopt when no broadcast
  /// was available.
  std::optional<SessionRecord> run_one_session(
      client::Device& device, bool analyze);
  /// Run the 30 s warm-up before the first session. Idempotent.
  void warm_up();
  /// Run one session on `device` (its record, if any, appends to `out`
  /// when `out` is set), then the 3 s of close/home pacing before the
  /// next Teleport, then purge_retired().
  void step_session(client::Device& device, bool analyze,
                    CampaignResult* out);
  /// Destroy retired objects whose event horizon has passed.
  void purge_retired();

  /// The client resilience policy, or nullptr when faults are off.
  const fault::ResilienceConfig* resilience() const {
    return cfg_.fault.enabled ? &cfg_.fault.policy : nullptr;
  }
  /// accessVideo, retried on 5xx with the resilience policy's API ladder
  /// when resilience is on. Returns the response, or nullopt when a 5xx
  /// exhausts the retry budget (or there is none).
  std::optional<json::Value> access_video(const std::string& broadcast_id,
                                          std::size_t session_idx);

  /// Replay the just-ended session's event log against the fault-plan
  /// windows and the load penalty it paid, then record per-cause
  /// stall/slow-join series into the registry (obs/attrib.h).
  void attribute_current_session(obs::Obs* o, std::uint64_t uid,
                                 TimePoint begin, TimePoint end,
                                 Duration penalty_paid);

  /// Upload playbackMeta as the app does (full stats for RTMP, only the
  /// stall count after an HLS session — §2 of the paper).
  void report_playback_meta(const client::SessionStats& st);

  StudyConfig cfg_;
  /// One immutable fault timeline per shard, derived from campaign-level
  /// config only; the API server, the CDN edges and the sessions read it.
  const fault::Plan fault_plan_;
  sim::Simulation sim_;
  Rng rng_;
  /// Media-path buffer recycler, one per shard (deterministic). Declared
  /// before the retired lists so it outlives every pipeline and capture
  /// holding a segment slice (late releases after arena destruction are
  /// still safe — they fall back to the allocator — but recycling is the
  /// point).
  util::BufferArena arena_;
  /// Single-writer observability bundle, owned like the RNG and the sim:
  /// one per shard, merged in shard order by the runner.
  obs::Obs obs_;
  service::ReplayWorld world_;
  std::shared_ptr<const service::EpochLoadBoard> load_board_;
  std::shared_ptr<const service::AggregateAudience> aggregate_;
  service::MediaServerPool servers_;
  service::ApiServer api_;

  bool warmed_up_ = false;
  bool campaign_begun_ = false;
  int epoch_attempted_ = 0;
  std::size_t session_counter_ = 0;
  /// Retired pipelines and sessions, each with the time after which no
  /// simulation event references it: kept alive (with bulk buffers
  /// freed) until purge_retired() passes that time.
  std::vector<std::pair<TimePoint,
                        std::unique_ptr<service::LiveBroadcastPipeline>>>
      retired_pipelines_;
  std::vector<std::pair<TimePoint, std::unique_ptr<client::ViewerSession>>>
      retired_sessions_;
  std::vector<std::unique_ptr<client::Device>> devices_;
};

}  // namespace psc::core
