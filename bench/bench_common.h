// Shared helpers for the figure-regeneration benches.
//
// Every bench prints (1) the paper's reported shape, (2) the simulated
// series, and (3) the ASCII rendering of the figure, and finishes with a
// machine-readable `BENCH {...}` JSON line (see docs/PERFORMANCE.md) so
// the perf trajectory can be tracked across commits. Scale knobs come
// from the environment so CI can run small and a full reproduction can
// run at paper scale:
//   PSC_SESSIONS   viewing sessions in the unlimited-bandwidth campaign
//                  (paper: 3382; default here: 240)
//   PSC_BW_SESSIONS  sessions per bandwidth limit (paper: 18-91; 60)
//   PSC_CRAWL_HOURS  targeted crawl length in sim hours (paper: 4-10; 2;
//                    fractional values allowed)
//   PSC_THREADS      worker threads for sharded campaigns (default:
//                    hardware concurrency). Results are byte-identical
//                    for a given seed regardless of this knob.
//   PSC_SHARD_SESSIONS  sessions per shard (default 12). Part of the
//                    deterministic shard plan: changing it changes which
//                    per-shard worlds are simulated.
//   PSC_MODE         campaign mode for sharded campaigns: "independent"
//                    (default; per-shard worlds) or "shared" (one
//                    recorded world + epoch-reconciled server load, see
//                    docs/PERFORMANCE.md). Either way results are
//                    byte-identical across PSC_THREADS.
//   PSC_METRICS      truthy: collect campaign metrics; a value other than
//                    "1" doubles as the snapshot output path. See
//                    docs/OBSERVABILITY.md and the Reporter class below.
//   PSC_TRACE_OUT    write a Chrome trace_event JSON to this path.
//   PSC_FAULT_SEED   non-zero: enable fault injection with a plan
//                    generated from this seed (docs/ROBUSTNESS.md).
//   PSC_FAULT_PLAN   path to a fault-plan text file; enables fault
//                    injection and overrides the generated plan.
//   PSC_AGG_PEAK     hybrid-fidelity benches: flash-crowd spike scale in
//                    viewers (default 150000; docs/EXPERIMENTS.md).
//   PSC_AGG_SAMPLE   cohort sample-rate denominator (default 100: one
//                    full-protocol session per 100 aggregate viewers).
//   PSC_FLASH_SEED   flash-crowd schedule seed (default 11), used
//                    verbatim — never mixed with shard seeds.
// Every bench also accepts --metrics-out=FILE / --trace-out=FILE flags,
// which enable collection and set the output path in one step.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "analysis/charts.h"
#include "analysis/stats.h"
#include "core/parallel.h"
#include "core/study.h"
#include "obs/attrib.h"
#include "obs/slo.h"

namespace psc::bench {

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline int sessions_unlimited() { return env_int("PSC_SESSIONS", 240); }
inline int sessions_per_bw() { return env_int("PSC_BW_SESSIONS", 60); }
inline double crawl_hours() { return env_double("PSC_CRAWL_HOURS", 2); }
inline int threads() { return core::ShardedRunner::default_threads(); }
inline int shard_sessions() { return env_int("PSC_SHARD_SESSIONS", 12); }

inline core::CampaignMode campaign_mode() {
  const char* v = std::getenv("PSC_MODE");
  return v != nullptr && std::string(v) == "shared"
             ? core::CampaignMode::shared_world
             : core::CampaignMode::independent_worlds;
}
inline const char* mode_name(core::CampaignMode m) {
  return m == core::CampaignMode::shared_world ? "shared" : "independent";
}

/// --- Fault injection knobs (docs/ROBUSTNESS.md) ---

inline std::uint64_t fault_seed() {
  const char* v = std::getenv("PSC_FAULT_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 0;
}

inline std::string fault_plan_path() {
  const char* v = std::getenv("PSC_FAULT_PLAN");
  return v != nullptr ? std::string(v) : std::string();
}

inline bool fault_env_enabled() {
  return fault_seed() != 0 || !fault_plan_path().empty();
}

/// The fault fields every BENCH line carries (empty/0 = faults off).
/// Defaults come from the env; benches that sweep several plans (e.g.
/// bench_fault_qoe) overwrite them per BENCH line via set_fault_fields.
struct FaultBenchFields {
  std::string plan;  // plan label or file path; "" when faults are off
  std::uint64_t seed = 0;
};

inline FaultBenchFields& fault_bench_fields() {
  static FaultBenchFields fields = [] {
    FaultBenchFields f;
    if (fault_env_enabled()) {
      f.seed = fault_seed();
      f.plan = fault_plan_path().empty() ? "generated" : fault_plan_path();
    }
    return f;
  }();
  return fields;
}

inline void set_fault_fields(const std::string& plan, std::uint64_t seed) {
  fault_bench_fields() = FaultBenchFields{plan, seed};
}

/// Turn the PSC_FAULT_SEED / PSC_FAULT_PLAN env knobs into StudyConfig
/// fault settings. No-op when neither is set. An unreadable plan file
/// exits the process (status 2): a run must never report a plan it did
/// not replay. A malformed one makes the Study constructor throw.
inline void apply_fault_env(core::StudyConfig& cfg) {
  if (!fault_env_enabled()) return;
  cfg.fault.enabled = true;
  cfg.fault.seed = fault_seed() != 0 ? fault_seed() : 1;
  const std::string path = fault_plan_path();
  if (!path.empty()) {
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        cfg.fault.plan_text.append(buf, n);
      }
      std::fclose(f);
    } else {
      std::fprintf(stderr, "psc: cannot read PSC_FAULT_PLAN %s\n",
                   path.c_str());
      std::exit(2);
    }
  }
}

/// --- Hybrid-fidelity aggregate-audience knobs (docs/EXPERIMENTS.md) ---

inline double agg_peak() { return env_double("PSC_AGG_PEAK", 150e3); }
inline double agg_sample_denominator() {
  return env_double("PSC_AGG_SAMPLE", 100);
}
inline std::uint64_t flash_seed() {
  const char* v = std::getenv("PSC_FLASH_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 11;
}

/// Turn on the fluid audience tier for a campaign: flash-crowd spikes
/// scaled to PSC_AGG_PEAK over `horizon`, cohort at `sample_rate`.
inline void configure_aggregate(core::StudyConfig& cfg, Duration horizon,
                                double sample_rate) {
  cfg.aggregate.enabled = true;
  cfg.aggregate.schedule_seed = flash_seed();
  cfg.aggregate.gen.horizon = horizon;
  cfg.aggregate.gen.peak_xm = std::max(1e3, agg_peak() / 8);
  cfg.aggregate.gen.peak_cap = agg_peak();
  cfg.aggregate.sample_rate = sample_rate;
}

inline core::StudyConfig default_study_config(std::uint64_t seed = 2016) {
  core::StudyConfig cfg;
  cfg.seed = seed;
  cfg.world.target_concurrent = 800;
  cfg.world.hotspot_count = 120;
  apply_fault_env(cfg);
  return cfg;
}

/// A two-device (S3/S4) campaign for the sharded runner, configured from
/// the usual env knobs.
inline core::ShardedCampaign sharded_campaign(std::uint64_t seed, int n,
                                              BitRate bandwidth_limit = 0,
                                              bool analyze = false) {
  core::ShardedCampaign c;
  c.base = default_study_config(seed);
  c.base.mode = campaign_mode();
  c.sessions = n;
  c.bandwidth_limit = bandwidth_limit;
  c.analyze = analyze;
  c.shard_size = shard_sessions();
  return c;
}

/// Wall-clock timer for the BENCH line.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// THE one BENCH printf site. Every binary's machine-readable result line
/// goes through here, so the field set (threads/shard_size/mode — once
/// added piecemeal per binary) can never drift between benches again.
/// One line per run, always prefixed "BENCH " + a single JSON object:
///   BENCH {"bench":"fig3_stalls","wall_s":4.21,"threads":8,
///          "shard_size":12,"mode":"independent","fault_plan":"",
///          "fault_seed":0,"sessions":240}
/// The fault fields are always present — "" / 0 when injection is off —
/// so the perf trajectory can tell faulted runs from clean ones.
/// When the run collected metrics, the line also carries the series count
/// so the perf trajectory records whether instrumentation was on.
/// `kernel` (optional) carries the campaign's raw kernel/allocator totals;
/// the derived `allocs_per_event` field is ALWAYS printed (0 when the
/// bench has no campaign) so the perf trajectory can regress on it without
/// special-casing collectors-off runs.
inline void emit_bench_line(
    const char* bench, double wall_s, const obs::Registry& metrics,
    std::initializer_list<std::pair<const char*, double>> extra = {},
    const core::KernelTotals* kernel = nullptr,
    const std::vector<std::pair<std::string, std::string>>& str_extra = {}) {
  std::printf(
      "BENCH {\"bench\":\"%s\",\"wall_s\":%.3f,\"threads\":%d,"
      "\"shard_size\":%d,\"mode\":\"%s\",\"fault_plan\":\"%s\","
      "\"fault_seed\":%llu,\"allocs_per_event\":%.6f",
      bench, wall_s, threads(), shard_sessions(),
      mode_name(campaign_mode()), fault_bench_fields().plan.c_str(),
      static_cast<unsigned long long>(fault_bench_fields().seed),
      kernel != nullptr ? kernel->allocs_per_event() : 0.0);
  if (kernel != nullptr && kernel->events_executed > 0) {
    std::printf(",\"events_executed\":%llu,\"arena_allocs\":%llu,"
                "\"slice_retains\":%llu,\"wheel_inserts\":%llu",
                static_cast<unsigned long long>(kernel->events_executed),
                static_cast<unsigned long long>(kernel->arena_allocations),
                static_cast<unsigned long long>(kernel->slice_retains),
                static_cast<unsigned long long>(kernel->wheel_inserts));
  }
  for (const auto& [key, value] : extra) {
    std::printf(",\"%s\":%g", key, value);
  }
  for (const auto& [key, value] : str_extra) {
    // String values are trusted literals (cause names, labels).
    std::printf(",\"%s\":\"%s\"", key.c_str(), value.c_str());
  }
  if (!metrics.empty()) {
    std::printf(",\"metric_series\":%zu", metrics.series());
  }
  std::printf("}\n");
}

/// Campaign observability for a bench binary.
///
/// Construct FIRST (before building any Study): the constructor reads
/// --metrics-out=FILE / --trace-out=FILE flags and flips the runtime
/// obs toggles, which Studies sample at construction. Environment
/// equivalents: PSC_METRICS (truthy enables collection; any value other
/// than "1" is used as the snapshot path) and PSC_TRACE_OUT (trace file
/// path). Then add() each CampaignResult and finish() once: it emits the
/// consolidated BENCH line and writes the JSON snapshot / Chrome trace.
///
/// The snapshot file has five keys: "config" (run knobs), "metrics"
/// (the deterministic campaign registry — byte-identical across
/// PSC_THREADS), "attribution" (per-cause stall budget, derived from the
/// registry), "slo" (objective evaluation over the merged SloTrack) and
/// "process" (wall-clock shard/barrier timings, which are *not*
/// deterministic; CI diffs the deterministic keys only).
///
/// If a bench exits early (exception, std::exit before finish()), the
/// destructor still flushes whatever campaigns were add()ed to the
/// requested output files — a partial snapshot beats a silent zero-byte
/// one. Only finish() prints the BENCH line.
class Reporter {
 public:
  explicit Reporter(const char* bench, int argc = 0, char** argv = nullptr)
      : bench_(bench) {
    if (const char* v = std::getenv("PSC_METRICS")) {
      const std::string s = v;
      if (!s.empty() && s != "0" && s != "1") metrics_path_ = s;
    }
    if (const char* v = std::getenv("PSC_TRACE_OUT")) trace_path_ = v;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_path_ = arg.substr(14);
        obs::set_metrics_enabled(true);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        trace_path_ = arg.substr(12);
        obs::set_trace_enabled(true);
      }
    }
  }

  /// True when any flag/env argument `arg` belongs to this Reporter
  /// (benches with their own arg parsing skip these).
  static bool owns_flag(const std::string& arg) {
    return arg.rfind("--metrics-out=", 0) == 0 ||
           arg.rfind("--trace-out=", 0) == 0;
  }

  ~Reporter() {
    if (!finished_) write_outputs();
  }

  /// Fold one campaign's deterministic metrics, SLO observations and
  /// per-shard trace lanes into the bench-wide aggregate (call in
  /// campaign order).
  void add(const core::CampaignResult& r) {
    merged_.merge(r.metrics);
    kernel_.merge(r.kernel);
    slo_.merge(r.slo);
    for (const auto& lane : r.shard_traces) lanes_.push_back(lane);
  }

  /// Kernel/allocator totals aggregated over the added campaigns.
  const core::KernelTotals& kernel() const { return kernel_; }

  /// Metrics recorded by the bench itself (outside any campaign).
  obs::Registry& local() { return merged_; }

  /// The SLO observations aggregated over the added campaigns.
  const obs::SloTrack& slo() const { return slo_; }

  /// Extra string-valued BENCH fields (e.g. the top stall causes),
  /// appended after the numeric extras on the next finish().
  void add_string_field(const std::string& key, const std::string& value) {
    string_extras_.emplace_back(key, value);
  }

  /// Emit the BENCH line and write the requested output files.
  void finish(double wall_s,
              std::initializer_list<std::pair<const char*, double>> extra =
                  {}) {
    finished_ = true;
    emit_bench_line(bench_.c_str(), wall_s, merged_, extra, &kernel_,
                    string_extras_);
    write_outputs();
  }

 private:
  void write_outputs() {
    if (!metrics_path_.empty() && obs::metrics_enabled()) {
      std::string out = "{\"config\":{\"bench\":\"" + bench_ + "\"";
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    ",\"threads\":%d,\"shard_size\":%d,\"mode\":\"%s\"},",
                    threads(), shard_sessions(),
                    mode_name(campaign_mode()));
      out += buf;
      out += "\"metrics\":" + merged_.to_json();
      out += ",\"attribution\":" + obs::attribution_json(merged_);
      out += ",\"slo\":" + obs::slo_json(slo_, obs::active_slo_config());
      out += ",\"process\":" + obs::process_to_json();
      out += "}\n";
      write_file(metrics_path_, out);
    }
    if (!trace_path_.empty() && obs::trace_enabled()) {
      write_file(trace_path_, obs::chrome_trace_json(lanes_));
    }
  }

  static void write_file(const std::string& path, const std::string& data) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
  }

  std::string bench_;
  std::string metrics_path_;
  std::string trace_path_;
  bool finished_ = false;
  obs::Registry merged_;
  obs::SloTrack slo_;
  core::KernelTotals kernel_;
  std::vector<std::vector<obs::TraceEvent>> lanes_;
  std::vector<std::pair<std::string, std::string>> string_extras_;
};

inline void print_header(const char* id, const char* title,
                         const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("==============================================================\n");
}

/// The tc sweep used in §5: limits in Mbps, 0 = unlimited (plotted as
/// "100" in the paper's figures).
inline std::vector<double> bandwidth_limits_mbps() {
  return {0.5, 1.0, 2.0, 4.0, 0.0};
}

inline std::string bw_label(double mbps) {
  if (mbps <= 0) return "unlim";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g Mbps", mbps);
  return buf;
}

inline std::vector<double> collect(
    const std::vector<core::SessionRecord>& recs,
    double (*fn)(const core::SessionRecord&)) {
  std::vector<double> out;
  out.reserve(recs.size());
  for (const auto& r : recs) out.push_back(fn(r));
  return out;
}

}  // namespace psc::bench
