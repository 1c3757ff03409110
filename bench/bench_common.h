// Shared pieces of the bench binaries (psc_figures, bench_micro_*,
// bench_gateway) and tools/psc_gateway: env knobs, the BENCH line and the
// observability Reporter. The knobs are listed in bench/psc_figures.cpp.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

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
/// fault_qoe) overwrite them per BENCH line via set_fault_fields.
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
    const std::vector<std::pair<std::string, double>>& extra = {},
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
                "\"slice_retains\":%llu",
                static_cast<unsigned long long>(kernel->events_executed),
                static_cast<unsigned long long>(kernel->arena_allocations),
                static_cast<unsigned long long>(kernel->slice_retains));
  }
  for (const auto& [key, value] : extra) {
    std::printf(",\"%s\":%g", key.c_str(), value);
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

  /// The added campaigns' merged metrics, plus any the bench records
  /// itself outside a campaign.
  obs::Registry& local() { return merged_; }

  /// Emit the BENCH line and write the requested output files.
  /// `str_extra` (e.g. the top stall causes) follows the numeric `extra`.
  void finish(
      double wall_s,
      const std::vector<std::pair<std::string, double>>& extra = {},
      const std::vector<std::pair<std::string, std::string>>& str_extra =
          {}) {
    finished_ = true;
    emit_bench_line(bench_.c_str(), wall_s, merged_, extra, &kernel_,
                    str_extra);
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
};

inline void print_header(const char* id, const char* title,
                         const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("==============================================================\n");
}

}  // namespace psc::bench
