// What the figures under bench/figures/ share: the FigureResult each one
// returns, the campaign helper, the scale knobs and the sweeps of §5.
// bench/psc_figures.cpp registers the figures and runs them.
#pragma once

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/charts.h"
#include "analysis/stats.h"
#include "bench_common.h"

namespace psc::bench {

/// The fields a figure adds to its BENCH line after the shared ones:
/// numbers first, then strings, each in print order.
struct FigureResult {
  std::vector<std::pair<std::string, double>> values = {};
  std::vector<std::pair<std::string, std::string>> labels = {};
};

/// The results of a figure's campaigns, in campaign order.
struct Campaigns {
  std::vector<core::CampaignResult> results;
  double sessions = 0;  // recorded sessions over all campaigns
};

/// Run `campaigns` on one ShardedRunner (all shards feed one pool), fold
/// each result into `reporter` in campaign order and count the sessions.
inline Campaigns run_campaigns(
    Reporter& reporter, const std::vector<core::ShardedCampaign>& campaigns) {
  core::ShardedRunner runner;
  Campaigns out{runner.run_many(campaigns)};
  for (const core::CampaignResult& r : out.results) {
    reporter.add(r);
    out.sessions += static_cast<double>(r.sessions.size());
  }
  return out;
}

inline int sessions_unlimited() { return env_int("PSC_SESSIONS", 240); }
inline int sessions_per_bw() { return env_int("PSC_BW_SESSIONS", 60); }
inline double crawl_hours() { return env_double("PSC_CRAWL_HOURS", 2); }

/// Turn the PSC_FAULT_SEED / PSC_FAULT_PLAN env knobs into StudyConfig
/// fault settings. No-op when neither is set. An unreadable plan file
/// exits the process (status 2): a run must never report a plan it did
/// not replay. A malformed one makes the Study constructor throw.
inline void apply_fault_env(core::StudyConfig& cfg) {
  if (!fault_env_enabled()) return;
  cfg.fault.enabled = true;
  cfg.fault.seed = fault_seed() != 0 ? fault_seed() : 1;
  const std::string path = fault_plan_path();
  if (path.empty()) return;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "psc: cannot read PSC_FAULT_PLAN %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  cfg.fault.plan_text = text.str();
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

/// The registered figures, one per file in bench/figures/.
namespace psc::figures {
bench::FigureResult table1_api(bench::Reporter& reporter);
bench::FigureResult fig1_crawl(bench::Reporter& reporter);
bench::FigureResult fig2_usage(bench::Reporter& reporter);
bench::FigureResult fig3_stalls(bench::Reporter& reporter);
bench::FigureResult fig4_latency(bench::Reporter& reporter);
bench::FigureResult fig5_delivery(bench::Reporter& reporter);
bench::FigureResult fig6_video(bench::Reporter& reporter);
bench::FigureResult fig7_qp(bench::Reporter& reporter);
bench::FigureResult fig8_power(bench::Reporter& reporter);
bench::FigureResult stats_text(bench::Reporter& reporter);
bench::FigureResult fault_qoe(bench::Reporter& reporter);
bench::FigureResult flashcrowd(bench::Reporter& reporter);
bench::FigureResult ablation_abr(bench::Reporter& reporter);
bench::FigureResult ablation_buffer(bench::Reporter& reporter);
bench::FigureResult ablation_gop(bench::Reporter& reporter);
bench::FigureResult ablation_segment(bench::Reporter& reporter);
bench::FigureResult ablation_transport(bench::Reporter& reporter);
}  // namespace psc::figures
