// QoE under injected faults: Fig.-3-style stall CDFs for a clean run vs.
// radio faults (link blackouts, rate collapses, handover gaps), server
// faults (CDN-edge outages, origin restarts, API bursts) and everything
// at once — plus the resilience ledger (reconnects, retries, give-ups).
//
// The four sweeps share one campaign seed, so the *same* sessions run
// under each fault mask and the CDFs differ only by the injected
// episodes. The fault plan seed is used verbatim in every shard (see
// docs/ROBUSTNESS.md), so results are byte-identical across PSC_THREADS
// in both campaign modes — CI diffs this figure's output at 1 vs 4
// threads with faults enabled.
//
// Knobs on top of the usual ones (bench/psc_figures.cpp):
//   PSC_FAULT_SEED       plan seed for the sweeps (default 7)
//   PSC_FAULT_PLAN       plan file; replaces the generated "all" sweep
//   PSC_FAULT_INTENSITY  episode-count multiplier (default 1.0)
#include "figure.h"

#include "fault/plan.h"

using namespace psc;

namespace {

struct Sweep {
  const char* label;
  unsigned kinds;  // fault::kind_bit mask; 0 = faults off
};

}  // namespace

bench::FigureResult figures::fault_qoe(bench::Reporter& reporter) {
  const std::uint64_t fseed =
      bench::fault_seed() != 0 ? bench::fault_seed() : 7;
  const double intensity = bench::env_double("PSC_FAULT_INTENSITY", 1.0);
  const int n = std::max(1, bench::sessions_unlimited() / 2);

  const std::vector<Sweep> sweeps = {
      {"none", 0u},
      {"radio", fault::kRadioKinds},
      {"servers", fault::kServerKinds},
      {"all", fault::kAllKinds},
  };

  std::vector<core::ShardedCampaign> campaigns;
  for (const Sweep& s : sweeps) {
    core::ShardedCampaign c = bench::sharded_campaign(47, n);
    c.base.fault.enabled = s.kinds != 0;
    c.base.fault.seed = fseed;
    c.base.fault.gen.kinds = s.kinds;
    c.base.fault.gen.intensity = intensity;
    // A PSC_FAULT_PLAN file stands in for the generated all-kinds plan;
    // the masked sweeps always generate so the masks mean something.
    if (s.kinds != fault::kAllKinds) c.base.fault.plan_text.clear();
    campaigns.push_back(std::move(c));
  }
  const bench::Campaigns run = bench::run_campaigns(reporter, campaigns);

  double total_gave_up = 0, total_reconnects = 0, total_retries = 0;
  std::vector<analysis::Series> cdf_series;
  std::printf("\nper-sweep resilience ledger (n=%d attempted each):\n", n);
  std::printf("  %-8s %9s %9s %10s %8s %8s\n", "sweep", "recorded",
              "gave_up", "reconnects", "retries", "stall>0");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const core::CampaignResult& r = run.results[i];
    double gave_up = 0, reconnects = 0, retries = 0, stalled = 0;
    std::vector<double> ratios;
    ratios.reserve(r.sessions.size());
    for (const core::SessionRecord& rec : r.sessions) {
      if (rec.stats.outcome == client::Outcome::GaveUp) ++gave_up;
      reconnects += rec.stats.reconnects;
      retries += rec.stats.retries;
      if (rec.stats.stall_ratio > 0) ++stalled;
      ratios.push_back(rec.stats.stall_ratio);
    }
    std::printf("  %-8s %9zu %9.0f %10.0f %8.0f %8.0f\n", sweeps[i].label,
                r.sessions.size(), gave_up, reconnects, retries, stalled);
    cdf_series.push_back({sweeps[i].label, std::move(ratios)});
    total_gave_up += gave_up;
    total_reconnects += reconnects;
    total_retries += retries;
  }

  std::printf("\nstall-ratio CDFs (clean vs. faulted):\n%s\n",
              analysis::render_cdf(cdf_series, 0, 0.6, "stall ratio")
                  .c_str());

  bench::set_fault_fields(bench::fault_plan_path().empty()
                              ? "sweep"
                              : bench::fault_plan_path(),
                          fseed);

  // The stall budget's top three causes ride the BENCH line so the perf
  // trajectory can see *why* a faulted run stalled, not just how much.
  // All six fields are always present ("" / 0 when attribution found
  // fewer than three causes, e.g. collectors off or a clean run).
  const auto top = obs::top_causes(reporter.local(), 3);
  bench::FigureResult result{.values = {{"sessions", run.sessions},
                                        {"gave_up", total_gave_up},
                                        {"reconnects", total_reconnects},
                                        {"retries", total_retries}}};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string key = "cause_" + std::to_string(i + 1);
    result.values.emplace_back(key + "_s", i < top.size() ? top[i].second : 0);
    result.labels.emplace_back(key,
                               i < top.size() ? top[i].first : std::string());
  }
  return result;
}
