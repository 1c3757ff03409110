// Hybrid-fidelity flash-crowd campaign: a fluid AggregateAudience carries
// 10^5..10^6 viewers per shard (arrivals/departures + flash-crowd spikes
// resolved onto live broadcasts) while a deterministically sampled cohort
// runs the full RTMP/HLS pipeline and measures Fig.-3-style QoE *under*
// that load. Two campaigns share one seed at different cohort sample
// rates; since the fluid tier never reads the sample rate, their
// aggregate trajectories are identical and their reweighted QoE CDFs must
// agree (weighted KS distance printed below, asserted in CI).
//
// Knobs on top of the usual ones (bench/psc_figures.cpp):
//   PSC_AGG_PEAK    spike-size scale/cap in viewers (default 150000)
//   PSC_AGG_SAMPLE  coarse cohort denominator (default 100; the fine
//                   cohort always runs at 10x that)
//   PSC_FLASH_SEED  flash-crowd schedule seed (default 11)
//
// Output is byte-identical across PSC_THREADS in both campaign modes —
// CI diffs this figure at 1 vs 4 threads.
#include "figure.h"

#include <cmath>

#include "service/aggregate_audience.h"

using namespace psc;

namespace {

struct Cohort {
  std::vector<double> join, stall, weights;
  double weight_total = 0;
};

Cohort collect_cohort(const core::CampaignResult& r) {
  Cohort c;
  for (const core::SessionRecord& rec : r.sessions) {
    if (!rec.stats.cohort) continue;
    c.join.push_back(rec.stats.join_time_s);
    c.stall.push_back(rec.stats.stall_ratio);
    c.weights.push_back(rec.stats.cohort_weight);
    c.weight_total += rec.stats.cohort_weight;
  }
  return c;
}

}  // namespace

bench::FigureResult figures::flashcrowd(bench::Reporter& reporter) {
  const int n_coarse = bench::sessions_unlimited();
  const int n_fine = std::max(8, n_coarse / 10);
  const double rate_coarse = 1.0 / bench::agg_sample_denominator();
  const double rate_fine = rate_coarse / 10.0;
  const std::uint64_t seed = 61;

  std::vector<core::ShardedCampaign> campaigns;
  for (const auto& [n, rate] :
       {std::pair<int, double>{n_coarse, rate_coarse},
        std::pair<int, double>{n_fine, rate_fine}}) {
    core::ShardedCampaign c = bench::sharded_campaign(seed, n);
    // The fluid horizon is the recorded-world horizon of one shard, so
    // the audience and the world cover the same span in both modes.
    bench::configure_aggregate(
        c.base, core::world_horizon(c.base, c.shard_size), rate);
    campaigns.push_back(std::move(c));
  }
  const core::StudyConfig& base = campaigns[0].base;

  // Probe audience: the exact fluid state a shared-world campaign with
  // this seed integrates (campaign-seed world + campaign-seed server
  // pool). Built once here for the tables; the campaigns build their own.
  const auto timeline = service::WorldTimeline::record(
      base.world, seed ^ 0x0170BB57ull, base.aggregate.gen.horizon,
      base.load.epoch_length);
  const auto probe = core::campaign_audience(base, timeline);
  const service::AggregateAudience& audience = *probe;

  std::printf("\nflash-crowd schedule (seed %llu, %zu spikes):\n",
              static_cast<unsigned long long>(base.aggregate.schedule_seed),
              audience.schedule().size());
  std::printf("  %-16s %8s %9s %6s %6s %6s %5s  %s\n", "shape", "start_s",
              "peak", "rise", "hold", "tau", "rank", "target broadcast");
  for (std::size_t i = 0; i < audience.schedule().size(); ++i) {
    const service::Spike& s = audience.schedule().spikes()[i];
    const std::string& target = audience.spike_targets()[i];
    std::printf("  %-16s %8.0f %9.0f %6.0f %6.0f %6.0f %5d  %s\n",
                service::spike_shape_name(s.shape), to_s(s.start),
                s.peak_viewers, to_s(s.rise), to_s(s.hold),
                to_s(s.decay_tau), s.channel_rank,
                target.empty() ? "(none live)" : target.c_str());
  }

  std::printf("\nfluid tier per epoch (epoch = %.0f s):\n",
              to_s(audience.epoch_length()));
  std::printf("  %-5s %10s %10s %10s %10s %11s %8s\n", "epoch", "pop_end",
              "arrivals", "peak_conc", "hls_vs", "edge_req", "hit%");
  double pop_scale = 1;
  for (const service::AggregateEpoch& e : audience.epochs()) {
    pop_scale = std::max(pop_scale, e.peak_concurrent);
  }
  for (std::size_t i = 0; i < audience.epochs().size(); ++i) {
    const service::AggregateEpoch& e = audience.epochs()[i];
    const double hit_pct =
        e.edge_requests > 0 ? 100.0 * e.edge_hits / e.edge_requests : 0;
    const int bar = static_cast<int>(30.0 * e.peak_concurrent / pop_scale);
    std::printf("  %-5zu %10.0f %10.0f %10.0f %10.0f %11.0f %7.1f%% |%.*s\n",
                i, e.pop_end, e.arrivals, e.peak_concurrent,
                e.hls_viewer_seconds, e.edge_requests, hit_pct, bar,
                "##############################");
  }
  std::printf(
      "  campaign: peak %.0f concurrent, %.0f arrivals, %.3g "
      "viewer-seconds\n",
      audience.peak_concurrent(), audience.total_arrivals(),
      audience.total_viewer_seconds());

  const bench::Campaigns run = bench::run_campaigns(reporter, campaigns);
  const Cohort coarse = collect_cohort(run.results[0]);
  const Cohort fine = collect_cohort(run.results[1]);

  std::printf("\ncohort QoE at two sample rates (same seed %llu):\n",
              static_cast<unsigned long long>(seed));
  std::printf("  %-10s %9s %13s %13s %13s\n", "cohort", "sessions",
              "weight_total", "join_p50_s", "stall_p50");
  const auto row = [](const char* label, const Cohort& c) {
    std::printf("  %-10s %9zu %13.0f %13.3f %13.4f\n", label,
                c.join.size(), c.weight_total,
                analysis::weighted_quantile(c.join, c.weights, 0.5),
                analysis::weighted_quantile(c.stall, c.weights, 0.5));
  };
  row("1/coarse", coarse);
  row("1/fine", fine);

  const double ks_join = analysis::weighted_ks_distance(
      coarse.join, coarse.weights, fine.join, fine.weights);
  const double ks_stall = analysis::weighted_ks_distance(
      coarse.stall, coarse.weights, fine.stall, fine.weights);
  std::printf("  weighted KS distance: join %.4f, stall %.4f\n", ks_join,
              ks_stall);

  const std::vector<analysis::Series> cdfs = {
      {"coarse", coarse.join}, {"fine", fine.join}};
  std::printf("\njoin-time CDFs (unweighted display; KS above is "
              "weighted):\n%s\n",
              analysis::render_cdf(cdfs, 0, 12, "join time (s)").c_str());

  return {.values = {
              {"sessions", run.sessions},
              {"cohort_sessions",
               static_cast<double>(coarse.join.size() + fine.join.size())},
              {"spikes", static_cast<double>(audience.schedule().size())},
              {"agg_peak_concurrent", audience.peak_concurrent()},
              {"agg_arrivals", audience.total_arrivals()},
              {"agg_viewer_seconds", audience.total_viewer_seconds()},
              {"ks_join", ks_join},
              {"ks_stall", ks_stall}}};
}
