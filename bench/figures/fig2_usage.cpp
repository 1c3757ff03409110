// Figure 2: usage patterns from targeted crawls.
//  (a) CDFs of broadcast duration and average viewers;
//  (b) average viewers vs. broadcaster local start hour.
#include "figure.h"
#include "crawler/crawler.h"
#include "geo/geo.h"

using namespace psc;

bench::FigureResult figures::fig2_usage(bench::Reporter&) {
  sim::Simulation sim;
  service::WorldConfig wcfg;
  wcfg.target_concurrent = 2600;
  wcfg.hotspot_count = 200;
  service::World world(sim, wcfg, 42);
  service::MediaServerPool servers(43);
  service::ApiServer api(world, servers, service::ApiConfig{});
  world.start();
  sim.run_until(time_at(60));

  // Deep crawl to pick the targeted areas (top 64, as in the paper).
  crawler::DeepCrawler deep(sim, api, crawler::DeepCrawlConfig{});
  std::optional<crawler::DeepCrawlResult> deep_result;
  deep.run([&](crawler::DeepCrawlResult r) { deep_result = std::move(r); });
  sim.run_until(sim.now() + hours(1));
  if (!deep_result) {
    std::printf("deep crawl did not finish\n");
    std::exit(1);
  }
  std::vector<geo::GeoRect> areas;
  for (const auto& a : deep_result->ranked()) {
    areas.push_back(a.rect);
    if (areas.size() >= 64) break;
  }
  std::printf("targeted areas: %zu (from a deep crawl that found %zu "
              "broadcasts)\n",
              areas.size(), deep_result->ids.size());

  crawler::TargetedCrawler targeted(sim, api, areas,
                                    crawler::TargetedCrawlConfig{});
  std::optional<crawler::UsageDataset> ds;
  targeted.run(hours(bench::crawl_hours()),
               [&](crawler::UsageDataset d) { ds = std::move(d); });
  sim.run_until(sim.now() + hours(bench::crawl_hours()) + minutes(10));
  if (!ds) {
    std::printf("targeted crawl did not finish\n");
    std::exit(1);
  }
  std::printf("targeted crawl: %.1f h, %zu distinct broadcasts tracked, "
              "one sweep ~%.0f s (paper: ~50 s)\n\n",
              bench::crawl_hours(), ds->tracks.size(),
              to_s(targeted.last_sweep_duration()));

  // ---- Fig 2(a): durations ----
  const std::vector<double> durations = ds->ended_durations();
  std::vector<double> dur_min;
  for (double d : durations) dur_min.push_back(d / 60.0);
  std::printf("durations (n=%zu ended during crawl):\n", durations.size());
  const analysis::Ecdf dur_cdf(dur_min);
  std::printf("  P(<1 min)=%.2f  P(<4 min)=%.2f  P(<10 min)=%.2f  "
              "P(<60 min)=%.2f  max=%.0f min\n",
              dur_cdf(1), dur_cdf(4), dur_cdf(10), dur_cdf(60),
              analysis::maximum(dur_min));
  std::printf("  paper: ~half under 4 min; most 1-10 min; tail to a day+\n");
  std::vector<analysis::Series> dur_series = {{"duration (min)", dur_min}};
  std::printf("%s\n",
              analysis::render_cdf(dur_series, 0, 30, "minutes").c_str());

  // ---- Fig 2(a): average viewers ----
  std::vector<double> avg_viewers;
  std::size_t zero_viewers = 0;
  double dur_zero = 0, dur_watched = 0;
  std::size_t n_zero = 0, n_watched = 0;
  for (const auto& [id, t] : ds->tracks) {
    if (t.viewer_samples == 0) continue;
    avg_viewers.push_back(t.avg_viewers());
    const double dur = to_s(t.last_seen) - t.start_time_s;
    if (t.avg_viewers() < 0.5) {
      ++zero_viewers;
      dur_zero += dur;
      ++n_zero;
    } else {
      dur_watched += dur;
      ++n_watched;
    }
  }
  const analysis::Ecdf v_cdf(avg_viewers);
  std::printf("viewers (n=%zu with samples):\n", avg_viewers.size());
  std::printf("  P(<20 viewers)=%.3f (paper: >0.90)   "
              "P(=0)=%.3f (paper: >0.10)   max=%.0f\n",
              v_cdf(20), static_cast<double>(zero_viewers) /
                             std::max<std::size_t>(1, avg_viewers.size()),
              analysis::maximum(avg_viewers));
  if (n_zero > 0 && n_watched > 0) {
    std::printf("  avg duration: no-viewers %.1f min vs watched %.1f min "
                "(paper: ~2 vs ~13 min)\n",
                dur_zero / n_zero / 60, dur_watched / n_watched / 60);
  }
  std::vector<analysis::Series> v_series = {{"avg viewers", avg_viewers}};
  std::printf("%s\n", analysis::render_cdf(v_series, 0, 50, "avg viewers")
                          .c_str());

  // ---- Fig 2(b): viewers vs local start hour ----
  std::printf("avg viewers by broadcaster local start hour:\n");
  double sum[24] = {0};
  int count[24] = {0};
  for (const auto& [id, t] : ds->tracks) {
    if (t.viewer_samples == 0) continue;
    const double h =
        geo::local_hour(time_at(t.start_time_s), t.lon_deg);
    const int bucket = static_cast<int>(h) % 24;
    // Winsorize: the viewer distribution is heavy-tailed and a single
    // 10K-viewer broadcast would otherwise swamp its 2-hour bucket.
    sum[bucket] += std::min(t.avg_viewers(), 200.0);
    count[bucket] += 1;
  }
  std::vector<analysis::Bar> bars;
  for (int h = 0; h < 24; h += 2) {
    const int n = count[h] + count[h + 1];
    const double avg = n > 0 ? (sum[h] + sum[h + 1]) / n : 0;
    bars.push_back({std::to_string(h) + "-" + std::to_string(h + 2) + "h",
                    avg});
  }
  std::printf("%s", analysis::render_bars(bars, "avg viewers").c_str());
  std::printf("\npaper: slump in the early hours, morning peak, rising "
              "trend toward midnight (local time)\n");
  return {.values = {{"crawl_hours", bench::crawl_hours()},
                     {"tracks", static_cast<double>(ds->tracks.size())}}};
}
