// Figure 1: cumulative number of broadcasts discovered as a function of
// crawled areas (ranked by broadcast count), for deep crawls performed at
// different times of day.
//
// Each crawl hour runs against its own identically-seeded world advanced
// to that hour (crawls are passive, so the timelines are equivalent to
// crawling one world four times), which makes the four crawls independent
// jobs for the PSC_THREADS pool.
#include "figure.h"
#include "crawler/crawler.h"

using namespace psc;

namespace {

struct CrawlOutcome {
  double hour = 0;
  std::size_t broadcasts = 0;
  std::size_t areas = 0;
  double took_min = 0;
  std::size_t requests = 0;
  std::size_t throttled = 0;
  std::vector<std::size_t> cumulative;
};

CrawlOutcome run_crawl(double start_hour) {
  sim::Simulation sim;
  service::WorldConfig wcfg;
  wcfg.target_concurrent = 2600;
  wcfg.hotspot_count = 200;
  service::World world(sim, wcfg, 77);
  service::MediaServerPool servers(78);
  service::ApiServer api(world, servers, service::ApiConfig{});
  world.start();
  sim.run_until(time_at(start_hour * 3600.0));

  crawler::DeepCrawlConfig cfg;
  cfg.account = "crawl-at-" + std::to_string(static_cast<int>(start_hour));
  // Paper-depth crawl: keep zooming while even modest gains appear.
  cfg.max_depth = 8;
  cfg.min_gain_to_subdivide = 5;
  crawler::DeepCrawler crawler(sim, api, cfg);
  std::optional<crawler::DeepCrawlResult> result;
  crawler.run([&](crawler::DeepCrawlResult r) { result = std::move(r); });
  sim.run_until(sim.now() + hours(1.5));

  CrawlOutcome out;
  out.hour = start_hour;
  if (!result) return out;
  out.broadcasts = result->ids.size();
  out.areas = result->areas.size();
  out.took_min = to_s(result->took) / 60.0;
  out.requests = result->requests;
  out.throttled = result->throttled;
  out.cumulative = result->cumulative_ranked();
  return out;
}

}  // namespace

bench::FigureResult figures::fig1_crawl(bench::Reporter&) {
  // Four crawls at different UTC hours (the diurnal process makes the
  // discoverable population swing).
  const double start_hours[] = {3.0, 9.0, 15.0, 21.0};
  std::vector<CrawlOutcome> outcomes(4);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back([&outcomes, i, &start_hours] {
      outcomes[i] = run_crawl(start_hours[i]);
    });
  }
  core::parallel_invoke(std::move(jobs));

  std::vector<analysis::Series> curves;
  std::size_t total_requests = 0;
  for (const CrawlOutcome& o : outcomes) {
    if (o.broadcasts == 0) continue;
    total_requests += o.requests;
    const auto& cum = o.cumulative;
    std::printf(
        "\ncrawl @ %02d:00 UTC: %zu broadcasts in %zu areas, took %.1f min "
        "(%zu requests, %zu throttled)\n",
        static_cast<int>(o.hour), o.broadcasts, o.areas, o.took_min,
        o.requests, o.throttled);
    if (!cum.empty()) {
      const std::size_t half = cum.size() / 2;
      std::printf("  top 50%% of areas hold %.1f%% of broadcasts "
                  "(paper: >80%%)\n",
                  100.0 * static_cast<double>(cum[half > 0 ? half - 1 : 0]) /
                      static_cast<double>(cum.back()));
      std::printf("  cumulative: ");
      for (std::size_t i = 0; i < cum.size();
           i += std::max<std::size_t>(1, cum.size() / 10)) {
        std::printf("%zu ", cum[i]);
      }
      std::printf("... %zu\n", cum.back());
    }
    analysis::Series s;
    s.label = "crawl@" + std::to_string(static_cast<int>(o.hour)) + "h";
    for (std::size_t v : cum) s.values.push_back(static_cast<double>(v));
    curves.push_back(std::move(s));
  }

  // Render as "fraction of final total vs area rank" — the visual shape
  // of Fig. 1 (each curve normalised by its own area count).
  std::printf("\ncumulative-discovery curves (x = fraction of ranked "
              "areas, y = fraction of that crawl's broadcasts):\n");
  for (const auto& c : curves) {
    if (c.values.empty()) continue;
    std::printf("%-11s: ", c.label.c_str());
    for (int pct = 10; pct <= 100; pct += 10) {
      const std::size_t idx =
          std::min(c.values.size() - 1,
                   static_cast<std::size_t>(c.values.size() * pct / 100));
      std::printf("%3.0f%% ", 100.0 * c.values[idx] / c.values.back());
    }
    std::printf("  (at 10%%..100%% of areas)\n");
  }
  return {.values = {{"crawls", 4},
                     {"requests", static_cast<double>(total_requests)}}};
}
