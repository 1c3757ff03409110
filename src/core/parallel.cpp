#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "media/filler.h"
#include "net/capture.h"
#include "util/buffer.h"
#include "util/rng.h"

namespace psc::core {

std::uint64_t shard_seed(std::uint64_t base_seed, std::uint64_t shard_index) {
  // Two SplitMix64 steps over (base ^ golden-ratio-spread index): the
  // first decorrelates neighbouring indices, the second neighbouring base
  // seeds, so shard 0 of seed 1 and shard 1 of seed 0 don't collide.
  SplitMix64Engine mix(base_seed ^
                       (0x9E3779B97F4A7C15ull * (shard_index + 1)));
  mix();
  return mix();
}

int ShardedRunner::default_threads() {
  if (const char* v = std::getenv("PSC_THREADS")) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ShardedRunner::ShardedRunner(int threads)
    : threads_(threads > 0 ? threads : default_threads()) {}

void parallel_invoke(std::vector<std::function<void()>> jobs, int threads) {
  if (threads <= 0) threads = ShardedRunner::default_threads();
  if (jobs.empty()) return;
  if (threads == 1 || jobs.size() == 1) {
    for (auto& job : jobs) job();
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        jobs[i]();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const std::size_t n_workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), jobs.size());
  std::vector<std::thread> pool;
  pool.reserve(n_workers - 1);
  for (std::size_t i = 1; i < n_workers; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

struct ShardJob {
  std::size_t campaign;
  std::size_t shard;  // index within the campaign
  int sessions;
};

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fold a finished shard's observability bundle into its CampaignResult:
/// the registry moves over, the trace ring becomes this shard's lane.
void harvest_obs(Study& study, CampaignResult& r) {
  study.finalize_obs();
  r.kernel.merge(study.kernel_totals());  // raw totals: no obs toggle
  if (!obs::enabled()) return;
  r.metrics.merge(study.obs().metrics);
  r.slo.merge(study.obs().slo);
  const std::vector<obs::LogEvent> events = study.obs().log.take_events();
  r.events.insert(r.events.end(), events.begin(), events.end());
  r.shard_traces.push_back(study.obs().trace.take_events());
}

/// Every shard on every thread shares one filler table, and which thread
/// builds which chunk depends on scheduling, so the table's totals are
/// process figures, not campaign metrics. So is the storage parked
/// shards handed back from their arena pools, and the bytes records-only
/// captures did not keep: process-wide totals.
void publish_process_gauges() {
  if (!obs::enabled()) return;
  obs::process_gauge_max(
      "arena_pooled_bytes_released",
      static_cast<double>(util::BufferArena::process_pooled_bytes_released()));
  obs::process_gauge_max(
      "capture_bytes_not_kept",
      static_cast<double>(net::Capture::process_bytes_not_kept()));
  const media::FillerTable::Stats s = media::FillerTable::process().stats();
  obs::process_gauge_max("filler_table_bytes", static_cast<double>(s.bytes));
  obs::process_gauge_max("filler_table_chunks",
                         static_cast<double>(s.chunks));
  obs::process_gauge_max("filler_direct_bytes",
                         static_cast<double>(s.direct_bytes));
  obs::process_gauge_max("filler_lost_races",
                         static_cast<double>(s.lost_races));
}

}  // namespace

std::vector<CampaignResult> ShardedRunner::run_many(
    const std::vector<ShardedCampaign>& campaigns) {
  // Deterministic shard plan: depends only on (sessions, shard_size).
  // Shared-world campaigns need a barrier per epoch, so they cannot feed
  // the free-running pool; they run one at a time via run_shared().
  std::vector<ShardJob> plan;
  std::vector<std::vector<CampaignResult>> shard_results(campaigns.size());
  std::vector<std::size_t> shared_campaigns;
  for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
    const ShardedCampaign& c = campaigns[ci];
    if (c.base.mode == CampaignMode::shared_world) {
      shared_campaigns.push_back(ci);
      continue;
    }
    const int shard_size = c.shard_size > 0 ? c.shard_size : 12;
    int remaining = c.sessions;
    std::size_t si = 0;
    while (remaining > 0) {
      const int n = remaining < shard_size ? remaining : shard_size;
      plan.push_back(ShardJob{ci, si++, n});
      remaining -= n;
    }
    shard_results[ci].resize(si);
  }

  std::vector<std::function<void()>> jobs;
  jobs.reserve(plan.size());
  for (const ShardJob& job : plan) {
    jobs.push_back([&campaigns, &shard_results, job] {
      const auto t0 = std::chrono::steady_clock::now();
      const ShardedCampaign& c = campaigns[job.campaign];
      StudyConfig cfg = c.base;
      cfg.seed = shard_seed(c.base.seed, job.shard);
      cfg.shard_index = job.shard;
      Study study(cfg, own_world(cfg, job.sessions));
      CampaignResult r =
          c.two_device
              ? study.run_two_device_campaign(job.sessions,
                                              c.bandwidth_limit, c.analyze)
              : study.run_campaign(job.sessions, c.bandwidth_limit, c.device,
                                   c.analyze);
      harvest_obs(study, r);
      if (obs::enabled()) {
        // Wall clock, hence nondeterministic: process registry only.
        obs::process_hist_record("shard_wall_s", wall_seconds_since(t0));
      }
      shard_results[job.campaign][job.shard] = std::move(r);
    });
  }
  parallel_invoke(std::move(jobs), threads_);

  // Merge per campaign in shard order: output is independent of which
  // thread ran which shard.
  std::vector<CampaignResult> merged(campaigns.size());
  for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
    std::size_t total = 0;
    for (const CampaignResult& r : shard_results[ci]) {
      total += r.sessions.size();
    }
    merged[ci].sessions.reserve(total);
    for (CampaignResult& r : shard_results[ci]) {
      for (SessionRecord& rec : r.sessions) {
        merged[ci].sessions.push_back(std::move(rec));
      }
      merged[ci].metrics.merge(r.metrics);
      merged[ci].kernel.merge(r.kernel);
      merged[ci].slo.merge(r.slo);
      merged[ci].events.insert(merged[ci].events.end(), r.events.begin(),
                               r.events.end());
      for (auto& lane : r.shard_traces) {
        merged[ci].shard_traces.push_back(std::move(lane));
      }
    }
  }
  for (std::size_t ci : shared_campaigns) {
    merged[ci] = run_shared(campaigns[ci]);
  }
  publish_process_gauges();
  return merged;
}

CampaignResult ShardedRunner::run_shared(const ShardedCampaign& c) {
  const int shard_size = c.shard_size > 0 ? c.shard_size : 12;
  std::vector<int> shard_sessions;
  for (int remaining = c.sessions; remaining > 0;) {
    const int n = remaining < shard_size ? remaining : shard_size;
    shard_sessions.push_back(n);
    remaining -= n;
  }
  const std::size_t n_shards = shard_sessions.size();
  CampaignResult merged;
  if (n_shards == 0) return merged;

  // Record the campaign world once, long enough for the slowest shard.
  const auto timeline = service::WorldTimeline::record(
      c.base.world, c.base.seed ^ 0x0170BB57ull,
      world_horizon(c.base, shard_size), c.base.load.epoch_length);

  const auto board =
      std::make_shared<service::EpochLoadBoard>(c.base.load.epoch_length);
  WorldContext shared;
  shared.timeline = timeline;
  shared.load_board = board;
  shared.campaign_seed = c.base.seed;
  if (c.base.aggregate.enabled) {
    // One fluid audience for the whole campaign, integrated up front
    // over the campaign timeline with the campaign-seed server pool
    // (identical ip space in every shard). Immutable afterwards: shards
    // read it lock-free via the context.
    shared.aggregate = campaign_audience(c.base, timeline);
  }

  std::vector<std::unique_ptr<Study>> studies;
  std::vector<CampaignResult> results(n_shards);
  studies.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    StudyConfig cfg = c.base;
    cfg.seed = shard_seed(c.base.seed, i);
    cfg.shard_index = i;
    studies.push_back(std::make_unique<Study>(cfg, shared));
  }

  // Epoch-stepped schedule. Every shard's sim clock is campaign-global
  // time (all start at 0). Each round runs whole sessions while the
  // shard's clock is before the epoch deadline; sessions may overrun the
  // boundary, in which case their load lands in later buckets and is
  // merged at later barriers. A session starting in epoch e therefore
  // always reads a fully merged epoch e-1.
  const Duration epoch_len = c.base.load.epoch_length;
  std::vector<double> shard_epoch_wall(n_shards, 0);
  for (std::size_t epoch = 0;; ++epoch) {
    const TimePoint deadline = time_at(to_s(epoch_len) * (epoch + 1));
    std::vector<std::function<void()>> jobs;
    jobs.reserve(n_shards);
    for (std::size_t i = 0; i < n_shards; ++i) {
      jobs.push_back([&, i] {
        const auto t0 = std::chrono::steady_clock::now();
        studies[i]->begin_campaign(c.bandwidth_limit, c.two_device,
                                   c.device);
        studies[i]->run_sessions_until(deadline, shard_sessions[i],
                                       c.analyze, &results[i]);
        shard_epoch_wall[i] = wall_seconds_since(t0);
      });
    }
    parallel_invoke(std::move(jobs), threads_);
    if (obs::enabled()) {
      // A shard waits at the barrier from its own finish until the
      // slowest shard of the round finishes. Wall clock, hence process
      // registry only.
      const double slowest = *std::max_element(shard_epoch_wall.begin(),
                                               shard_epoch_wall.end());
      for (std::size_t i = 0; i < n_shards; ++i) {
        obs::process_hist_record("epoch_barrier_wait_s",
                                 slowest - shard_epoch_wall[i]);
        obs::process_hist_record("shard_epoch_wall_s", shard_epoch_wall[i]);
      }
    }
    // Barrier: fold this epoch's contributions — the fluid tier first,
    // then every shard in shard order (the board is never written while
    // shards run, never read while it is written). The fixed fold order
    // keeps the board byte-identical for any thread count.
    if (shared.aggregate != nullptr) {
      board->merge_epoch(epoch, shared.aggregate->ledger());
    }
    for (std::size_t i = 0; i < n_shards; ++i) {
      board->merge_epoch(epoch, studies[i]->servers().load_ledger());
    }
    bool all_done = true;
    for (std::size_t i = 0; i < n_shards; ++i) {
      if (studies[i]->sessions_attempted() < shard_sessions[i]) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
  }

  std::size_t total = 0;
  for (const CampaignResult& r : results) total += r.sessions.size();
  merged.sessions.reserve(total);
  for (std::size_t i = 0; i < n_shards; ++i) {
    for (SessionRecord& rec : results[i].sessions) {
      merged.sessions.push_back(std::move(rec));
    }
    harvest_obs(*studies[i], merged);
  }
  return merged;
}

CampaignResult ShardedRunner::run(const ShardedCampaign& campaign) {
  std::vector<CampaignResult> results = run_many({campaign});
  return std::move(results.front());
}

}  // namespace psc::core
