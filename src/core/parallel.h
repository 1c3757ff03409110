// Sharded parallel campaign runner.
//
// A paper-scale reproduction replays thousands of viewing sessions
// (PSC_SESSIONS=3382 in §5) and each session is an independent experiment,
// so the campaign splits into shards that run on a thread pool. Each shard
// owns a fully independent Study — its own Simulation, recorded world and
// RNG — seeded from a SplitMix64-derived per-shard seed that depends only
// on the campaign seed and the shard index. Shard results are merged in
// shard order, so the merged CampaignResult is deterministic and
// byte-identical for a given seed regardless of the thread count
// (1 thread == the sequential path). See docs/PERFORMANCE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/study.h"

namespace psc::core {

/// Seed for shard `shard_index` of a campaign with base seed `base_seed`.
/// SplitMix64-derived so consecutive shard indices give decorrelated
/// streams even for low-entropy base seeds; depends on nothing else, so
/// the shard plan is stable across thread counts and machines.
std::uint64_t shard_seed(std::uint64_t base_seed, std::uint64_t shard_index);

/// One independent campaign to shard across the pool. `base.seed` is the
/// campaign seed; every shard derives its own Study seed from it.
struct ShardedCampaign {
  StudyConfig base;
  int sessions = 0;
  BitRate bandwidth_limit = 0;  // 0 => unlimited
  bool analyze = false;
  /// Alternate Galaxy S3 / S4 within each shard (the paper's setup); when
  /// false, every session runs on `device`.
  bool two_device = true;
  client::DeviceConfig device{};
  /// Sessions per shard. Part of the deterministic shard plan: changing it
  /// changes the result (different per-shard worlds), changing the thread
  /// count does not.
  int shard_size = 12;
};

class ShardedRunner {
 public:
  /// PSC_THREADS env var when set (>0), else std::thread::hardware_concurrency.
  static int default_threads();

  /// threads == 0 => default_threads(). threads == 1 runs every shard
  /// inline on the calling thread (no pool), the reference sequential path.
  explicit ShardedRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Run one campaign, sharded. Sessions are split into
  /// ceil(sessions / shard_size) shards; the merged result concatenates
  /// shard results in shard order.
  CampaignResult run(const ShardedCampaign& campaign);

  /// Run several independent campaigns (e.g. one per bandwidth limit)
  /// concurrently: all shards of all campaigns feed one pool, results come
  /// back per campaign, each merged in shard order. Campaigns whose
  /// base.mode is shared_world instead run the epoch-stepped schedule
  /// below, one campaign at a time.
  std::vector<CampaignResult> run_many(
      const std::vector<ShardedCampaign>& campaigns);

 private:
  /// Shared-world schedule: record the WorldTimeline once (horizon:
  /// world_horizon(base, shard_size)), then advance all shards epoch by
  /// epoch — parallel_invoke runs every shard up to the epoch deadline,
  /// then (at the barrier, in shard order) each shard's load ledger
  /// merges into the campaign EpochLoadBoard, so the next epoch's
  /// sessions see the previous epoch's total load. Merging in shard order
  /// keeps the result byte-identical for any thread count.
  CampaignResult run_shared(const ShardedCampaign& campaign);

  int threads_;
};

/// Run independent jobs on up to `threads` workers (0 => default_threads).
/// Jobs must not share mutable state. Exceptions propagate to the caller
/// after all workers join (first one wins).
void parallel_invoke(std::vector<std::function<void()>> jobs,
                     int threads = 0);

}  // namespace psc::core
