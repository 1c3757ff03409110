// Sharded campaign runner: determinism across thread counts, seed
// derivation, and the generic parallel_invoke helper.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/study.h"
#include "obs/attrib.h"
#include "obs/eventlog.h"
#include "obs/slo.h"

namespace psc::core {
namespace {

StudyConfig small_config(std::uint64_t seed) {
  StudyConfig cfg;
  cfg.seed = seed;
  cfg.world.target_concurrent = 250;
  cfg.world.hotspot_count = 40;
  return cfg;
}

ShardedCampaign small_campaign(std::uint64_t seed, int sessions) {
  ShardedCampaign c;
  c.base = small_config(seed);
  c.sessions = sessions;
  c.shard_size = 4;
  c.analyze = false;
  return c;
}

/// Everything a session's QoE outcome hangs off, serialised so two runs can
/// be compared for exact equality.
std::string fingerprint(const CampaignResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const SessionRecord& rec : r.sessions) {
    const client::SessionStats& s = rec.stats;
    out << s.broadcast_id << '|' << s.device_model << '|' << s.server_ip
        << '|' << static_cast<int>(s.protocol) << '|' << s.join_time_s << '|'
        << s.played_s << '|' << s.stalled_s << '|' << s.stall_count << '|'
        << s.stall_ratio << '|' << s.playback_latency_s << '|'
        << s.bytes_received << '\n';
  }
  return out.str();
}

TEST(ShardSeed, DistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 31ull, 0xDEADBEEFull}) {
    for (int i = 0; i < 64; ++i) {
      seen.insert(shard_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);         // no collisions across the grid
  EXPECT_EQ(shard_seed(31, 0), shard_seed(31, 0));  // pure function
  EXPECT_NE(shard_seed(31, 0), 31u);        // shard 0 is not the base seed
}

ShardedCampaign shared_campaign(std::uint64_t seed, int sessions) {
  ShardedCampaign c = small_campaign(seed, sessions);
  c.base.mode = CampaignMode::shared_world;
  c.shard_size = 12;
  return c;
}

/// The observability side of the determinism contract, serialised: SLO
/// evaluation, the merged event log and the attribution section must be
/// byte-identical across thread counts just like the metrics.
std::string obs_fingerprint(const CampaignResult& r) {
  return obs::slo_json(r.slo, obs::active_slo_config()) + "\n" +
         obs::event_log_json(r.events) + "\n" +
         obs::attribution_json(r.metrics);
}

/// Force metrics + tracing on for one test, restoring the env-derived
/// defaults afterwards so the other tests run uninstrumented.
class ScopedObsEnabled {
 public:
  ScopedObsEnabled()
      : metrics_(obs::metrics_enabled()), trace_(obs::trace_enabled()) {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
  }
  ~ScopedObsEnabled() {
    obs::set_metrics_enabled(metrics_);
    obs::set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

// The headline guarantee: the merged campaign result is byte-identical
// whether shards run inline (threads=1, the sequential reference path) or
// on 2 or 8 workers — in both campaign modes. The shared-world check runs
// at full paper-bench scale (480 sessions, 40 shards) because that is
// where epoch barriers, overrunning sessions and cross-shard load merges
// actually interleave.
TEST(ShardedRunner, DeterministicAcrossThreadCounts) {
  // The determinism contract extends to observability: metric snapshots
  // and Chrome traces must be byte-identical across thread counts too.
  ScopedObsEnabled obs_on;
  const ShardedCampaign campaign = small_campaign(77, 12);
  const CampaignResult r1 = ShardedRunner(1).run(campaign);
  const CampaignResult r2 = ShardedRunner(2).run(campaign);
  const CampaignResult r8 = ShardedRunner(8).run(campaign);
  const std::string seq = fingerprint(r1);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(fingerprint(r2), seq);
  EXPECT_EQ(fingerprint(r8), seq);
  EXPECT_FALSE(r1.metrics.empty());
  EXPECT_EQ(r2.metrics.to_json(), r1.metrics.to_json());
  EXPECT_EQ(r8.metrics.to_json(), r1.metrics.to_json());
  const std::string trace = obs::chrome_trace_json(r1.shard_traces);
  EXPECT_NE(trace.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_EQ(obs::chrome_trace_json(r2.shard_traces), trace);
  EXPECT_EQ(obs::chrome_trace_json(r8.shard_traces), trace);
  EXPECT_FALSE(r1.events.empty());
  EXPECT_EQ(obs_fingerprint(r2), obs_fingerprint(r1));
  EXPECT_EQ(obs_fingerprint(r8), obs_fingerprint(r1));

  // Full paper-bench scale (480 sessions, 40 shards): epoch barriers,
  // overrunning sessions and cross-shard load merges all interleave.
  const ShardedCampaign shared = shared_campaign(77, 480);
  const CampaignResult s1 = ShardedRunner(1).run(shared);
  const CampaignResult s2 = ShardedRunner(2).run(shared);
  const CampaignResult s8 = ShardedRunner(8).run(shared);
  const std::string shared_seq = fingerprint(s1);
  EXPECT_FALSE(shared_seq.empty());
  EXPECT_EQ(fingerprint(s2), shared_seq);
  EXPECT_EQ(fingerprint(s8), shared_seq);
  EXPECT_FALSE(s1.metrics.empty());
  EXPECT_EQ(s2.metrics.to_json(), s1.metrics.to_json());
  EXPECT_EQ(s8.metrics.to_json(), s1.metrics.to_json());
  const std::string shared_trace = obs::chrome_trace_json(s1.shard_traces);
  EXPECT_EQ(obs::chrome_trace_json(s2.shard_traces), shared_trace);
  EXPECT_EQ(obs::chrome_trace_json(s8.shard_traces), shared_trace);
  EXPECT_FALSE(s1.events.empty());
  EXPECT_EQ(obs_fingerprint(s2), obs_fingerprint(s1));
  EXPECT_EQ(obs_fingerprint(s8), obs_fingerprint(s1));
}

/// The cohort fields ride on top of the core QoE fingerprint: serialised
/// separately so tests can compare QoE with and without them.
std::string cohort_fingerprint(const CampaignResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const SessionRecord& rec : r.sessions) {
    const client::SessionStats& s = rec.stats;
    out << s.cohort << '|' << s.cohort_weight << '|'
        << s.agg_viewers_at_join << '|' << s.server_load_at_join << '\n';
  }
  return out.str();
}

ShardedCampaign flashcrowd_campaign(std::uint64_t seed, int sessions,
                                    CampaignMode mode) {
  ShardedCampaign c = small_campaign(seed, sessions);
  c.base.mode = mode;
  c.shard_size = 8;
  c.base.aggregate.enabled = true;
  c.base.aggregate.schedule_seed = 11;
  c.base.aggregate.gen.horizon = seconds(600);
  c.base.aggregate.gen.peak_xm = 5e3;
  c.base.aggregate.gen.peak_cap = 2e5;
  c.base.aggregate.sample_rate = 0.01;
  return c;
}

// Flash-crowd campaigns keep the headline guarantee: the fluid tier is
// integrated once up front and folded at the barriers in a fixed order,
// so QoE *and* the cohort tags are byte-identical across thread counts in
// both campaign modes.
TEST(ShardedRunner, FlashCrowdDeterministicAcrossThreadCounts) {
  for (CampaignMode mode :
       {CampaignMode::independent_worlds, CampaignMode::shared_world}) {
    const ShardedCampaign campaign = flashcrowd_campaign(909, 24, mode);
    const CampaignResult r1 = ShardedRunner(1).run(campaign);
    const CampaignResult r2 = ShardedRunner(2).run(campaign);
    const CampaignResult r8 = ShardedRunner(8).run(campaign);
    const std::string seq = fingerprint(r1);
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(fingerprint(r2), seq) << static_cast<int>(mode);
    EXPECT_EQ(fingerprint(r8), seq) << static_cast<int>(mode);
    const std::string cohort = cohort_fingerprint(r1);
    EXPECT_EQ(cohort_fingerprint(r2), cohort) << static_cast<int>(mode);
    EXPECT_EQ(cohort_fingerprint(r8), cohort) << static_cast<int>(mode);
    // Every full-protocol session is cohort-tagged at 1/sample_rate.
    for (const SessionRecord& rec : r1.sessions) {
      EXPECT_TRUE(rec.stats.cohort);
      EXPECT_DOUBLE_EQ(rec.stats.cohort_weight, 100);
    }
  }
}

// Aggregate off must mean *off*: a campaign with the tier disabled and a
// campaign with the tier enabled but carrying zero crowd (multiplier 0,
// empty schedule) produce byte-identical QoE — the fluid machinery adds
// no RNG draws, no load and no overlay unless there is actual audience.
TEST(ShardedRunner, FlashCrowdOffIsInert) {
  for (CampaignMode mode :
       {CampaignMode::independent_worlds, CampaignMode::shared_world}) {
    ShardedCampaign off = small_campaign(77, 12);
    off.base.mode = mode;
    ShardedCampaign zero = off;
    zero.base.aggregate.enabled = true;
    zero.base.aggregate.baseline_multiplier = 0;
    zero.base.aggregate.schedule_text = "# psc-flashcrowd v1\n";
    // Below the derived shared-world horizon (~580 s at shard_size 4), so
    // enabling the tier does not lengthen the recorded world.
    zero.base.aggregate.gen.horizon = seconds(500);
    ShardedRunner runner(2);
    const CampaignResult r_off = runner.run(off);
    const CampaignResult r_zero = runner.run(zero);
    ASSERT_FALSE(r_off.sessions.empty());
    EXPECT_EQ(fingerprint(r_zero), fingerprint(r_off))
        << static_cast<int>(mode);
  }
}

// Cross-shard coupling, the thing independent_worlds cannot produce:
// with shard 0's seed and plan held fixed, adding shards 1..3 must change
// shard 0's results (their server load reaches it via the epoch board)
// in shared mode and must not in independent mode. And because every
// shard replays one world, the same hot broadcast is watched from
// different shards of one campaign.
TEST(SharedWorld, CrossShardLoadCouplingAndSharedBroadcasts) {
  constexpr std::uint64_t kSeed = 901;
  // Short epochs + an exaggerated load->latency model make the coupling
  // unmistakable (both are model parameters, not tuning hacks).
  auto configure = [](ShardedCampaign c) {
    c.base.load.epoch_length = seconds(120);
    c.base.load.latency_per_session = millis(40);
    c.base.load.max_extra_latency = millis(400);
    return c;
  };
  const ShardedCampaign one = configure(shared_campaign(kSeed, 12));
  const ShardedCampaign four = configure(shared_campaign(kSeed, 48));

  ShardedRunner runner(2);
  const CampaignResult r_one = runner.run(one);
  const CampaignResult r_four = runner.run(four);
  ASSERT_FALSE(r_one.sessions.empty());
  ASSERT_GT(r_four.sessions.size(), r_one.sessions.size());

  // Shard 0 of both campaigns: same shard seed, same timeline, but the
  // 48-session campaign's other shards load the same servers.
  CampaignResult four_prefix;
  for (std::size_t i = 0; i < r_one.sessions.size(); ++i) {
    four_prefix.sessions.push_back(r_four.sessions[i]);
  }
  EXPECT_NE(fingerprint(four_prefix), fingerprint(r_one));

  // The same broadcast is observed from different shards: ids from the
  // front of the merged result (shard 0) recur near the back (shard 3).
  std::set<std::string> front_ids, back_ids;
  const std::size_t quarter = r_four.sessions.size() / 4;
  for (std::size_t i = 0; i < quarter; ++i) {
    front_ids.insert(r_four.sessions[i].stats.broadcast_id);
  }
  for (std::size_t i = r_four.sessions.size() - quarter;
       i < r_four.sessions.size(); ++i) {
    back_ids.insert(r_four.sessions[i].stats.broadcast_id);
  }
  bool shared_broadcast = false;
  for (const std::string& id : front_ids) {
    if (back_ids.count(id) != 0) shared_broadcast = true;
  }
  EXPECT_TRUE(shared_broadcast);

  // Control: independent mode has the prefix property — shard 0 is
  // byte-identical no matter how many shards run beside it.
  ShardedCampaign ind_one = one;
  ShardedCampaign ind_four = four;
  ind_one.base.mode = CampaignMode::independent_worlds;
  ind_four.base.mode = CampaignMode::independent_worlds;
  const CampaignResult i_one = runner.run(ind_one);
  const CampaignResult i_four = runner.run(ind_four);
  ASSERT_GE(i_four.sessions.size(), i_one.sessions.size());
  CampaignResult i_prefix;
  for (std::size_t i = 0; i < i_one.sessions.size(); ++i) {
    i_prefix.sessions.push_back(i_four.sessions[i]);
  }
  EXPECT_EQ(fingerprint(i_prefix), fingerprint(i_one));
}

TEST(ShardedRunner, RunManyMatchesIndividualRuns) {
  const ShardedCampaign a = small_campaign(101, 8);
  const ShardedCampaign b = small_campaign(202, 8);
  ShardedRunner runner(4);
  const auto both = runner.run_many({a, b});
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(fingerprint(both[0]), fingerprint(ShardedRunner(1).run(a)));
  EXPECT_EQ(fingerprint(both[1]), fingerprint(ShardedRunner(1).run(b)));
  // Distinct campaign seeds must produce distinct worlds.
  EXPECT_NE(fingerprint(both[0]), fingerprint(both[1]));
}

TEST(ShardedRunner, SessionCountAndShardPlan) {
  // 10 sessions at shard_size 4 -> shards of 4+4+2, merged in order.
  ShardedCampaign c = small_campaign(55, 10);
  const CampaignResult r = ShardedRunner(3).run(c);
  EXPECT_EQ(r.sessions.size(), 10u);
}

TEST(ParallelInvoke, RunsEveryJobOnce) {
  std::atomic<int> count{0};
  std::vector<bool> ran(23, false);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < ran.size(); ++i) {
    jobs.push_back([&count, &ran, i] {
      ran[i] = true;  // each index written by exactly one job
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  parallel_invoke(std::move(jobs), 4);
  EXPECT_EQ(count.load(), 23);
  for (bool b : ran) EXPECT_TRUE(b);
}

TEST(ParallelInvoke, PropagatesExceptions) {
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i] {
      if (i == 5) throw std::runtime_error("job 5 failed");
    });
  }
  EXPECT_THROW(parallel_invoke(std::move(jobs), 3), std::runtime_error);
}

TEST(ParallelInvoke, InlineWhenSingleThreaded) {
  // threads == 1 must not spawn workers: jobs run on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  bool same_thread = false;
  std::vector<std::function<void()>> jobs;
  jobs.push_back([&] { same_thread = std::this_thread::get_id() == caller; });
  parallel_invoke(std::move(jobs), 1);
  EXPECT_TRUE(same_thread);
}

}  // namespace
}  // namespace psc::core
