// Shared-world campaign tests: the recorded WorldTimeline replays the
// live World bit-for-bit (map queries, lookups, Teleport, GC boundary),
// the per-epoch load accounts split and merge deterministically, and a
// crawler driven against a ReplayWorld-backed API covers the same ground
// truth a live world would give it.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "crawler/crawler.h"
#include "service/api.h"
#include "service/load.h"
#include "service/world.h"
#include "service/world_timeline.h"

namespace psc::service {
namespace {

WorldConfig small_world() {
  WorldConfig cfg;
  cfg.target_concurrent = 120;
  cfg.hotspot_count = 30;
  return cfg;
}

// ---------------- Replay vs live equivalence ----------------

class ReplayEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 311;
  static constexpr double kHorizonS = 900;

  ReplayEquivalenceTest()
      : timeline_(WorldTimeline::record(small_world(), kSeed,
                                        seconds(kHorizonS), seconds(120))),
        live_(live_sim_, small_world(), kSeed),
        replay_(replay_sim_, timeline_) {
    live_.start(/*prepopulate=*/true);
  }

  /// Step both worlds to the same simulated time.
  void advance_to(double t_s) {
    live_sim_.run_until(time_at(t_s));
    replay_sim_.run_until(time_at(t_s));
  }

  static std::set<BroadcastId> ids(
      const std::vector<const BroadcastInfo*>& hits) {
    std::set<BroadcastId> out;
    for (const BroadcastInfo* b : hits) out.insert(b->id);
    return out;
  }

  std::shared_ptr<const WorldTimeline> timeline_;
  sim::Simulation live_sim_;
  sim::Simulation replay_sim_;
  World live_;
  ReplayWorld replay_;
};

TEST_F(ReplayEquivalenceTest, QueriesAnswerIdenticallyAtEveryProbeTime) {
  // The recording ran the exact same (cfg, seed) world process, so at any
  // time the replay must agree with a freshly simulated live world on
  // everything a client can observe.
  const geo::GeoRect probes[] = {
      geo::GeoRect::world(),
      {30, 60, -10, 40},    // a large region (zoom-visibility active)
      {40, 42, 1, 3},       // city scale (everything visible)
  };
  for (double t : {0.0, 45.0, 130.0, 299.0, 600.0, 880.0}) {
    advance_to(t);
    EXPECT_EQ(live_.live_count(), replay_.live_count()) << "t=" << t;
    for (const geo::GeoRect& rect : probes) {
      for (bool include_replays : {false, true}) {
        const auto live_hits = live_.query_rect(rect, include_replays);
        const auto replay_hits = replay_.query_rect(rect, include_replays);
        ASSERT_EQ(live_hits.size(), replay_hits.size())
            << "t=" << t << " include_replays=" << include_replays;
        // rank_and_truncate orders both responses: compare element-wise.
        for (std::size_t i = 0; i < live_hits.size(); ++i) {
          EXPECT_EQ(live_hits[i]->id, replay_hits[i]->id) << "t=" << t;
        }
        // find() agrees on every returned id.
        for (const BroadcastInfo* b : live_hits) {
          const BroadcastInfo* r = replay_.find(b->id);
          ASSERT_NE(r, nullptr) << b->id;
          EXPECT_EQ(r->start_time, b->start_time);
          EXPECT_EQ(r->seed, b->seed);
        }
      }
    }
  }
}

TEST_F(ReplayEquivalenceTest, TeleportLandsOnTheSameBroadcast) {
  // Same rng state + same candidate order (World iterates its id-sorted
  // map, ReplayWorld sorts by id) => the same pick, live or replayed.
  for (double t : {40.0, 200.0, 500.0}) {
    advance_to(t);
    Rng rng_live(77);
    Rng rng_replay(77);
    for (int i = 0; i < 10; ++i) {
      const BroadcastInfo* a = live_.teleport(rng_live, seconds(90));
      const BroadcastInfo* b = replay_.teleport(rng_replay, seconds(90));
      ASSERT_EQ(a == nullptr, b == nullptr) << "t=" << t;
      if (a != nullptr) {
        EXPECT_EQ(a->id, b->id) << "t=" << t;
      }
    }
  }
}

TEST_F(ReplayEquivalenceTest, GcBoundaryReplaysExactly) {
  // The timeline records the *actual* gc() erase times, so an ended
  // replayable broadcast is visible right up to its recorded removal and
  // gone right after — exactly like the live world.
  const WorldTimeline::Log& log = timeline_->log();
  // Removal times are not monotone in arrival order and the sim clock
  // only moves forward: probe in removal order, skipping overlaps.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < log.size(); ++i) candidates.push_back(i);
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return log.entry(a).end < log.entry(b).end;
            });
  std::size_t probed = 0;
  double last_probe_s = 0;
  for (std::size_t i : candidates) {
    const auto& e = log.entry(i);
    if (!e.value.available_for_replay) continue;
    if (e.value.is_private) continue;
    const double end_s = to_s(e.end);
    if (end_s >= kHorizonS - 2) continue;  // need both sides in horizon
    if (end_s - 1 <= last_probe_s) continue;  // clock must move forward
    last_probe_s = end_s + 1;
    // GC removes only after the grace period past the broadcast's end.
    EXPECT_GE(e.end - e.value.end_time(),
              timeline_->world_config().gc_grace);

    replay_sim_.run_until(time_at(end_s - 1));
    const BroadcastInfo* before = replay_.find(e.value.id);
    ASSERT_NE(before, nullptr) << e.value.id;
    // An ended broadcast still surfaces on the map with include_replays.
    const geo::GeoRect around{e.value.location.lat_deg - 1,
                              e.value.location.lat_deg + 1,
                              e.value.location.lon_deg - 1,
                              e.value.location.lon_deg + 1};
    bool on_map = false;
    for (const BroadcastInfo* hit : replay_.query_rect(around, true)) {
      if (hit->id == e.value.id) on_map = true;
    }
    EXPECT_TRUE(on_map) << e.value.id;

    replay_sim_.run_until(time_at(end_s + 1));
    EXPECT_EQ(replay_.find(e.value.id), nullptr) << e.value.id;
    for (const BroadcastInfo* hit : replay_.query_rect(around, true)) {
      EXPECT_NE(hit->id, e.value.id);
    }
    if (++probed >= 3) break;  // a few is enough; keep the test fast
  }
  EXPECT_GT(probed, 0u) << "no GC'd replayable broadcast in the horizon";
}

// ---------------- Recording prefix ----------------

TEST(WorldTimelinePrefix, LongerRecordingAgreesBeforeTheShorterHorizon) {
  // Recordings of one world are sized to their consumer (a shard's
  // sessions, a fluid audience's horizon), so the same (cfg, seed) is
  // recorded to different horizons. That is sound only if everything a
  // client observes before the shorter horizon is independent of how far
  // past it the recording ran.
  constexpr std::uint64_t kSeed = 523;
  constexpr double kShortS = 600;
  WorldConfig cfg = small_world();
  cfg.target_concurrent = 300;
  const auto short_tl =
      WorldTimeline::record(cfg, kSeed, seconds(kShortS), seconds(120));
  const auto long_tl =
      WorldTimeline::record(cfg, kSeed, seconds(2 * kShortS), seconds(120));
  sim::Simulation short_sim;
  sim::Simulation long_sim;
  const ReplayWorld short_world(short_sim, short_tl);
  const ReplayWorld long_world(long_sim, long_tl);
  const geo::GeoRect probes[] = {geo::GeoRect::world(), {30, 60, -10, 40}};
  Rng rng_short(91);
  Rng rng_long(91);
  int probed = 0;
  for (double t = 0; t < kShortS; t += 37, ++probed) {
    short_sim.run_until(time_at(t));
    long_sim.run_until(time_at(t));
    ASSERT_EQ(short_world.live_count(), long_world.live_count()) << t;
    for (const geo::GeoRect& rect : probes) {
      for (bool include_replays : {false, true}) {
        const auto a = short_world.query_rect(rect, include_replays);
        const auto b = long_world.query_rect(rect, include_replays);
        ASSERT_EQ(a.size(), b.size()) << "t=" << t;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i]->id, b[i]->id) << "t=" << t;
          const BroadcastInfo* found = long_world.find(a[i]->id);
          ASSERT_NE(found, nullptr) << a[i]->id;
          EXPECT_EQ(found->start_time, a[i]->start_time);
        }
      }
    }
    for (int i = 0; i < 4; ++i) {
      const BroadcastInfo* a = short_world.teleport(rng_short, seconds(81));
      const BroadcastInfo* b = long_world.teleport(rng_long, seconds(81));
      ASSERT_EQ(a == nullptr, b == nullptr) << "t=" << t;
      if (a != nullptr) {
        EXPECT_EQ(a->id, b->id) << "t=" << t;
      }
    }
  }
  EXPECT_GT(probed, 15);
}

// ---------------- Epoch load accounts ----------------

TEST(EpochLoadLedger, SessionSplitsAcrossEpochsProportionally) {
  EpochLoadLedger ledger(seconds(100));
  // 150 s session from t=50: 50 s in epoch 0, 100 s in epoch 1.
  ledger.add_session("10.0.0.1", time_at(50), time_at(200), 1.0, 3000);
  const LoadAccount* e0 = ledger.account("10.0.0.1", 0);
  const LoadAccount* e1 = ledger.account("10.0.0.1", 1);
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  EXPECT_DOUBLE_EQ(e0->session_seconds, 50);
  EXPECT_DOUBLE_EQ(e1->session_seconds, 100);
  // Bytes attribute by overlap share: 1/3 and 2/3.
  EXPECT_DOUBLE_EQ(e0->bytes, 1000);
  EXPECT_DOUBLE_EQ(e1->bytes, 2000);
  EXPECT_EQ(ledger.account("10.0.0.1", 2), nullptr);
}

TEST(EpochLoadLedger, WeightScalesContributions) {
  EpochLoadLedger ledger(seconds(100));
  // An HLS session striping two edges books half on each.
  ledger.add_session("edge-a", time_at(0), time_at(80), 0.5, 1000);
  ledger.add_session("edge-b", time_at(0), time_at(80), 0.5, 1000);
  EXPECT_DOUBLE_EQ(ledger.account("edge-a", 0)->session_seconds, 40);
  EXPECT_DOUBLE_EQ(ledger.account("edge-b", 0)->session_seconds, 40);
  EXPECT_DOUBLE_EQ(ledger.account("edge-a", 0)->bytes, 500);
}

TEST(EpochLoadBoard, MergesShardsAndLagsOneEpoch) {
  EpochLoadBoard board(seconds(100));
  EpochLoadLedger shard0(seconds(100));
  EpochLoadLedger shard1(seconds(100));
  shard0.add_session("ip", time_at(0), time_at(100), 1.0, 0);
  shard1.add_session("ip", time_at(0), time_at(100), 1.0, 0);
  shard1.add_session("ip", time_at(0), time_at(50), 1.0, 0);
  board.merge_epoch(0, shard0);
  board.merge_epoch(0, shard1);
  // 250 session-seconds over a 100 s epoch = 2.5 concurrent on average.
  EXPECT_DOUBLE_EQ(board.avg_concurrent("ip", 0), 2.5);
  // A session in epoch 1 reads epoch 0; a session in epoch 0 reads zero.
  EXPECT_DOUBLE_EQ(board.previous_epoch_concurrent("ip", time_at(150)), 2.5);
  EXPECT_DOUBLE_EQ(board.previous_epoch_concurrent("ip", time_at(50)), 0);

  EpochLoadConfig cfg;
  cfg.epoch_length = seconds(100);
  cfg.latency_per_session = millis(10);
  cfg.max_extra_latency = millis(15);
  // 2.5 concurrent * 10 ms = 25 ms, capped at 15 ms.
  EXPECT_DOUBLE_EQ(to_s(board.penalty("ip", time_at(150), cfg)), 0.015);
  EXPECT_DOUBLE_EQ(to_s(board.penalty("ip", time_at(50), cfg)), 0.0);
  EXPECT_DOUBLE_EQ(to_s(board.penalty("other-ip", time_at(150), cfg)), 0.0);
}

TEST(EpochLoadBoard, PenaltyClampsExactlyAtTheSaturationBoundary) {
  EpochLoadBoard board(seconds(100));
  EpochLoadLedger shard(seconds(100));
  // 250 session-seconds in epoch 0 -> 2.5 average concurrent.
  shard.add_session("ip", time_at(0), time_at(100), 2.5, 0);
  board.merge_epoch(0, shard);
  EpochLoadConfig cfg;
  cfg.epoch_length = seconds(100);
  cfg.max_extra_latency = millis(15);
  const TimePoint t = time_at(150);  // epoch 1, reads epoch 0

  cfg.latency_per_session = millis(5);  // 12.5 ms: below the cap
  EXPECT_DOUBLE_EQ(to_s(board.penalty("ip", t, cfg)), 0.0125);
  cfg.latency_per_session = millis(6);  // 15 ms: *exactly* the cap
  EXPECT_DOUBLE_EQ(to_s(board.penalty("ip", t, cfg)), 0.015);
  cfg.latency_per_session = millis(7);  // 17.5 ms: clamped to the cap
  EXPECT_DOUBLE_EQ(to_s(board.penalty("ip", t, cfg)), 0.015);
  cfg.latency_per_session = Duration{0};  // feedback disabled
  EXPECT_DOUBLE_EQ(to_s(board.penalty("ip", t, cfg)), 0.0);
  // The fluid tier books six-figure concurrency; the cap must hold there
  // too rather than overflow into absurd latencies.
  EpochLoadLedger crowd(seconds(100));
  LoadAccount mass;
  mass.session_seconds = 5e7;  // 500k average concurrent
  crowd.add_raw("edge", 0, mass);
  board.merge_epoch(0, crowd);
  cfg.latency_per_session = millis(3);
  EXPECT_DOUBLE_EQ(to_s(board.penalty("edge", t, cfg)), 0.015);
}

TEST(EpochLoadBoard, EpochBoundaryReadsArePredecessorExclusive) {
  // epoch_of is half-open [e*len, (e+1)*len): a session starting exactly
  // on a boundary belongs to the *new* epoch and reads the one just
  // closed. Reads of unmerged epochs yield zero — which is why sessions
  // price their penalty at session start (always one fully merged epoch
  // behind), never at a later clock inside the session.
  EpochLoadBoard board(seconds(100));
  EXPECT_EQ(board.epoch_of(time_at(0)), 0u);
  EXPECT_EQ(board.epoch_of(time_at(99.999)), 0u);
  EXPECT_EQ(board.epoch_of(time_at(100)), 1u);
  EXPECT_EQ(board.epoch_of(time_at(200)), 2u);

  EpochLoadLedger shard(seconds(100));
  shard.add_session("ip", time_at(0), time_at(100), 1.0, 0);   // epoch 0
  shard.add_session("ip", time_at(100), time_at(400), 3.0, 0); // 1, 2, 3
  board.merge_epoch(0, shard);
  board.merge_epoch(1, shard);
  // Start exactly on the boundary: reads the closed epoch 0, not epoch 1.
  EXPECT_DOUBLE_EQ(board.previous_epoch_concurrent("ip", time_at(100)), 1);
  // Just inside epoch 0: nothing before it.
  EXPECT_DOUBLE_EQ(board.previous_epoch_concurrent("ip", time_at(99.9)), 0);
  // Start on the next boundary: reads epoch 1's merged average.
  EXPECT_DOUBLE_EQ(board.previous_epoch_concurrent("ip", time_at(200)), 3);
  // Epoch 2 exists in the ledger but was never merged: reads zero.
  EXPECT_DOUBLE_EQ(board.previous_epoch_concurrent("ip", time_at(300)), 0);
}

// ---------------- Crawling a replayed world ----------------

TEST(ReplayWorldCrawl, DeepCrawlCoversTheReplayedGroundTruth) {
  WorldConfig cfg;
  cfg.target_concurrent = 600;
  cfg.hotspot_count = 50;
  auto timeline =
      WorldTimeline::record(cfg, 17, seconds(3600), seconds(300));

  sim::Simulation sim;
  ReplayWorld world(sim, timeline);
  MediaServerPool servers(18);
  ApiConfig api_cfg;
  api_cfg.rate_limit.capacity = 12;
  api_cfg.rate_limit.refill_per_sec = 1.5;
  ApiServer api(world, servers, api_cfg);
  sim.run_until(time_at(10));

  crawler::DeepCrawler deep(sim, api, crawler::DeepCrawlConfig{});
  std::optional<crawler::DeepCrawlResult> result;
  double coverage_at_finish = 0;
  deep.run([&](crawler::DeepCrawlResult r) {
    // Coverage against the ground truth only a WorldView can expose,
    // measured the moment the crawl completes (the world keeps churning
    // afterwards, so later snapshots are dominated by new arrivals).
    coverage_at_finish = crawler::discovered_fraction(world, r.ids);
    result = std::move(r);
  });
  sim.run_until(time_at(3000));
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->ids.size(), 300u);
  EXPECT_GT(coverage_at_finish, 0.5);
}

TEST(DiscoveredFraction, CountsOnlyPublicLiveBroadcasts) {
  sim::Simulation sim;
  WorldConfig cfg;
  cfg.target_concurrent = 5;
  World world(sim, cfg, 3);
  world.start(/*prepopulate=*/false);

  BroadcastInfo pub;
  pub.id = "PUBLICbcast01";
  pub.location = {1, 1};
  pub.start_time = sim.now();
  pub.planned_duration = seconds(600);
  world.add_broadcast(pub);
  BroadcastInfo priv = pub;
  priv.id = "PRIVATEbcast1";
  priv.is_private = true;
  world.add_broadcast(priv);

  // The crawler can never see the private broadcast; finding every public
  // one is full coverage.
  std::set<BroadcastId> discovered{"PUBLICbcast01"};
  double frac = crawler::discovered_fraction(world, discovered);
  EXPECT_DOUBLE_EQ(frac, 1.0);
  EXPECT_DOUBLE_EQ(crawler::discovered_fraction(world, {}), 0.0);
}

}  // namespace
}  // namespace psc::service
