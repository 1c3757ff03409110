// Fault injection end-to-end: campaign determinism with faults enabled,
// the client give-up paths (RTMP reconnect exhaustion, HLS abandonment),
// bounded termination under an intense all-kinds plan, a malformed plan
// failing the campaign, the Plan's point-in-time queries that the API
// server, CDN edge and sessions consult, and arming radio episodes onto
// access links.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/study.h"
#include "fault/plan.h"
#include "net/link.h"

namespace psc::core {
namespace {

/// Like test_parallel.cpp's fingerprint, extended with the resilience
/// outcome fields — those must be deterministic too.
std::string resilience_fingerprint(const CampaignResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const SessionRecord& rec : r.sessions) {
    const client::SessionStats& s = rec.stats;
    out << s.broadcast_id << '|' << static_cast<int>(s.protocol) << '|'
        << s.join_time_s << '|' << s.played_s << '|' << s.stalled_s << '|'
        << s.stall_count << '|' << s.stall_ratio << '|' << s.bytes_received
        << '|' << static_cast<int>(s.outcome) << '|' << s.reconnects << '|'
        << s.retries << '\n';
  }
  return out.str();
}

ShardedCampaign fault_campaign(std::uint64_t seed, int sessions) {
  ShardedCampaign c;
  c.base.seed = seed;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.base.fault.enabled = true;
  c.base.fault.seed = 5;
  c.base.fault.gen.intensity = 6.0;  // dense enough to exercise recovery
  c.sessions = sessions;
  c.shard_size = 4;
  c.analyze = false;
  return c;
}

double activity(const CampaignResult& r) {
  double a = 0;
  for (const SessionRecord& rec : r.sessions) {
    a += rec.stats.reconnects + rec.stats.retries;
    if (rec.stats.outcome == client::Outcome::GaveUp) ++a;
  }
  return a;
}

// The determinism contract must survive fault injection: the plan seed is
// used verbatim (never shard-mixed), so the merged result is byte-identical
// across thread counts — in both campaign modes.
TEST(FaultCampaign, DeterministicAcrossThreadCounts) {
  const ShardedCampaign campaign = fault_campaign(77, 16);
  const std::string seq = resilience_fingerprint(ShardedRunner(1).run(campaign));
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(2).run(campaign)), seq);
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(8).run(campaign)), seq);
}

TEST(FaultCampaign, DeterministicAcrossThreadCountsSharedWorld) {
  ShardedCampaign campaign = fault_campaign(77, 24);
  campaign.base.mode = CampaignMode::shared_world;
  campaign.shard_size = 12;
  const std::string seq = resilience_fingerprint(ShardedRunner(1).run(campaign));
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(2).run(campaign)), seq);
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(8).run(campaign)), seq);
}

// A plan must actually perturb sessions (else the above just re-tests the
// faults-off path), and turning faults on must change outcomes vs. clean.
TEST(FaultCampaign, FaultsPerturbOutcomes) {
  ShardedCampaign faulty = fault_campaign(31, 16);
  ShardedCampaign clean = faulty;
  clean.base.fault.enabled = false;
  const CampaignResult rf = ShardedRunner(2).run(faulty);
  const CampaignResult rc = ShardedRunner(2).run(clean);
  EXPECT_GT(activity(rf), 0.0);
  EXPECT_EQ(activity(rc), 0.0);
  EXPECT_NE(resilience_fingerprint(rf), resilience_fingerprint(rc));
}

// RTMP give-up: the origin never comes back, so every reconnect attempt
// finds it restarting and the backoff ladder runs to exhaustion.
TEST(Resilience, RtmpGivesUpWhenOriginNeverReturns) {
  ShardedCampaign campaign = fault_campaign(9, 12);
  campaign.base.fault.plan_text =
      "# psc-fault-plan v1\n"
      "episode origin_restart start=0 dur=100000\n";
  const CampaignResult r = ShardedRunner(1).run(campaign);
  ASSERT_FALSE(r.sessions.empty());
  int rtmp_seen = 0;
  const int max_attempts =
      fault::ResilienceConfig{}.rtmp_reconnect.max_attempts;
  for (const SessionRecord& rec : r.sessions) {
    if (rec.stats.protocol != client::Protocol::Rtmp) continue;
    ++rtmp_seen;
    EXPECT_EQ(rec.stats.outcome, client::Outcome::GaveUp);
    EXPECT_EQ(rec.stats.reconnects, 0);          // never got back in
    EXPECT_EQ(rec.stats.retries, max_attempts);  // full ladder climbed
  }
  EXPECT_GT(rtmp_seen, 0);
}

// HLS give-up: both edges are down for the whole run via per-target
// episodes (an all-edges episode would 503 playlists too and the session
// would never even issue segment fetches). Every segment fetch fails on
// both edges, retries exhaust, and consecutive abandonments trip the
// give-up threshold.
TEST(Resilience, HlsGivesUpWhenEveryEdgeRejectsSegments) {
  ShardedCampaign campaign = fault_campaign(9, 12);
  campaign.base.fault.plan_text =
      "# psc-fault-plan v1\n"
      "episode edge_outage start=0 dur=100000 target=0\n"
      "episode edge_outage start=0 dur=100000 target=1\n";
  const CampaignResult r = ShardedRunner(1).run(campaign);
  ASSERT_FALSE(r.sessions.empty());
  int hls_seen = 0;
  for (const SessionRecord& rec : r.sessions) {
    if (rec.stats.protocol != client::Protocol::Hls) continue;
    ++hls_seen;
    EXPECT_EQ(rec.stats.outcome, client::Outcome::GaveUp);
    EXPECT_GT(rec.stats.retries, 0);
    // Playlist polls still count bytes; no *media* ever played though.
    EXPECT_DOUBLE_EQ(rec.stats.played_s, 0.0);
  }
  EXPECT_GT(hls_seen, 0);
}

// Bounded termination: with every fault kind active at high intensity the
// campaign still drains — each session ends in a defined state (Completed
// or GaveUp) rather than hanging on a retry loop. The give-up thresholds
// bound the retry chains by construction; this test failing would show up
// as a hang (event queue never drains), not an assertion.
TEST(Resilience, EverySessionTerminatesUnderIntenseFaults) {
  for (const CampaignMode mode :
       {CampaignMode::independent_worlds, CampaignMode::shared_world}) {
    ShardedCampaign campaign = fault_campaign(3, 16);
    campaign.base.fault.gen.intensity = 8.0;
    campaign.base.mode = mode;
    if (mode == CampaignMode::shared_world) campaign.shard_size = 12;
    const CampaignResult r = ShardedRunner(2).run(campaign);
    for (const SessionRecord& rec : r.sessions) {
      EXPECT_TRUE(rec.stats.outcome == client::Outcome::Completed ||
                  rec.stats.outcome == client::Outcome::GaveUp);
      EXPECT_GE(rec.stats.played_s, 0.0);
      EXPECT_GE(rec.stats.stalled_s, 0.0);
    }
  }
}

// A plan that does not parse must fail the campaign, in both modes (the
// independent shards build their Study inside the worker pool, the
// shared-world ones on the calling thread), instead of silently running
// a plan generated from the seed.
TEST(FaultCampaign, MalformedPlanTextThrows) {
  for (const CampaignMode mode :
       {CampaignMode::independent_worlds, CampaignMode::shared_world}) {
    ShardedCampaign campaign = fault_campaign(9, 4);
    campaign.base.mode = mode;
    campaign.base.fault.plan_text =
        "# psc-fault-plan v1\n"
        "episode origin_restart start=abc dur=10\n";
    try {
      ShardedRunner(2).run(campaign);
      FAIL() << "a malformed fault plan ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultCampaign, FaultsOffIsTheEmptyPlan) {
  StudyConfig cfg;
  cfg.world.target_concurrent = 250;
  cfg.world.hotspot_count = 40;
  cfg.fault.plan_text = "not a plan";  // only read when faults are on
  const Study study(cfg, own_world(cfg, 1));
  EXPECT_TRUE(study.fault_plan().empty());
}

// ---------------- Plan point-in-time queries ----------------

TEST(PlanQuery, ApiFaultWindows) {
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode api_error_burst start=10 dur=5\n"
      "episode api_latency_burst start=30 dur=5 severity=2\n");
  ASSERT_TRUE(plan.ok());
  const fault::Plan& p = plan.value();
  EXPECT_EQ(p.api_at(time_at(12)).status, 503);
  EXPECT_EQ(p.api_at(time_at(20)).status, 0);
  EXPECT_EQ(to_s(p.api_at(time_at(31)).extra_latency), 2.0);
  EXPECT_EQ(to_s(p.api_at(time_at(12)).extra_latency), 0.0);
}

TEST(PlanQuery, EdgeOutageTargeting) {
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode edge_outage start=0 dur=10 target=0\n"
      "episode edge_outage start=20 dur=10 target=-1\n");
  ASSERT_TRUE(plan.ok());
  const fault::Plan& p = plan.value();
  // Per-edge outage: only edge 0, and NOT an all-edges outage (playlists
  // keep flowing; the session fails over to edge 1).
  EXPECT_TRUE(p.edge_down(0, time_at(5)));
  EXPECT_FALSE(p.edge_down(1, time_at(5)));
  EXPECT_FALSE(p.all_edges_down(time_at(5)));
  // target=-1 hits everything, including the CDN edge's own check.
  EXPECT_TRUE(p.edge_down(0, time_at(25)));
  EXPECT_TRUE(p.edge_down(1, time_at(25)));
  EXPECT_TRUE(p.all_edges_down(time_at(25)));
}

TEST(PlanQuery, OriginRestartWindow) {
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode origin_restart start=50 dur=10\n");
  ASSERT_TRUE(plan.ok());
  const fault::Plan& p = plan.value();
  EXPECT_FALSE(p.origin_restarting(time_at(49)));
  EXPECT_TRUE(p.origin_restarting(time_at(55)));
  EXPECT_FALSE(p.origin_restarting(time_at(60)));  // end-exclusive
}

TEST(PlanQuery, EmptyPlanAnswersEveryQueryFalseOrZero) {
  const fault::Plan& p = fault::Plan::none();
  EXPECT_TRUE(p.empty());
  for (const double t : {0.0, 12.0, 1e6}) {
    EXPECT_FALSE(p.origin_restarting(time_at(t)));
    EXPECT_FALSE(p.edge_down(0, time_at(t)));
    EXPECT_FALSE(p.edge_down(-1, time_at(t)));
    EXPECT_FALSE(p.all_edges_down(time_at(t)));
    EXPECT_EQ(p.api_at(time_at(t)).status, 0);
    EXPECT_EQ(to_s(p.api_at(time_at(t)).extra_latency), 0.0);
    for (int k = 0; k < fault::kKindCount; ++k) {
      EXPECT_EQ(p.active(static_cast<fault::Kind>(k), time_at(t)), nullptr);
    }
  }
}

// ---------------- Arming radio episodes onto an access link ----------------

fault::Plan plan_of(const char* episodes) {
  auto plan =
      fault::Plan::parse(std::string("# psc-fault-plan v1\n") + episodes);
  EXPECT_TRUE(plan.ok());
  return plan.ok() ? std::move(plan).value() : fault::Plan();
}

/// Arrival time of a 1 Mbit transfer sent on `link` now (1 s of
/// serialization at 1 Mbps, no latency).
double arrival_of_one_second_send(sim::Simulation& sim, net::Link& link) {
  TimePoint arrival{};
  link.send(Bytes(125000, 0),
            [&](TimePoint t, util::BufferSlice) { arrival = t; });
  sim.run_all();
  return to_s(arrival);
}

TEST(ArmAccessLink, BlackoutUnderWayAtFromFreezesImmediately) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  sim.run_until(time_at(10));
  const fault::Plan plan =
      plan_of("episode link_blackout start=5 dur=10\n");
  const std::size_t before = sim.events_scheduled();
  fault::arm_access_link(sim, link, plan, time_at(10), time_at(40));
  // Applied as a value, with no event: the link is dead until 15 s.
  EXPECT_EQ(sim.events_scheduled(), before);
  EXPECT_NEAR(arrival_of_one_second_send(sim, link), 16.0, 1e-9);
}

TEST(ArmAccessLink, RateCollapseOutlivingUntilIsClearedAtUntil) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  const fault::Plan plan =
      plan_of("episode rate_collapse start=5 dur=100 severity=0.1\n");
  fault::arm_access_link(sim, link, plan, time_at(0), time_at(20));
  sim.run_until(time_at(10));
  EXPECT_DOUBLE_EQ(link.fault_factor(), 0.1);
  sim.run_until(time_at(19.999));
  EXPECT_DOUBLE_EQ(link.fault_factor(), 0.1);
  // The owner may be gone after `until`, so the clear fires at `until`,
  // not at the episode's end (105 s).
  sim.run_until(time_at(20));
  EXPECT_DOUBLE_EQ(link.fault_factor(), 1.0);
  EXPECT_FALSE(sim.pending());
}

TEST(ArmAccessLink, EpisodesOutsideTheWindowScheduleNothing) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  sim.run_until(time_at(10));
  // Ends exactly at `from`, starts exactly at `until`, server-side kinds.
  const fault::Plan plan = plan_of(
      "episode link_blackout start=2 dur=8\n"
      "episode rate_collapse start=0 dur=10 severity=0.1\n"
      "episode handover_gap start=40 dur=2\n"
      "episode rate_collapse start=50 dur=5 severity=0.1\n"
      "episode origin_restart start=12 dur=5\n"
      "episode edge_outage start=12 dur=5\n");
  const std::size_t before = sim.events_scheduled();
  fault::arm_access_link(sim, link, plan, time_at(10), time_at(40));
  EXPECT_EQ(sim.events_scheduled(), before);
  EXPECT_DOUBLE_EQ(link.fault_factor(), 1.0);
  EXPECT_NEAR(arrival_of_one_second_send(sim, link), 11.0, 1e-9);
}

TEST(ArmAccessLink, EmptyPlanArmsNothing) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  fault::arm_access_link(sim, link, fault::Plan::none(), time_at(0),
                         time_at(1e6));
  EXPECT_EQ(sim.events_scheduled(), 0u);
  EXPECT_DOUBLE_EQ(link.fault_factor(), 1.0);
  EXPECT_NEAR(arrival_of_one_second_send(sim, link), 1.0, 1e-9);
}

}  // namespace
}  // namespace psc::core
