// Unit tests for the fault subsystem's pure-data layer: Plan generation,
// the text format, episode queries, and the shared Backoff ladder.
#include <gtest/gtest.h>

#include <set>

#include "fault/backoff.h"
#include "fault/plan.h"

namespace psc::fault {
namespace {

// ---------------- Plan generation ----------------

TEST(FaultPlan, GenerateIsDeterministic) {
  const Plan a = Plan::generate(7);
  const Plan b = Plan::generate(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  EXPECT_NE(Plan::generate(7).to_text(), Plan::generate(8).to_text());
}

TEST(FaultPlan, GeneratedEpisodesRespectConfig) {
  GenConfig cfg;
  cfg.horizon = seconds(600);
  const Plan p = Plan::generate(3, cfg);
  for (const Episode& e : p.episodes()) {
    EXPECT_GE(to_s(e.start), 0.0);
    EXPECT_LT(to_s(e.start), 600.0);
    EXPECT_GT(to_s(e.duration), 0.0);
    if (e.kind == Kind::RateCollapse) {
      EXPECT_GT(e.severity, 0.0);
      EXPECT_LT(e.severity, 1.0);
    }
  }
}

TEST(FaultPlan, KindMaskIsIndependent) {
  // Masking kinds out must not perturb the surviving kinds' episodes:
  // the per-kind RNG streams are forked before the mask check.
  const Plan all = Plan::generate(11);
  GenConfig radio_only;
  radio_only.kinds = kRadioKinds;
  const Plan radio = Plan::generate(11, radio_only);

  const auto is_radio = [](const Episode& e) {
    return (kind_bit(e.kind) & kRadioKinds) != 0;
  };
  std::vector<Episode> expect;
  for (const Episode& e : all.episodes()) {
    if (is_radio(e)) expect.push_back(e);
  }
  ASSERT_EQ(radio.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(radio.episodes()[i].kind, expect[i].kind);
    EXPECT_EQ(to_s(radio.episodes()[i].start), to_s(expect[i].start));
    EXPECT_EQ(to_s(radio.episodes()[i].duration),
              to_s(expect[i].duration));
  }
}

TEST(FaultPlan, IntensityScalesEpisodeCount) {
  GenConfig dense;
  dense.intensity = 4.0;
  EXPECT_GT(Plan::generate(5, dense).size(), Plan::generate(5).size());
  GenConfig off;
  off.intensity = 0.0;
  EXPECT_TRUE(Plan::generate(5, off).empty());
}

TEST(FaultPlan, SameKindOverlapsAreDropped) {
  const auto parsed = Plan::parse(
      "# psc-fault-plan v1\n"
      "episode link_blackout start=10 dur=20\n"
      "episode link_blackout start=15 dur=5\n"   // inside the first: drop
      "episode link_blackout start=40 dur=5\n"   // disjoint: keep
      "episode rate_collapse start=12 dur=4 severity=0.1\n");  // other kind
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 3u);
}

// ---------------- Text format ----------------

TEST(FaultPlan, TextRoundTripIsFixpoint) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    const std::string t1 = Plan::generate(seed).to_text();
    const auto parsed = Plan::parse(t1);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().to_text(), t1) << "seed " << seed;
  }
}

TEST(FaultPlan, ParseRejectsMissingHeader) {
  const auto r = Plan::parse("episode link_blackout start=1 dur=2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "fault_plan");
}

TEST(FaultPlan, ParseRejectsUnknownKind) {
  const auto r = Plan::parse(
      "# psc-fault-plan v1\nepisode solar_flare start=1 dur=2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
}

TEST(FaultPlan, ParseRejectsBadNumbers) {
  EXPECT_FALSE(Plan::parse("# psc-fault-plan v1\n"
                           "episode link_blackout start=abc dur=2\n")
                   .ok());
  EXPECT_FALSE(Plan::parse("# psc-fault-plan v1\n"
                           "episode link_blackout start=1 dur=nan\n")
                   .ok());
  EXPECT_FALSE(Plan::parse("# psc-fault-plan v1\n"
                           "episode link_blackout start=-5 dur=2\n")
                   .ok());
  EXPECT_FALSE(Plan::parse("# psc-fault-plan v1\n"
                           "episode link_blackout dur=2\n")  // no start
                   .ok());
}

TEST(FaultPlan, ParseAcceptsCommentsAndBlankLines) {
  const auto r = Plan::parse(
      "# psc-fault-plan v1\n"
      "\n"
      "# a comment\n"
      "episode api_error_burst start=5 dur=10\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value().episodes()[0].kind, Kind::ApiErrorBurst);
}

TEST(FaultPlan, KindNamesRoundTrip) {
  for (int k = 0; k < kKindCount; ++k) {
    const Kind kind = static_cast<Kind>(k);
    Kind back = Kind::LinkBlackout;
    ASSERT_TRUE(kind_from_name(kind_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  Kind out;
  EXPECT_FALSE(kind_from_name("bogus", &out));
}

// ---------------- Queries ----------------

TEST(FaultPlan, ActiveFindsEpisodeByKindAndTarget) {
  const auto parsed = Plan::parse(
      "# psc-fault-plan v1\n"
      "episode edge_outage start=10 dur=20 target=0\n"
      "episode edge_outage start=50 dur=20 target=-1\n"
      "episode origin_restart start=15 dur=5\n");
  ASSERT_TRUE(parsed.ok());
  const Plan& p = parsed.value();

  // Wrong time / wrong kind.
  EXPECT_EQ(p.active(Kind::EdgeOutage, time_at(5)), nullptr);
  EXPECT_EQ(p.active(Kind::LinkBlackout, time_at(12)), nullptr);
  // Target matching: a target-0 episode hits edge 0 and "any" queries,
  // but not edge 1; a target=-1 episode hits every edge.
  EXPECT_NE(p.active(Kind::EdgeOutage, time_at(12), 0), nullptr);
  EXPECT_EQ(p.active(Kind::EdgeOutage, time_at(12), 1), nullptr);
  EXPECT_NE(p.active(Kind::EdgeOutage, time_at(12), -1), nullptr);
  EXPECT_NE(p.active(Kind::EdgeOutage, time_at(55), 1), nullptr);
  // End is exclusive.
  EXPECT_EQ(p.active(Kind::OriginRestart, time_at(20)), nullptr);
  EXPECT_NE(p.active(Kind::OriginRestart, time_at(19.9)), nullptr);
}

// ---------------- Backoff ----------------

TEST(Backoff, JitterFreeLadderIsExactAndDrawFree) {
  const BackoffConfig cfg{seconds(2), 2.0, seconds(16), 0.0, 0};
  Rng rng(5);
  Backoff b(cfg, Rng(5));
  EXPECT_EQ(to_s(b.next()), 2.0);
  EXPECT_EQ(to_s(b.next()), 4.0);
  EXPECT_EQ(to_s(b.next()), 8.0);
  EXPECT_EQ(to_s(b.next()), 16.0);
  EXPECT_EQ(to_s(b.next()), 16.0);  // capped
  b.reset();
  EXPECT_EQ(to_s(b.next()), 2.0);
  // jitter == 0 never draws: a ladder's Rng stays in the seed state.
  Rng untouched(5);
  Duration d = backoff_delay(cfg, 0, untouched);
  EXPECT_EQ(to_s(d), 2.0);
  EXPECT_EQ(untouched.engine()(), Rng(5).engine()());
}

TEST(Backoff, JitterStaysInBoundsAndIsDeterministic) {
  const BackoffConfig cfg{seconds(1), 2.0, seconds(8), 0.3, 0};
  Backoff a(cfg, Rng(9));
  Backoff b(cfg, Rng(9));
  for (int i = 0; i < 6; ++i) {
    const double base = std::min(8.0, std::pow(2.0, i));
    const double da = to_s(a.next());
    EXPECT_EQ(da, to_s(b.next()));  // same seed, same ladder
    EXPECT_GE(da, base * 0.7 - 1e-12);
    EXPECT_LE(da, base * 1.3 + 1e-12);
  }
}

TEST(Backoff, ExhaustionIsBoundedByConstruction) {
  const BackoffConfig cfg{millis(400), 2.0, seconds(6), 0.0, 3};
  Backoff b(cfg, Rng(1));
  int attempts = 0;
  while (!b.exhausted()) {
    (void)b.next();
    ++attempts;
    ASSERT_LE(attempts, 3) << "ladder must terminate";
  }
  EXPECT_EQ(attempts, 3);
  b.reset();
  EXPECT_FALSE(b.exhausted());
}

}  // namespace
}  // namespace psc::fault
