// Sim-time SLO engine: config text round-trip, parse failures, per-epoch
// evaluation, burn-rate windows, and the JSON snapshot schema.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/json.h"
#include "obs/slo.h"

namespace psc::obs {
namespace {

TEST(SloConfigText, DefaultsRoundTripThroughText) {
  const SloConfig defaults = default_slo_config();
  ASSERT_FALSE(defaults.objectives.empty());
  SloConfig reparsed;
  std::string err;
  ASSERT_TRUE(parse_slo_config(slo_config_to_text(defaults), &reparsed, &err))
      << err;
  ASSERT_EQ(reparsed.objectives.size(), defaults.objectives.size());
  for (std::size_t i = 0; i < defaults.objectives.size(); ++i) {
    EXPECT_EQ(reparsed.objectives[i].name, defaults.objectives[i].name);
    EXPECT_EQ(reparsed.objectives[i].metric, defaults.objectives[i].metric);
    EXPECT_EQ(reparsed.objectives[i].proto, defaults.objectives[i].proto);
    EXPECT_DOUBLE_EQ(reparsed.objectives[i].quantile,
                     defaults.objectives[i].quantile);
    EXPECT_DOUBLE_EQ(reparsed.objectives[i].threshold,
                     defaults.objectives[i].threshold);
    EXPECT_EQ(reparsed.objectives[i].burn_window,
              defaults.objectives[i].burn_window);
  }
}

TEST(SloConfigText, ParsesCommentsProtoAndBurnWindow) {
  SloConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_slo_config(
      "# psc-slo v1\n"
      "\n"
      "slo join_p95 p95 join_s proto=rtmp < 4.5 burn_window=2\n"
      "slo stall_any p90 stall_ratio < 0.02\n",
      &cfg, &err))
      << err;
  ASSERT_EQ(cfg.objectives.size(), 2u);
  EXPECT_EQ(cfg.objectives[0].name, "join_p95");
  EXPECT_DOUBLE_EQ(cfg.objectives[0].quantile, 0.95);
  EXPECT_EQ(cfg.objectives[0].proto, "rtmp");
  EXPECT_DOUBLE_EQ(cfg.objectives[0].threshold, 4.5);
  EXPECT_EQ(cfg.objectives[0].burn_window, 2);
  EXPECT_EQ(cfg.objectives[1].proto, "");  // all protocols
  EXPECT_EQ(cfg.objectives[1].burn_window, 3);  // default
}

TEST(SloConfigText, RejectsMalformedLinesWithLineNumbers) {
  SloConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_slo_config("slo broken p99 join_s\n", &cfg, &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_slo_config("oops\n", &cfg, &err));
  EXPECT_FALSE(parse_slo_config("slo x q99 join_s < 5\n", &cfg, &err));
  EXPECT_FALSE(
      parse_slo_config("slo x p99 join_s < 5 nonsense=1\n", &cfg, &err));
  EXPECT_FALSE(
      parse_slo_config("slo x p99 join_s < 5 burn_window=0\n", &cfg, &err));
  EXPECT_FALSE(parse_slo_config("slo x p0 join_s < 5\n", &cfg, &err));
  // Numbers are strict: trailing junk, words and non-finite values fail
  // instead of reading as a prefix (or as 0).
  EXPECT_FALSE(parse_slo_config("slo x p99x join_s < 5\n", &cfg, &err));
  EXPECT_FALSE(
      parse_slo_config("slo x p99 join_s < 5 burn_window=3x\n", &cfg, &err));
  EXPECT_FALSE(parse_slo_config("slo x p99 join_s < abc\n", &cfg, &err));
  EXPECT_FALSE(parse_slo_config("slo x p99 join_s < nan\n", &cfg, &err));
  EXPECT_FALSE(parse_slo_config("slo x p99 join_s < inf\n", &cfg, &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
}

SloConfig single(const char* metric, const char* proto, double q,
                 double threshold, int burn) {
  SloConfig cfg;
  cfg.objectives.push_back({"obj", metric, proto, q, threshold, burn});
  return cfg;
}

TEST(SloEval, PassAndFailPerEpoch) {
  SloTrack track;
  for (int i = 0; i < 20; ++i) {
    track.observe("join_s", "rtmp", 0, 1.0);  // epoch 0 healthy
    track.observe("join_s", "rtmp", 1, 9.0);  // epoch 1 breaches p99 < 5
  }
  const auto results =
      evaluate_slo(track, single("join_s", "rtmp", 0.99, 5, 3));
  ASSERT_EQ(results.size(), 1u);
  const SloResult& r = results[0];
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.violations, 1u);
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_TRUE(r.epochs[0].pass);
  EXPECT_FALSE(r.epochs[1].pass);
  EXPECT_EQ(r.epochs[0].count, 20u);
  // Burn: trailing windows over *observed* epochs, clamped to what
  // exists — at epoch 1 the window is {0, 1}, one failing -> 1/2.
  EXPECT_DOUBLE_EQ(r.worst_burn, 0.5);
}

TEST(SloEval, BurnRateOverTrailingWindows) {
  SloTrack track;
  // Epochs 0..5: fail only in 2 and 3. burn_window=3: the worst window
  // {2,3,4}... wait, {1,2,3} has 2 fails / 3 = 2/3.
  for (int e = 0; e < 6; ++e) {
    const double v = (e == 2 || e == 3) ? 9.0 : 1.0;
    track.observe("join_s", "rtmp", e, v);
  }
  const auto results =
      evaluate_slo(track, single("join_s", "rtmp", 0.99, 5, 3));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].violations, 2u);
  EXPECT_NEAR(results[0].worst_burn, 2.0 / 3.0, 1e-12);
}

TEST(SloEval, NoObservationsIsNotAViolation) {
  const SloTrack empty;
  const auto results =
      evaluate_slo(empty, single("join_s", "rtmp", 0.99, 5, 3));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].pass);
  EXPECT_TRUE(results[0].epochs.empty());
  EXPECT_DOUBLE_EQ(results[0].worst_burn, 0.0);
}

TEST(SloEval, EmptyProtoMergesAllProtocols) {
  SloTrack track;
  track.observe("stall_ratio", "rtmp", 0, 0.01);
  track.observe("stall_ratio", "hls", 0, 0.5);  // breaches via the merge
  const auto split =
      evaluate_slo(track, single("stall_ratio", "rtmp", 0.9, 0.02, 3));
  EXPECT_TRUE(split[0].pass);
  const auto merged =
      evaluate_slo(track, single("stall_ratio", "", 0.9, 0.02, 3));
  EXPECT_FALSE(merged[0].pass);
  ASSERT_EQ(merged[0].epochs.size(), 1u);
  EXPECT_EQ(merged[0].epochs[0].count, 2u);
}

TEST(SloTrackMerge, ShardMergeAddsObservations) {
  SloTrack a, b;
  a.observe("join_s", "rtmp", 0, 1.0);
  b.observe("join_s", "rtmp", 0, 9.0);
  b.observe("join_s", "hls", 2, 3.0);
  a.merge(b);
  const auto results =
      evaluate_slo(a, single("join_s", "rtmp", 0.99, 5, 3));
  ASSERT_EQ(results[0].epochs.size(), 1u);
  EXPECT_EQ(results[0].epochs[0].count, 2u);
  EXPECT_FALSE(results[0].epochs[0].pass);
}

TEST(SloJson, SchemaParsesAndCarriesVerdicts) {
  SloTrack track;
  for (int i = 0; i < 10; ++i) track.observe("join_s", "rtmp", 0, 9.0);
  const std::string json =
      slo_json(track, single("join_s", "rtmp", 0.99, 5, 3));
  const auto parsed = json::parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const json::Value& root = parsed.value();
  ASSERT_EQ(root["config"].as_array().size(), 1u);
  EXPECT_EQ(root["config"][std::size_t{0}]["metric"].as_string(), "join_s");
  ASSERT_EQ(root["results"].as_array().size(), 1u);
  const json::Value& res = root["results"][std::size_t{0}];
  EXPECT_EQ(res["name"].as_string(), "obj");
  EXPECT_FALSE(res["pass"].as_bool(true));
  EXPECT_EQ(res["violations"].as_number(), 1.0);
  EXPECT_EQ(res["epochs"][std::size_t{0}]["count"].as_number(), 10.0);
}

TEST(SloTrace, ViolationInstantsLandAtEpochEnd) {
  SloTrack track;
  track.observe("join_s", "rtmp", 1, 9.0);
  Tracer trace;
  trace.set_enabled(true);
  emit_violation_instants(trace, track,
                          single("join_s", "rtmp", 0.99, 5, 3),
                          /*epoch_len_s=*/60);
  const auto events = trace.take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "violation:obj");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_DOUBLE_EQ(events[0].ts_us, 120e6);  // end of epoch 1
}

}  // namespace
}  // namespace psc::obs
