// QoE root-cause attribution: the event log ring, the ranked cause
// picker's edge cases, histogram exemplars, and the end-to-end campaign
// contract — per-cause stall seconds re-add to the session stall total,
// and the whole attribution output is byte-identical across thread
// counts in faulted shared-world campaigns.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/study.h"
#include "json/json.h"
#include "obs/attrib.h"
#include "obs/bundle.h"
#include "obs/eventlog.h"

namespace psc::obs {
namespace {

// --- EventLog ring -------------------------------------------------------

TEST(EventLog, RecordsSessionContextAndPayloads) {
  EventLog log(64);
  log.set_enabled(true);
  log.begin_session(42, "rtmp", 10.0);
  log.log(EventKind::StallStart, 12.0);
  log.log(EventKind::StallEnd, 15.0, 3.0);
  log.end_session(70.0, 55.0, 3.0);

  const std::vector<LogEvent> events = log.take_events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::SessionBegin);
  EXPECT_EQ(events[0].session, 42u);
  EXPECT_STREQ(events[0].proto, "rtmp");
  EXPECT_EQ(events[2].kind, EventKind::StallEnd);
  EXPECT_DOUBLE_EQ(events[2].a, 3.0);
  EXPECT_EQ(events[3].kind, EventKind::SessionEnd);
  EXPECT_DOUBLE_EQ(events[3].b, 3.0);
}

TEST(EventLog, SetProtoUpgradesLaterEvents) {
  EventLog log(64);
  log.set_enabled(true);
  log.begin_session(1, "", 0.0);  // proto unknown until accessVideo
  log.log(EventKind::Retry, 1.0, 1, 0, "api");
  log.set_proto("hls");
  log.log(EventKind::FetchOutcome, 2.0, 200, 0);
  const auto events = log.take_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[1].proto, "");
  EXPECT_STREQ(events[2].proto, "hls");
}

TEST(EventLog, DisabledLogRecordsNothing) {
  EventLog log(64);
  log.begin_session(1, "rtmp", 0.0);
  log.log(EventKind::StallStart, 1.0);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.take_events().empty());
  EXPECT_TRUE(log.current_session_events().empty());
}

TEST(EventLog, RingDropsOldestAndCurrentSessionSurvives) {
  EventLog log(8);
  log.set_enabled(true);
  log.begin_session(1, "rtmp", 0.0);
  for (int i = 0; i < 20; ++i) {
    log.log(EventKind::Media, static_cast<double>(i));
  }
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.dropped(), 13u);  // 21 pushed, 8 survive

  // current_session_events clamps to the surviving window (the
  // SessionBegin itself was dropped) and preserves record order.
  const auto current = log.current_session_events();
  ASSERT_EQ(current.size(), 8u);
  for (std::size_t i = 1; i < current.size(); ++i) {
    EXPECT_GT(current[i].t_s, current[i - 1].t_s);
  }
  EXPECT_DOUBLE_EQ(current.back().t_s, 19.0);
}

TEST(EventLog, JsonSchemaRoundTrips) {
  EventLog log(16);
  log.set_enabled(true);
  log.begin_session(7, "hls", 1.5);
  log.log(EventKind::FetchOutcome, 2.0, 404, 1, "stale");
  const std::string json = event_log_json(log.take_events());
  const auto parsed = json::parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const json::Value& arr = parsed.value();
  ASSERT_EQ(arr.as_array().size(), 2u);
  EXPECT_EQ(arr[1]["kind"].as_string(), "fetch");
  EXPECT_EQ(arr[1]["proto"].as_string(), "hls");
  EXPECT_EQ(arr[1]["a"].as_number(), 404);
  EXPECT_EQ(arr[1]["detail"].as_string(), "stale");
}

// --- attribute_session ranking ------------------------------------------

std::vector<LogEvent> session_skeleton(double stall_at = 10,
                                       double stall_s = 4) {
  std::vector<LogEvent> ev;
  auto push = [&](EventKind k, double t, double a = 0, double b = 0) {
    LogEvent e;
    e.session = 1;
    e.kind = k;
    e.t_s = t;
    e.a = a;
    e.b = b;
    ev.push_back(e);
  };
  push(EventKind::SessionBegin, 0);
  push(EventKind::JoinDone, 1, 1);
  push(EventKind::StallStart, stall_at);
  push(EventKind::StallEnd, stall_at + stall_s, stall_s);
  push(EventKind::SessionEnd, 60, 55, stall_s);
  return ev;
}

TEST(Attrib, DominantOverlapWinsAcrossTwoEpisodes) {
  // Stall [10,14). RadioBlackout overlaps 2 s, RateCollapse 3 s: the
  // larger overlap wins even though radio has the lower (higher-priority)
  // enum value.
  SessionEvidence evidence;
  evidence.episodes.push_back({Cause::RadioBlackout, 9, 12});
  evidence.episodes.push_back({Cause::RateCollapse, 11, 16});
  const SessionAttribution att =
      attribute_session(session_skeleton(), evidence);
  ASSERT_EQ(att.stalls.size(), 1u);
  EXPECT_EQ(att.stalls[0].cause, Cause::RateCollapse);
  EXPECT_DOUBLE_EQ(att.stall_s, 4.0);
}

TEST(Attrib, OverlapTieBreaksToLowerCauseThenEarlierStart) {
  // Both overlap exactly 2 s; RadioBlackout (enum 0) beats RateCollapse.
  SessionEvidence evidence;
  evidence.episodes.push_back({Cause::RateCollapse, 10, 12});
  evidence.episodes.push_back({Cause::RadioBlackout, 12, 14});
  SessionAttribution att = attribute_session(session_skeleton(), evidence);
  ASSERT_EQ(att.stalls.size(), 1u);
  EXPECT_EQ(att.stalls[0].cause, Cause::RadioBlackout);

  // Same cause twice: the earlier window is the reported one (pure
  // tie-break determinism; the cause is the same either way).
  evidence.episodes.clear();
  evidence.episodes.push_back({Cause::HandoverGap, 12, 14});
  evidence.episodes.push_back({Cause::HandoverGap, 10, 12});
  att = attribute_session(session_skeleton(), evidence);
  ASSERT_EQ(att.stalls.size(), 1u);
  EXPECT_EQ(att.stalls[0].cause, Cause::HandoverGap);
}

TEST(Attrib, FailedFetchRanksByStatus) {
  auto with_fetch = [](double t, double status) {
    std::vector<LogEvent> ev = session_skeleton();
    LogEvent e;
    e.kind = EventKind::FetchOutcome;
    e.t_s = t;
    e.a = status;
    ev.insert(ev.begin() + 2, e);  // before StallStart
    return ev;
  };
  const SessionEvidence none;
  EXPECT_EQ(attribute_session(with_fetch(9.5, 404), none).stalls[0].cause,
            Cause::EdgeMiss);
  EXPECT_EQ(attribute_session(with_fetch(9.5, 503), none).stalls[0].cause,
            Cause::EdgeOutage);
  EXPECT_EQ(attribute_session(with_fetch(9.5, 0), none).stalls[0].cause,
            Cause::ChunkPacing);  // timeout: the link is just too slow
  // Outside the lookback window the fetch is unrelated.
  EXPECT_EQ(attribute_session(with_fetch(6.0, 404), none).stalls[0].cause,
            Cause::Unattributed);
}

TEST(Attrib, AbrDownSwitchAndLoadPenaltyAndPacing) {
  std::vector<LogEvent> ev = session_skeleton();
  LogEvent abr;
  abr.kind = EventKind::AbrSwitch;
  abr.t_s = 7;
  abr.a = 2;  // from level
  abr.b = 1;  // to level: a downswitch
  ev.insert(ev.begin() + 2, abr);
  EXPECT_EQ(attribute_session(ev, SessionEvidence{}).stalls[0].cause,
            Cause::AbrDownSwitch);

  // An *up*-switch is not evidence.
  ev[2].a = 1;
  ev[2].b = 2;
  EXPECT_EQ(attribute_session(ev, SessionEvidence{}).stalls[0].cause,
            Cause::Unattributed);

  // Load penalty above the floor.
  SessionEvidence loaded;
  loaded.load_penalty_s = 0.2;
  EXPECT_EQ(
      attribute_session(session_skeleton(), loaded).stalls[0].cause,
      Cause::OriginLoad);

  // Media trickling in during the stall: pacing.
  std::vector<LogEvent> paced = session_skeleton();
  LogEvent media;
  media.kind = EventKind::Media;
  media.t_s = 12;
  paced.insert(paced.begin() + 3, media);
  EXPECT_EQ(attribute_session(paced, SessionEvidence{}).stalls[0].cause,
            Cause::ChunkPacing);
}

TEST(Attrib, NoEvidenceNeverCrashesAndTagsUnattributed) {
  // Empty log.
  const SessionAttribution empty =
      attribute_session({}, SessionEvidence{});
  EXPECT_TRUE(empty.stalls.empty());
  EXPECT_FALSE(empty.slow_join);

  // A bare stall with zero evidence.
  const SessionAttribution att =
      attribute_session(session_skeleton(), SessionEvidence{});
  ASSERT_EQ(att.stalls.size(), 1u);
  EXPECT_EQ(att.stalls[0].cause, Cause::Unattributed);

  // Unmatched StallStart (its end was dropped from the ring): the span
  // closes at session end and still gets a cause.
  std::vector<LogEvent> truncated = session_skeleton();
  truncated.erase(truncated.begin() + 3);  // drop the StallEnd
  const SessionAttribution open =
      attribute_session(truncated, SessionEvidence{});
  ASSERT_EQ(open.stalls.size(), 1u);
  EXPECT_DOUBLE_EQ(open.stalls[0].end_s, 60.0);
  EXPECT_EQ(open.stalls[0].cause, Cause::Unattributed);
}

TEST(Attrib, SlowAndFailedJoinsGetACause) {
  // Never joined at all: the whole session is the join window.
  std::vector<LogEvent> ev;
  LogEvent b;
  b.kind = EventKind::SessionBegin;
  b.t_s = 0;
  ev.push_back(b);
  LogEvent e;
  e.kind = EventKind::SessionEnd;
  e.t_s = 30;
  ev.push_back(e);
  SessionEvidence evidence;
  evidence.episodes.push_back({Cause::OriginRestart, 0, 100});
  const SessionAttribution failed = attribute_session(ev, evidence);
  EXPECT_TRUE(failed.slow_join);
  EXPECT_DOUBLE_EQ(failed.join_s, 30.0);
  EXPECT_EQ(failed.join_cause, Cause::OriginRestart);

  // Join above the slow-join threshold.
  std::vector<LogEvent> slow = session_skeleton();
  slow[1].t_s = 7;
  slow[1].a = 7;  // JoinDone after 7 s
  const SessionAttribution att = attribute_session(slow, evidence);
  EXPECT_TRUE(att.slow_join);
  EXPECT_EQ(att.join_cause, Cause::OriginRestart);

  // Fast join: no slow-join cause assigned.
  EXPECT_FALSE(
      attribute_session(session_skeleton(), SessionEvidence{}).slow_join);
}

TEST(Attrib, CauseNamesAreStableAndComplete) {
  for (std::size_t i = 0; i < kCauseCount; ++i) {
    EXPECT_STRNE(cause_name(static_cast<Cause>(i)), "");
  }
  EXPECT_STREQ(cause_name(Cause::RadioBlackout), "radio_blackout");
  EXPECT_STREQ(cause_name(Cause::Unattributed), "unattributed");
}

TEST(Attrib, RecordAttributionWritesSeriesAndExemplars) {
  Obs obs;
  SessionAttribution att;
  att.stalls.push_back({10, 14, 4, Cause::RadioBlackout});
  att.stalls.push_back({20, 21, 1, Cause::RadioBlackout});
  att.slow_join = true;
  att.join_cause = Cause::OriginLoad;
  record_attribution(obs, att, 99);

  EXPECT_DOUBLE_EQ(
      obs.metrics.counter("stall_seconds_total{cause=\"radio_blackout\"}")
          .value(),
      5.0);
  EXPECT_DOUBLE_EQ(
      obs.metrics.counter("stall_events_total{cause=\"radio_blackout\"}")
          .value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      obs.metrics.counter("slow_joins_total{cause=\"origin_load\"}").value(),
      1.0);
  // The histogram carries the worst span's exemplar, keyed to session 99.
  const Histogram& h =
      obs.metrics.histogram("stall_attributed_s{cause=\"radio_blackout\"}");
  EXPECT_EQ(h.count(), 2u);
  bool found = false;
  for (const auto& [bucket, ex] : h.exemplars()) {
    if (ex.value == 4.0) {
      found = true;
      EXPECT_EQ(ex.session, 99u);
      EXPECT_DOUBLE_EQ(ex.t_s, 14.0);
    }
  }
  EXPECT_TRUE(found);
}

// --- Histogram exemplars -------------------------------------------------

TEST(Exemplar, MaxValueWinsAndTiesBreakToSmallerSession) {
  // 3.0 and 3.1 share the [3.0, 3.125) sub-bucket (kSubBuckets = 16
  // splits the [2, 4) octave into 0.125-wide buckets).
  Histogram h;
  h.record(3.0, 100.0, 7);
  h.record(3.1, 200.0, 9);  // same bucket, larger value: replaces
  const auto& ex = h.exemplars();
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_DOUBLE_EQ(ex.begin()->second.value, 3.1);
  EXPECT_EQ(ex.begin()->second.session, 9u);

  Histogram tie;
  tie.record(3.0, 100.0, 9);
  tie.record(3.0, 200.0, 7);  // equal value: smaller session id wins
  EXPECT_EQ(tie.exemplars().begin()->second.session, 7u);
  EXPECT_DOUBLE_EQ(tie.exemplars().begin()->second.t_s, 200.0);

  Histogram keep;
  keep.record(3.0, 100.0, 7);
  keep.record(3.0, 200.0, 9);  // equal value, larger session: keeps 7
  EXPECT_EQ(keep.exemplars().begin()->second.session, 7u);
}

TEST(Exemplar, MergeIsOrderInsensitive) {
  Histogram a, b;
  a.record(3.0, 100.0, 7);
  a.record(0.5, 10.0, 3);
  b.record(3.5, 200.0, 9);
  Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  ASSERT_EQ(ab.exemplars().size(), ba.exemplars().size());
  auto it_ab = ab.exemplars().begin();
  for (auto it_ba = ba.exemplars().begin(); it_ba != ba.exemplars().end();
       ++it_ba, ++it_ab) {
    EXPECT_EQ(it_ab->first, it_ba->first);
    EXPECT_DOUBLE_EQ(it_ab->second.value, it_ba->second.value);
    EXPECT_EQ(it_ab->second.session, it_ba->second.session);
  }
}

TEST(Exemplar, JsonOnlyEmittedWhenPresent) {
  Registry reg;
  reg.histogram("plain").record(1.0);
  reg.histogram("witnessed").record(1.0, 42.0, 5);
  const std::string json = reg.to_json();
  const auto parsed = json::parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const json::Value& hists = parsed.value()["histograms"];
  EXPECT_FALSE(hists["plain"].has("exemplars"));
  ASSERT_TRUE(hists["witnessed"].has("exemplars"));
  const json::Value& ex = hists["witnessed"]["exemplars"][std::size_t{0}];
  EXPECT_EQ(ex["t_s"].as_number(), 42.0);
  EXPECT_EQ(ex["session"].as_number(), 5.0);
}

// --- End-to-end campaign contract ---------------------------------------

class ScopedMetrics {
 public:
  ScopedMetrics() : was_(metrics_enabled()) { set_metrics_enabled(true); }
  ~ScopedMetrics() { set_metrics_enabled(was_); }

 private:
  bool was_;
};

core::ShardedCampaign faulted_campaign(std::uint64_t seed, int sessions) {
  core::ShardedCampaign c;
  c.base.seed = seed;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.base.fault.enabled = true;
  c.base.fault.seed = 5;
  c.base.fault.gen.intensity = 6.0;
  c.sessions = sessions;
  c.shard_size = 4;
  c.analyze = false;
  return c;
}

/// The snapshot criterion: per-cause stall seconds sum back to the total
/// stall time the QoE histograms carry, within float merge noise.
void expect_attribution_sums(const core::CampaignResult& r) {
  double attributed = 0;
  for (const auto& [name, counter] : r.metrics.counters()) {
    if (name.rfind("stall_seconds_total{", 0) == 0) {
      attributed += counter.value();
    }
  }
  double total = 0;
  for (const auto& [name, hist] : r.metrics.histograms()) {
    if (name.rfind("session_stalled_s{", 0) == 0) total += hist.sum();
  }
  EXPECT_GT(total, 0.0);
  EXPECT_NEAR(attributed, total, 1e-9);
}

TEST(Attrib, CampaignCausesSumToStallTotalsAndAreDeterministic) {
  ScopedMetrics on;
  core::ShardedCampaign campaign = faulted_campaign(77, 16);
  const core::CampaignResult r1 = core::ShardedRunner(1).run(campaign);
  expect_attribution_sums(r1);
  const std::string att = attribution_json(r1.metrics);
  EXPECT_NE(att.find("\"causes\":["), std::string::npos);
  const auto parsed = json::parse(att);
  ASSERT_TRUE(parsed.ok()) << att;
  EXPECT_NEAR(parsed.value()["attributed_s"].as_number(),
              parsed.value()["total_stall_s"].as_number(), 1e-9);

  // Byte-identical across thread counts, faulted.
  const core::CampaignResult r8 = core::ShardedRunner(8).run(campaign);
  EXPECT_EQ(attribution_json(r8.metrics), att);
  EXPECT_EQ(event_log_json(r8.events), event_log_json(r1.events));

  // ... and in shared-world mode.
  campaign.base.mode = core::CampaignMode::shared_world;
  campaign.shard_size = 12;
  const core::CampaignResult s1 = core::ShardedRunner(1).run(campaign);
  const core::CampaignResult s8 = core::ShardedRunner(8).run(campaign);
  expect_attribution_sums(s1);
  EXPECT_EQ(attribution_json(s8.metrics), attribution_json(s1.metrics));
  EXPECT_EQ(event_log_json(s8.events), event_log_json(s1.events));
}

TEST(Attrib, TopCausesRankWorstFirst) {
  Registry reg;
  reg.counter("stall_seconds_total{cause=\"edge_miss\"}").add(2);
  reg.counter("stall_seconds_total{cause=\"radio_blackout\"}").add(9);
  reg.counter("stall_seconds_total{cause=\"chunk_pacing\"}").add(5);
  reg.counter("unrelated_total").add(100);
  const auto top = top_causes(reg, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "radio_blackout");
  EXPECT_EQ(top[1].first, "chunk_pacing");
}

}  // namespace
}  // namespace psc::obs
