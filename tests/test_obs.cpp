// Observability subsystem: histogram bucket/quantile edge cases, registry
// merge + snapshot determinism, exporter schemas (JSON, Prometheus, Chrome
// trace_event), and the tracer ring buffer.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/units.h"

namespace psc::obs {
namespace {

// --- Histogram -----------------------------------------------------------

TEST(Histogram, EmptyIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, SingleSampleEveryQuantileIsTheSample) {
  Histogram h;
  h.record(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0.125);
  EXPECT_EQ(h.max(), 0.125);
  EXPECT_EQ(h.mean(), 0.125);
  // The bucket bound overshoots, but quantiles clamp to observed min/max.
  EXPECT_EQ(h.quantile(0.0), 0.125);
  EXPECT_EQ(h.quantile(0.5), 0.125);
  EXPECT_EQ(h.quantile(1.0), 0.125);
}

TEST(Histogram, ZerosAndNegativesLandInBucketZero) {
  Histogram h;
  h.record(0.0);
  h.record(-3.0);  // clamped to 0
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
}

TEST(Histogram, UnderflowAndOverflowBuckets) {
  // Below 2^kMinExp -> underflow bucket 1; at or above 2^kMaxExp ->
  // overflow bucket kBuckets-1. Quantiles stay clamped to observed
  // extremes even when the sample sits in the overflow bucket.
  const double tiny = std::ldexp(1.0, Histogram::kMinExp - 3);
  const double huge = std::ldexp(1.0, Histogram::kMaxExp + 3);
  EXPECT_EQ(Histogram::bucket_index(tiny), 1u);
  EXPECT_EQ(Histogram::bucket_index(huge), Histogram::kBuckets - 1);

  Histogram h;
  h.record(huge);
  EXPECT_EQ(h.quantile(0.5), huge);
  h.record(tiny);
  EXPECT_EQ(h.min(), tiny);
  EXPECT_EQ(h.max(), huge);
}

TEST(Histogram, BucketLayoutIsMonotoneAndSelfConsistent) {
  // Upper bounds strictly increase over the finite range, and every
  // bound maps back into a bucket no later than its own.
  for (std::size_t i = 2; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_LT(Histogram::bucket_upper(i - 1), Histogram::bucket_upper(i))
        << "bucket " << i;
  }
  // A value strictly inside a bucket maps to that bucket.
  for (int e : {-10, -4, 0, 3, 12}) {
    const double v = std::ldexp(1.25, e);  // m=1.25 -> sub-bucket 4
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LT(v, Histogram::bucket_upper(i));
    EXPECT_GE(v, Histogram::bucket_upper(i - 1));
  }
}

TEST(Histogram, QuantileWithinBucketResolution) {
  // Quantiles report the bucket's upper bound, so the worst-case bias is
  // one sub-bucket width upward: 1/16 of an octave, 6.25% relative. Feed
  // a known uniform ramp and check p50/p90/p99 against the exact values.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);  // 1ms .. 1s
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.5 * 0.0625);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.9 * 0.0625);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.99 * 0.0625);
  EXPECT_GE(h.quantile(0.5), 0.5);  // upper-bound bias is one-sided
  EXPECT_EQ(h.quantile(0.0), 1e-3);
  EXPECT_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, MergeMatchesRecordingEverythingInOne) {
  Histogram a, b, all;
  for (int i = 1; i <= 100; ++i) {
    const double v = i * 0.01;
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
  // Merging an empty histogram is a no-op.
  const std::uint64_t before = a.count();
  a.merge(Histogram());
  EXPECT_EQ(a.count(), before);
}

// --- format_number -------------------------------------------------------

TEST(FormatNumber, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(format_number(0), "0");
  EXPECT_EQ(format_number(3), "3");
  EXPECT_EQ(format_number(490609), "490609");
  EXPECT_EQ(format_number(-17), "-17");
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(0.125), "0.125");
}

// --- Registry ------------------------------------------------------------

Registry sample_registry() {
  Registry reg;
  reg.counter("api_requests_total{api=\"accessVideo\"}").add(7);
  reg.counter("sessions_total{proto=\"rtmp\"}").add(3);
  reg.gauge("sim_heap_depth_max").set_max(42);
  Histogram& h = reg.histogram("join_time_s{proto=\"rtmp\"}");
  h.record(0.8);
  h.record(1.9);
  h.record(3.4);
  return reg;
}

TEST(Registry, SnapshotIsDeterministicAndParses) {
  const std::string j1 = sample_registry().to_json();
  const std::string j2 = sample_registry().to_json();
  EXPECT_EQ(j1, j2);  // byte-identical across identically-built registries

  const auto doc = json::parse(j1);
  ASSERT_TRUE(doc.ok()) << j1;
  const json::Value& root = doc.value();
  EXPECT_TRUE(root["counters"].is_object());
  EXPECT_TRUE(root["gauges"].is_object());
  EXPECT_TRUE(root["histograms"].is_object());
  EXPECT_EQ(root["counters"]["api_requests_total{api=\"accessVideo\"}"]
                .as_number(),
            7.0);
  const json::Value& hist =
      root["histograms"]["join_time_s{proto=\"rtmp\"}"];
  EXPECT_EQ(hist["count"].as_number(), 3.0);
  for (const char* key : {"sum", "min", "max", "mean", "p50", "p90", "p99"}) {
    EXPECT_TRUE(hist[key].is_number()) << key;
  }
}

TEST(Registry, MergeAddsCountersMaxesGauges) {
  Registry a = sample_registry();
  Registry b = sample_registry();
  b.gauge("sim_heap_depth_max").set_max(17);  // below a's 42
  a.merge(b);
  EXPECT_EQ(a.counter("api_requests_total{api=\"accessVideo\"}").value(), 14);
  EXPECT_EQ(a.gauge("sim_heap_depth_max").value(), 42);
  EXPECT_EQ(a.histogram("join_time_s{proto=\"rtmp\"}").count(), 6u);
  EXPECT_EQ(a.series(), 4u);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(Registry().empty());
}

TEST(Registry, PrometheusExposition) {
  const std::string text = sample_registry().to_prometheus();
  EXPECT_NE(text.find("# TYPE api_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("api_requests_total{api=\"accessVideo\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sim_heap_depth_max gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE join_time_s summary\n"), std::string::npos);
  // The quantile label splices into the existing label set.
  EXPECT_NE(
      text.find("join_time_s{proto=\"rtmp\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("join_time_s_count{proto=\"rtmp\"} 3\n"),
            std::string::npos);
}

// --- Tracer + Chrome exporter --------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.complete("kernel", "span", time_at(0), time_at(1));
  t.instant("kernel", "tick", time_at(2));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingDropsOldestWhenSaturated) {
  Tracer t(4);
  t.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    t.instant("kernel", "ev" + std::to_string(i), time_at(i));
  }
  EXPECT_EQ(t.dropped(), 2u);
  const std::vector<TraceEvent> events = t.take_events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two were overwritten; survivors come out in record order.
  EXPECT_EQ(events[0].name, "ev2");
  EXPECT_EQ(events[3].name, "ev5");
  // take_events() drains the ring.
  EXPECT_EQ(t.size(), 0u);
}

TEST(ChromeTrace, GoldenDocument) {
  // One span + one instant on shard 0, one span on shard 1. The exporter
  // output is a golden string: any byte change here is a format change
  // that breaks recorded traces' comparability across runs.
  std::vector<std::vector<TraceEvent>> shards(2);
  shards[0].push_back({"kernel", "session 0 rtmp", 'X', 1000.0, 500.0});
  shards[0].push_back({"service", "429", 'i', 1200.0, 0.0});
  shards[1].push_back({"player", "stall", 'X', 2000.0, 250.0});
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"psc campaign\"}}"
      ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"shard 0\"}}"
      ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"shard 1\"}}"
      ",{\"name\":\"session 0 rtmp\",\"cat\":\"kernel\",\"ph\":\"X\","
      "\"ts\":1000.000,\"dur\":500.000,\"pid\":1,\"tid\":0}"
      ",{\"name\":\"429\",\"cat\":\"service\",\"ph\":\"i\","
      "\"ts\":1200.000,\"s\":\"t\",\"pid\":1,\"tid\":0}"
      ",{\"name\":\"stall\",\"cat\":\"player\",\"ph\":\"X\","
      "\"ts\":2000.000,\"dur\":250.000,\"pid\":1,\"tid\":1}"
      "]}\n";
  EXPECT_EQ(chrome_trace_json(shards), expected);
}

TEST(ChromeTrace, SchemaValidatesAsJson) {
  std::vector<std::vector<TraceEvent>> shards(1);
  shards[0].push_back({"kernel", "a \"quoted\"\nname", 'X', 0.0, 1.0});
  const std::string doc = chrome_trace_json(shards);
  const auto parsed = json::parse(doc);
  ASSERT_TRUE(parsed.ok()) << doc;
  const json::Value& events = parsed.value()["traceEvents"];
  ASSERT_TRUE(events.is_array());
  for (const json::Value& ev : events.as_array()) {
    EXPECT_TRUE(ev["name"].is_string());
    EXPECT_TRUE(ev["ph"].is_string());
    EXPECT_TRUE(ev["pid"].is_number());
    EXPECT_TRUE(ev["tid"].is_number());
    if (ev["ph"].as_string() == "X") {
      EXPECT_TRUE(ev["ts"].is_number());
      EXPECT_TRUE(ev["dur"].is_number());
    }
  }
  // Escaping survived the round trip.
  EXPECT_EQ(events[events.as_array().size() - 1]["name"].as_string(),
            "a \"quoted\"\nname");
}

// --- Process registry ----------------------------------------------------

TEST(ProcessRegistry, ResetClearsAndSnapshotParses) {
  process_reset();
  process_hist_record("shard_wall_s", 0.25);
  process_counter_add("probe_total", 2);
  process_gauge_max("probe_peak", 9);
  const auto doc = json::parse(process_to_json());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()["counters"]["probe_total"].as_number(), 2.0);
  EXPECT_EQ(doc.value()["gauges"]["probe_peak"].as_number(), 9.0);
  EXPECT_EQ(doc.value()["histograms"]["shard_wall_s"]["count"].as_number(),
            1.0);
  process_reset();
  const auto empty = json::parse(process_to_json());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value()["counters"].as_object().empty());
}

}  // namespace
}  // namespace psc::obs
