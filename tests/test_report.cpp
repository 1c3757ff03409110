// bench::Reporter output contract: the snapshot file carries the
// attribution and slo sections next to the metrics, and — the regression
// this file pins — outputs are flushed even when a bench exits early
// (destructor flush), not only on the happy finish() path.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "json/json.h"

namespace psc::bench {
namespace {

/// Reporter's constructor flips the global obs toggles when it sees
/// --metrics-out; restore the env-derived defaults after each test.
class ScopedToggles {
 public:
  ScopedToggles()
      : metrics_(obs::metrics_enabled()), trace_(obs::trace_enabled()) {}
  ~ScopedToggles() {
    obs::set_metrics_enabled(metrics_);
    obs::set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

std::string read_file(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

core::CampaignResult tiny_campaign() {
  core::ShardedCampaign c;
  c.base.seed = 77;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.sessions = 4;
  c.shard_size = 4;
  c.analyze = false;
  return core::ShardedRunner(1).run(c);
}

TEST(Reporter, EarlyExitStillFlushesSnapshot) {
  ScopedToggles restore;
  const std::string path = testing::TempDir() + "psc_early_exit.json";
  std::remove(path.c_str());
  std::string flag = "--metrics-out=" + path;
  char* argv[] = {const_cast<char*>("bench"), flag.data()};

  {
    Reporter reporter("early_exit_test", 2, argv);
    reporter.add(tiny_campaign());
    // No finish(): simulates a bench bailing out mid-run. The destructor
    // must still write the snapshot.
  }

  const std::string snapshot = read_file(path);
  ASSERT_FALSE(snapshot.empty());
  const auto parsed = json::parse(snapshot);
  ASSERT_TRUE(parsed.ok()) << snapshot.substr(0, 200);
  const json::Value& root = parsed.value();
  EXPECT_TRUE(root.has("config"));
  EXPECT_TRUE(root.has("metrics"));
  EXPECT_TRUE(root.has("attribution"));
  EXPECT_TRUE(root.has("slo"));
  EXPECT_TRUE(root.has("process"));
  EXPECT_TRUE(root["attribution"].has("total_stall_s"));
  EXPECT_TRUE(root["slo"].has("results"));
  std::remove(path.c_str());
}

TEST(Reporter, FinishWritesTheSameSectionsOnce) {
  ScopedToggles restore;
  const std::string path = testing::TempDir() + "psc_finish.json";
  std::remove(path.c_str());
  std::string flag = "--metrics-out=" + path;
  char* argv[] = {const_cast<char*>("bench"), flag.data()};

  {
    Reporter reporter("finish_test", 2, argv);
    reporter.add(tiny_campaign());
    reporter.finish(0.0);
    // The destructor must NOT rewrite (or truncate) after finish().
  }
  const std::string snapshot = read_file(path);
  ASSERT_FALSE(snapshot.empty());
  const auto parsed = json::parse(snapshot);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().has("attribution"));
  EXPECT_TRUE(parsed.value().has("slo"));
  std::remove(path.c_str());
}

TEST(Reporter, SnapshotIsDeterministicAcrossThreadCounts) {
  ScopedToggles restore;
  obs::set_metrics_enabled(true);
  core::ShardedCampaign c;
  c.base.seed = 31;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.base.fault.enabled = true;
  c.base.fault.seed = 5;
  c.base.fault.gen.intensity = 6.0;
  c.sessions = 12;
  c.shard_size = 4;
  const core::CampaignResult r1 = core::ShardedRunner(1).run(c);
  const core::CampaignResult r8 = core::ShardedRunner(8).run(c);
  // The deterministic snapshot sections, composed exactly as the
  // Reporter writes them.
  EXPECT_EQ(r1.metrics.to_json(), r8.metrics.to_json());
  EXPECT_EQ(obs::attribution_json(r1.metrics),
            obs::attribution_json(r8.metrics));
  EXPECT_EQ(obs::slo_json(r1.slo, obs::active_slo_config()),
            obs::slo_json(r8.slo, obs::active_slo_config()));
}

}  // namespace
}  // namespace psc::bench
