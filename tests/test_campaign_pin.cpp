// Campaign output pinned by digest: small sharded campaigns in both
// campaign modes, clean and under a generated fault plan, and one with
// the adaptive HLS ladder. Each digest covers every SessionStats field
// and every session's reconstruction summary, printed at %.17g. How a
// campaign spends its kernel events, arena blocks or segment counters may
// change; what its sessions report may not.
#include <gtest/gtest.h>

#include <string>

#include "core/parallel.h"
#include "testing/fuzz_target.h"
#include "util/strings.h"

namespace psc::core {
namespace {

/// Every SessionStats field.
std::string stats_text(const client::SessionStats& s) {
  return strf(
      "proto=%d id=%s model=%s ip=%s ip2=%s region=%s dist=%.17g "
      "viewers=%.17g played=%d join=%.17g played_s=%.17g stalled=%.17g "
      "stalls=%d ratio=%.17g latency=%.17g fps=%.17g bytes=%llu cohort=%d "
      "weight=%.17g agg=%.17g load=%.17g outcome=%d reconnects=%d "
      "retries=%d\n",
      static_cast<int>(s.protocol), s.broadcast_id.c_str(),
      s.device_model.c_str(), s.server_ip.c_str(),
      s.secondary_server_ip.c_str(), s.server_region.c_str(), s.distance_km,
      s.avg_viewers, s.ever_played ? 1 : 0, s.join_time_s, s.played_s,
      s.stalled_s, s.stall_count, s.stall_ratio, s.playback_latency_s,
      s.reported_fps, static_cast<unsigned long long>(s.bytes_received),
      s.cohort ? 1 : 0, s.cohort_weight, s.agg_viewers_at_join,
      s.server_load_at_join, static_cast<int>(s.outcome), s.reconnects,
      s.retries);
}

/// A session's reconstruction summary: what §5.2's figures read.
std::string analysis_text(const analysis::StreamAnalysis& a) {
  return strf(
      "%dx%d frames=%zu ntp=%zu segments=%zu dur=%.17g vbr=%.17g "
      "fps=%.17g qp=%.17g qp_sd=%.17g pattern=%d missing=%zu audio=%d/%d/"
      "%.17g\n",
      a.width, a.height, a.frames.size(), a.ntp_marks.size(),
      a.segments.size(), a.video_duration_s(), a.video_bitrate_bps(),
      a.fps(), a.avg_qp(), a.qp_stddev(),
      static_cast<int>(a.frame_pattern()), a.missing_frames(),
      a.audio_sample_rate, a.audio_channels, a.audio_bitrate_bps);
}

struct Digest {
  std::size_t sessions = 0;
  std::size_t rtmp = 0;
  std::size_t hls = 0;
  std::size_t analysed = 0;
  std::size_t disturbed = 0;  // retried, reconnected or not completed
  std::uint64_t stats = 0;
  std::uint64_t analysis = 0;
};

Digest digest_of(const CampaignResult& r) {
  Digest d;
  d.sessions = r.sessions.size();
  d.stats = testing::fnv1a(BytesView{});
  d.analysis = d.stats;
  for (const SessionRecord& rec : r.sessions) {
    ++(rec.stats.protocol == client::Protocol::Hls ? d.hls : d.rtmp);
    d.stats = testing::fnv1a(to_bytes(stats_text(rec.stats)), d.stats);
    if (!rec.analysis.frames.empty()) ++d.analysed;
    if (rec.stats.retries > 0 || rec.stats.reconnects > 0 ||
        rec.stats.outcome != client::Outcome::Completed) {
      ++d.disturbed;
    }
    d.analysis =
        testing::fnv1a(to_bytes(analysis_text(rec.analysis)), d.analysis);
  }
  return d;
}

enum class Variant { Clean, Faulted };

ShardedCampaign campaign(CampaignMode mode, Variant variant, int sessions) {
  ShardedCampaign c;
  c.base.seed = 2016;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.base.mode = mode;
  if (variant == Variant::Faulted) {
    c.base.fault.enabled = true;
    c.base.fault.seed = 7;
  }
  c.sessions = sessions;
  c.shard_size = mode == CampaignMode::shared_world ? 12 : 4;
  c.analyze = true;
  return c;
}

void expect_pinned(const ShardedCampaign& c, const Digest& want) {
  const Digest got = digest_of(ShardedRunner(2).run(c));
  EXPECT_EQ(got.sessions, want.sessions);
  EXPECT_EQ(got.rtmp, want.rtmp);
  EXPECT_EQ(got.hls, want.hls);
  EXPECT_EQ(got.analysed, want.analysed);
  EXPECT_EQ(got.disturbed, want.disturbed);
  EXPECT_EQ(got.stats, want.stats) << std::hex << got.stats;
  EXPECT_EQ(got.analysis, want.analysis) << std::hex << got.analysis;
  // A pin over one protocol alone would miss half the media path.
  EXPECT_GT(got.rtmp, 0u);
  EXPECT_GT(got.hls, 0u);
}

TEST(CampaignPin, IndependentClean) {
  expect_pinned(
      campaign(CampaignMode::independent_worlds, Variant::Clean, 24),
      {24, 19, 5, 24, 0, 0xc236920124eefa4eull, 0x57e6f718da742b6full});
}

TEST(CampaignPin, IndependentFaulted) {
  expect_pinned(
      campaign(CampaignMode::independent_worlds, Variant::Faulted, 48),
      {48, 37, 11, 48, 0, 0xff3b4afa55f4d9fcull, 0x94e5528c0044e08bull});
}

TEST(CampaignPin, SharedClean) {
  expect_pinned(
      campaign(CampaignMode::shared_world, Variant::Clean, 24),
      {24, 7, 17, 24, 0, 0x4963764d6b79c063ull, 0xe6648acd2052b922ull});
}

TEST(CampaignPin, SharedFaulted) {
  expect_pinned(
      campaign(CampaignMode::shared_world, Variant::Faulted, 48),
      {48, 24, 24, 48, 2, 0xb95b0a99fe90bf4cull, 0x71b617fff46ce2a3ull});
}

TEST(CampaignPin, HlsAdaptive) {
  ShardedCampaign c =
      campaign(CampaignMode::independent_worlds, Variant::Clean, 16);
  c.base.hls_adaptive = true;
  expect_pinned(
      c, {16, 11, 5, 16, 0, 0x932d535da3e03e56ull, 0xa8c7926eef0c5f86ull});
}

}  // namespace
}  // namespace psc::core
