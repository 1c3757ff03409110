// The HLS edge pinned by digest, on both servers that serve it.
//
// CdnEdge: every response (status, reason, Content-Type, body) a
// three-rendition pipeline's edge gives for a fixed set of paths at a
// sweep of edge times — before the first segment lands, while segments
// are in flight, across an all-edges outage (503) and after stop() — plus
// the edge's load ledger. The gateway: a SegmentStore driven directly
// (window 3, two extra retained) long enough for segments to fall off,
// read back over loopback HTTP after every commit and after publish end.
// The edge code may change how it is organised, never what it serves.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "hls/playlist.h"
#include "service/cdn_edge.h"
#include "service/pipeline.h"
#include "testing/fuzz_target.h"
#include "util/strings.h"

namespace psc {
namespace {

std::uint64_t digest_response(const http::Response& r, std::uint64_t h) {
  const auto ct = r.headers.find("Content-Type");
  const std::string head =
      strf("%d %s|%s|", r.status, r.reason.c_str(),
           ct == r.headers.end() ? "-" : ct->second.c_str());
  h = testing::fnv1a(to_bytes(head), h);
  return testing::fnv1a(r.body.view(), h);
}

// ---------------------------------------------------------- CDN edge --

service::BroadcastInfo pin_broadcast() {
  Rng rng(19);
  service::PopulationConfig pop;
  service::BroadcastInfo b =
      service::draw_broadcast(pop, rng, {40.7, -74.0}, time_at(0));
  b.peak_viewers = 800;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  return b;
}

/// The ladder core::Study builds for hls_adaptive campaigns.
service::PipelineConfig adaptive_pipeline() {
  service::PipelineConfig cfg;
  cfg.transcode_ladder = {
      {"mid", media::TranscodeProfile{0.55, 5}, 220e3},
      {"low", media::TranscodeProfile{0.3, 10}, 120e3},
  };
  return cfg;
}

TEST(HlsEdgePin, CdnEdgeResponsesAcrossEdgeTimes) {
  sim::Simulation sim;
  const service::BroadcastInfo info = pin_broadcast();
  service::LiveBroadcastPipeline pipe(sim, info, adaptive_pipeline());
  ASSERT_EQ(pipe.rendition_count(), 3u);
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode edge_outage start=14.2 dur=0.5 target=-1\n");
  ASSERT_TRUE(plan.ok());
  service::CdnEdge edge("fastly-pin", plan.value());
  edge.set_load_epoch_length(seconds(5));
  edge.attach(info.id, &pipe);
  pipe.start(seconds(30));

  const std::string base = "/hls/" + info.id + "/";
  const std::vector<std::string> prefixes = {"", "r1/", "r2/"};
  std::vector<std::string> paths = {
      base + "master.m3u8",
      base + "r0/playlist.m3u8",
      base + "r0/seg_0.ts",
      base + "r9/playlist.m3u8",
      base + "r9/seg_0.ts",
      base + "r1",
      base + "r1/",
      base + "seg_00.ts",
      base + "seg_.ts",
      base + "seg_1.ts/",
      base + "seg_18446744073709551616.ts",
      base + "nothing.m3u8",
      "/hls/" + info.id,
      "/hls/unknown-broadcast/playlist.m3u8",
      "/other/" + info.id + "/playlist.m3u8",
  };
  for (const std::string& p : prefixes) {
    paths.push_back(base + p + "playlist.m3u8");
    paths.push_back(base + p + "vod.m3u8");
    for (int n = 0; n < 11; ++n) {
      paths.push_back(base + p + "seg_" + std::to_string(n) + ".ts");
    }
  }

  // Sim times: before any segment lands, around the first arrivals,
  // mid-stream, inside the outage, then after stop() while the last cut
  // segments are still shipping. Each is served at the sim clock and at
  // an edge clock 1.3 s behind it, so segments that have landed by now
  // but not by the edge's time are in flight from the edge's view.
  const std::vector<double> times = {0.5,  3.0,  5.6,  6.4,  7.0,  8.2,
                                     9.9,  10.6, 12.1, 14.4, 15.2, 16.3,
                                     19.0, 20.2, 20.9, 23.0, 30.0};
  constexpr double kStopAt = 19.0;
  const std::vector<Duration> lags = {Duration{0}, millis(1300)};

  const auto get = [&](const std::string& path, TimePoint now) {
    http::Request req;
    req.method = "GET";
    req.path = path;
    return edge.handle(req, now);
  };
  std::uint64_t h = testing::fnv1a(BytesView{});
  std::size_t responses = 0, in_flight = 0, fresh = 0, outages = 0;
  std::set<std::string> served_before;
  for (const double t : times) {
    sim.run_until(time_at(t));
    if (t == kStopAt) pipe.stop();
    for (const Duration lag : lags) {
      const TimePoint now = sim.now() - lag;
      std::set<std::string> served_now;
      for (const std::string& path : paths) {
        const http::Response r = get(path, now);
        h = digest_response(r, h);
        ++responses;
        if (r.status == 503) ++outages;
        if (r.status == 200 && path.ends_with(".ts")) {
          served_now.insert(path);
          if (lag == Duration{0} && !served_before.contains(path)) ++fresh;
        }
      }
      // The VOD playlist lists every segment that has reached the edge
      // by the sim clock; one the edge will not serve at its own time
      // is still in flight.
      for (const std::string& p : prefixes) {
        const http::Response vod = get(base + p + "vod.m3u8", now);
        if (vod.status != 200) continue;
        const auto pl = hls::parse_m3u8(to_string(vod.body.view()));
        ASSERT_TRUE(pl.ok());
        for (const hls::SegmentRef& s : pl.value().segments) {
          if (!served_now.contains(base + p + "seg_" +
                                   std::to_string(s.sequence) + ".ts")) {
            ++in_flight;
          }
        }
      }
      if (lag == Duration{0}) served_before = std::move(served_now);
    }
  }
  const std::uint64_t ledger =
      testing::fnv1a(to_bytes(edge.load_ledger().debug_text()));

  // The sweep reaches every state it is meant to pin.
  EXPECT_GT(in_flight, 0u);
  EXPECT_GT(fresh, 0u);
  EXPECT_GT(outages, 0u);
  EXPECT_EQ(responses, times.size() * lags.size() * paths.size());
  EXPECT_EQ(h, 0xf4717b842f68651eull) << std::hex << h;
  EXPECT_EQ(ledger, 0xa789421e69119c6full) << std::hex << ledger;
}

// ----------------------------------------------------------- gateway --

http::Response fetch(gateway::Gateway& gw, gateway::HlsFetchClient& client,
                     const std::string& path) {
  client.get(path);
  for (int i = 0; i < 20000 && !client.done(); ++i) {
    client.step();
    gw.poll_once(0);
  }
  EXPECT_TRUE(client.done()) << "no response for " << path;
  return client.done() ? client.take_response() : http::Response{};
}

TEST(HlsEdgePin, GatewayStoreWindowRetentionAndEnd) {
  gateway::GatewayConfig cfg;
  cfg.rtmp_port = 0;
  cfg.http_port = 0;
  cfg.enable_api = false;
  cfg.segment_target = seconds(1);  // one 36-frame GOP per segment
  cfg.playlist_window = 3;
  cfg.retain_extra = 2;
  gateway::Gateway gw(cfg);
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  gateway::SegmentStore& store = gw.store();

  const std::string key = "pinstream";
  const std::string base = "/hls/" + key + "/";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(11, 400);
  // Ingest at sim time zero: the store serves whatever it has committed,
  // whatever the bridge clock reads.
  const TimePoint t0{};
  std::uint64_t h = testing::fnv1a(BytesView{});

  EXPECT_EQ(fetch(gw, client, base + "media.m3u8").status, 404);
  store.on_publish_start(key, t0);
  h = digest_response(fetch(gw, client, base + "media.m3u8"), h);
  h = digest_response(fetch(gw, client, base + "master.m3u8"), h);
  std::uint64_t stored = store.segments_stored();
  for (const media::MediaSample& s : media.samples) {
    store.on_sample(key, s, t0);
    if (store.segments_stored() == stored) continue;
    stored = store.segments_stored();
    const http::Response pl = fetch(gw, client, base + "media.m3u8");
    ASSERT_EQ(pl.status, 200);
    h = digest_response(pl, h);
  }
  ASSERT_GE(stored, 9u);  // enough for segments to fall off

  // Window 3 + 2 retained: the two before the window are expired but
  // still resolve; everything older is trimmed.
  const auto live = hls::parse_m3u8(
      to_string(fetch(gw, client, base + "media.m3u8").body.view()));
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live.value().segments.size(), 3u);
  const std::uint64_t first_live = live.value().media_sequence;
  EXPECT_EQ(first_live, stored - 3);
  const auto seg_path = [&](std::uint64_t n) {
    return base + "seg_" + std::to_string(n) + ".ts";
  };
  const http::Response expired = fetch(gw, client, seg_path(first_live - 2));
  EXPECT_EQ(expired.status, 200);
  h = digest_response(expired, h);
  EXPECT_EQ(fetch(gw, client, seg_path(first_live - 3)).status, 404);
  EXPECT_EQ(fetch(gw, client, seg_path(0)).status, 404);

  store.on_publish_end(key, t0);
  const http::Response ended = fetch(gw, client, base + "media.m3u8");
  ASSERT_EQ(ended.status, 200);
  EXPECT_NE(to_string(ended.body.view()).find("#EXT-X-ENDLIST"),
            std::string::npos);
  h = digest_response(ended, h);
  EXPECT_EQ(store.segments_stored(), stored + 1);  // the flushed tail

  for (std::uint64_t n = 0; n <= stored + 1; ++n) {
    h = digest_response(fetch(gw, client, seg_path(n)), h);
  }
  for (const char* odd :
       {"r1/seg_8.ts", "r0/media.m3u8", "vod.m3u8", "playlist.m3u8",
        "seg_08.ts", "seg_8.ts/", "media.m3u8/"}) {
    h = digest_response(fetch(gw, client, base + odd), h);
  }
  h = digest_response(fetch(gw, client, "/hls/" + key), h);
  h = digest_response(fetch(gw, client, "/hls/other/media.m3u8"), h);
  EXPECT_EQ(h, 0x25fdda915e7f395bull) << std::hex << h;
}

}  // namespace
}  // namespace psc
