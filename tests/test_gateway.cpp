// Interop gateway tests: the loopback differential contract (real-socket
// publish == sans-io sim-only pipeline, byte for byte), the HTTP surface,
// API bridging, and graceful-lifecycle guarantees.
//
// Everything is single-threaded: the test interleaves client step() pumps
// with Gateway::poll_once(), so there is no cross-thread scheduling to
// perturb sanitizer runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "hls/playlist.h"
#include "json/json.h"
#include "rtmp/session.h"
#include "service/origin_server.h"

namespace psc {
namespace {

gateway::GatewayConfig test_config() {
  gateway::GatewayConfig cfg;
  cfg.rtmp_port = 0;  // ephemeral: tests never collide on ports
  cfg.http_port = 0;
  cfg.enable_api = false;
  cfg.playlist_window = 64;  // keep every segment fetchable
  cfg.retain_extra = 8;
  return cfg;
}

/// Interleave a publisher with the gateway until `done` or turn budget.
template <typename DoneFn>
bool pump(gateway::Gateway& gw, gateway::PublishClient& pub, DoneFn done,
          int max_turns = 20000) {
  for (int i = 0; i < max_turns; ++i) {
    if (done()) return true;
    pub.step();
    gw.poll_once(0);
  }
  return done();
}

/// Fetch one resource through a live HTTP connection, pumping the gateway.
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

/// Publish `media` over a real socket and wait until the gateway has
/// committed the post-close flush (stream marked ended).
void publish_over_socket(gateway::Gateway& gw,
                         const gateway::SyntheticMedia& media,
                         const std::string& key) {
  gateway::PublishClient pub("live", key, 77);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (const auto& s : media.samples) pub.send_sample(s);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  pub.close();
  for (int i = 0; i < 20000; ++i) {
    const auto* st = gw.store().find_stream(key);
    if (st != nullptr && st->segments.ended()) return;
    gw.poll_once(0);
  }
  FAIL() << "publish end never reached the store";
}

TEST(GatewayDifferential, RealSocketMatchesSimOnlyPipeline) {
  auto gw_cfg = test_config();
  gateway::Gateway gw(gw_cfg);
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "diffstream0001";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(5, 300);
  publish_over_socket(gw, media, key);

  const std::vector<hls::Segment> reference = gateway::sim_reference_segments(
      media, key, gw_cfg.segment_target, gw_cfg.seed);
  ASSERT_GT(reference.size(), 1u);  // ~10 s at 30 fps -> >= 2 segments

  // Store-level identity.
  const auto* st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(st->segments.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(st->segments[i].segment.sequence, reference[i].sequence);
    EXPECT_TRUE(st->segments[i].segment.ts_data == reference[i].ts_data)
        << "segment " << i << " differs";
  }

  // Wire-level identity: fetch the playlist + every segment over HTTP.
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  http::Response pl = fetch(gw, client, "/hls/" + key + "/media.m3u8");
  ASSERT_EQ(pl.status, 200);
  EXPECT_EQ(pl.headers["Content-Type"], "application/vnd.apple.mpegurl");
  auto parsed = hls::parse_m3u8(to_string(pl.body.view()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ended);
  ASSERT_EQ(parsed.value().segments.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    http::Response seg =
        fetch(gw, client, "/hls/" + key + "/" + parsed.value().segments[i].uri);
    ASSERT_EQ(seg.status, 200);
    EXPECT_EQ(seg.headers["Content-Type"], "video/mp2t");
    EXPECT_TRUE(seg.body == reference[i].ts_data)
        << "served segment " << i << " differs from sim-only pipeline";
  }
}

TEST(GatewayHttp, SurfaceAndErrors) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());

  EXPECT_EQ(fetch(gw, client, "/healthz").status, 200);
  http::Response streams = fetch(gw, client, "/streams");
  EXPECT_EQ(streams.status, 200);
  EXPECT_EQ(streams.headers["Content-Type"], "application/json");
  EXPECT_EQ(fetch(gw, client, "/nonexistent").status, 404);
  EXPECT_EQ(fetch(gw, client, "/hls/nostream/media.m3u8").status, 404);
  EXPECT_EQ(fetch(gw, client, "/hls/nostream/seg_0.ts").status, 404);
  // Keep-alive: all of the above rode one connection.
  EXPECT_EQ(gw.http_accepted(), 1u);

  const gateway::SyntheticMedia media = gateway::synthetic_frames(6, 120);
  publish_over_socket(gw, media, "httpstream0001");
  http::Response master =
      fetch(gw, client, "/hls/httpstream0001/master.m3u8");
  ASSERT_EQ(master.status, 200);
  auto variants = hls::parse_master_m3u8(to_string(master.body.view()));
  ASSERT_TRUE(variants.ok());
  ASSERT_EQ(variants.value().size(), 1u);
  EXPECT_EQ(variants.value()[0].uri, "media.m3u8");
}

TEST(GatewayHttp, StreamsIsValidJsonForHostileKeys) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  // The RTMP publish name is arbitrary AMF text chosen by the peer.
  const std::string key = "quote\"back\\slash\x01";
  gateway::PublishClient pub("live", key, 21);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));

  const http::Response resp = fetch(gw, client, "/streams");
  ASSERT_EQ(resp.status, 200);
  const auto doc = json::parse(to_string(resp.body.view()));
  ASSERT_TRUE(doc.ok()) << to_string(resp.body.view());
  const json::Value& streams = doc.value()["streams"];
  ASSERT_TRUE(streams.is_array());
  ASSERT_EQ(streams.as_array().size(), 1u);
  EXPECT_EQ(streams[0]["name"].as_string(), key);
  EXPECT_EQ(streams[0]["segments"].as_int(-1), 0);
  EXPECT_FALSE(streams[0]["ended"].as_bool(true));
}

TEST(GatewayStore, RepublishReopensPlaylist) {
  auto cfg = test_config();
  cfg.segment_target = seconds(1);  // one 36-frame GOP per segment
  gateway::Gateway gw(cfg);
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  gateway::SegmentStore& store = gw.store();
  const std::string key = "republish0001";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(12, 120);
  const TimePoint t0{};
  const auto playlist = [&] {
    const http::Response r = fetch(gw, client, "/hls/" + key + "/media.m3u8");
    EXPECT_EQ(r.status, 200);
    auto pl = hls::parse_m3u8(to_string(r.body.view()));
    EXPECT_TRUE(pl.ok());
    return pl.ok() ? pl.value() : hls::MediaPlaylist{};
  };

  store.on_publish_start(key, t0);
  for (const auto& s : media.samples) store.on_sample(key, s, t0);
  store.on_publish_end(key, t0);
  const std::uint64_t first_run = store.segments_stored();
  ASSERT_GE(first_run, 2u);
  EXPECT_TRUE(playlist().ended);

  // The same key again: its timestamps restart at zero.
  store.on_publish_start(key, t0);
  EXPECT_FALSE(playlist().ended) << "players stop reloading an ENDLIST";
  for (const auto& s : media.samples) store.on_sample(key, s, t0);
  ASSERT_GT(store.segments_stored(), first_run);

  const hls::MediaPlaylist pl = playlist();
  EXPECT_FALSE(pl.ended);
  ASSERT_EQ(pl.segments.size(), store.segments_stored());
  for (const hls::SegmentRef& seg : pl.segments) {
    // Only the first segment of the new publish follows a timestamp
    // discontinuity (RFC 8216 §4.3.2.3).
    EXPECT_EQ(seg.discontinuity, seg.sequence == first_run) << seg.uri;
  }
  store.on_publish_end(key, t0);
  EXPECT_TRUE(playlist().ended);
}

TEST(GatewayStore, RepublishDiscontinuityLeavesTheWindowCounted) {
  auto cfg = test_config();
  cfg.segment_target = seconds(1);  // one 36-frame GOP per segment
  cfg.playlist_window = 3;
  cfg.retain_extra = 1;
  gateway::Gateway gw(cfg);
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  gateway::SegmentStore& store = gw.store();
  const std::string key = "republish0002";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(2, 72);
  const TimePoint t0{};
  const auto playlist = [&] {
    const http::Response r = fetch(gw, client, "/hls/" + key + "/media.m3u8");
    EXPECT_EQ(r.status, 200);
    auto pl = hls::parse_m3u8(to_string(r.body.view()));
    EXPECT_TRUE(pl.ok());
    return pl.ok() ? pl.value() : hls::MediaPlaylist{};
  };
  // One whole publish; its last segment is flushed at its end.
  const auto publish = [&] {
    store.on_publish_start(key, t0);
    for (const auto& s : media.samples) store.on_sample(key, s, t0);
    store.on_publish_end(key, t0);
  };

  publish();
  const std::uint64_t n = store.segments_stored();  // per publish
  ASSERT_GE(n, 2u);
  bool listed_uncounted = false;  // a discontinuity still in the window
  for (std::uint64_t k = 2; k <= 5; ++k) {
    publish();  // segment (k-1)*n follows the (k-1)th discontinuity
    ASSERT_EQ(store.segments_stored(), k * n);
    const hls::MediaPlaylist pl = playlist();
    ASSERT_EQ(pl.segments.size(), 3u);
    ASSERT_EQ(pl.media_sequence, k * n - 3);
    // Counted once its segment has left the window (RFC 8216 §6.2.2),
    // whether or not the store still retains it.
    std::uint64_t left = 0;
    for (std::uint64_t j = 1; j < k; ++j) left += j * n < k * n - 3;
    EXPECT_EQ(pl.discontinuity_sequence, left) << k;
    for (const hls::SegmentRef& seg : pl.segments) {
      const bool follows = seg.sequence % n == 0;
      EXPECT_EQ(seg.discontinuity, follows) << seg.uri;
      listed_uncounted = listed_uncounted || follows;
    }
  }
  EXPECT_TRUE(listed_uncounted);
  EXPECT_GE(playlist().discontinuity_sequence, 3u);
}

TEST(GatewayRtmp, PlayerGetsCalibratedBurstThenLive) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "rtmpplay0001";
  // 36-frame GOPs: 160 frames are four whole GOPs and the start of a
  // fifth before the player joins, then 40 live frames.
  const gateway::SyntheticMedia media = gateway::synthetic_frames(14, 200);
  const std::size_t pre_join = 160;
  std::vector<std::size_t> keyframe_at;
  for (std::size_t i = 0; i < pre_join; ++i) {
    if (media.samples[i].keyframe) keyframe_at.push_back(i);
  }
  ASSERT_GT(keyframe_at.size(), 3u);

  gateway::PublishClient pub("live", key, 15);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (std::size_t i = 0; i < pre_join; ++i) pub.send_sample(media.samples[i]);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  for (int i = 0; i < 500; ++i) gw.poll_once(0);  // ingest what is queued

  std::vector<media::MediaSample> got;
  int configs = 0;
  rtmp::ClientSession::Callbacks cbs;
  cbs.on_sample = [&](media::MediaSample smp) { got.push_back(std::move(smp)); };
  cbs.on_avc_config = [&](const media::AvcDecoderConfig&) { ++configs; };
  rtmp::ClientSession player("live", key, 16, std::move(cbs));
  gateway::SocketPump sock;
  ASSERT_TRUE(sock.connect(gw.rtmp_port()).ok());
  const auto turn = [&] {
    if (player.has_output()) sock.queue(player.take_output());
    Bytes in;
    ASSERT_TRUE(sock.step(in));
    if (!in.empty()) {
      ASSERT_TRUE(player.on_input(in).ok());
    }
    pub.step();
    gw.poll_once(0);
  };
  for (int i = 0; i < 20000 && !player.playing(); ++i) turn();
  ASSERT_TRUE(player.playing());
  for (int i = 0; i < 500; ++i) turn();  // the whole burst arrives

  // The burst: config, then everything from the third-latest IDR on.
  EXPECT_EQ(configs, 1);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().kind, media::SampleKind::Video);
  EXPECT_TRUE(got.front().keyframe);
  int keyframes = 0;
  for (const auto& smp : got) keyframes += smp.keyframe ? 1 : 0;
  EXPECT_EQ(keyframes, service::OriginStream::kBacklogGops);
  const std::size_t burst = got.size();
  EXPECT_EQ(burst, pre_join - keyframe_at[keyframe_at.size() - 3]);
  EXPECT_LE(burst, service::OriginStream::kBacklogCap);

  // Live samples follow.
  for (std::size_t i = pre_join; i < media.samples.size(); ++i) {
    pub.send_sample(media.samples[i]);
  }
  const std::size_t want = burst + (media.samples.size() - pre_join);
  for (int i = 0; i < 20000 && got.size() < want; ++i) turn();
  EXPECT_EQ(got.size(), want);
  EXPECT_EQ(gw.origin().viewer_count(key), 1u);
}

TEST(GatewayHttp, MalformedRequestGets400AndClose) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  gateway::SocketPump peer;
  ASSERT_TRUE(peer.connect(gw.http_port()).ok());
  peer.queue(to_bytes("BROKEN\r\n\r\n"));
  Bytes received;
  for (int i = 0; i < 20000 && !peer.peer_closed(); ++i) {
    if (!peer.step(received)) break;
    gw.poll_once(0);
  }
  const std::string reply = to_string(received);
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  EXPECT_TRUE(peer.peer_closed());
}

TEST(GatewayApi, PostBridgesToApiServer) {
  auto cfg = test_config();
  cfg.enable_api = true;
  cfg.world_concurrent = 20;
  gateway::Gateway gw(cfg);
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());

  http::Request req;
  req.method = "POST";
  req.path = "/api/v2/rankedBroadcastFeed";
  req.headers["Host"] = "gateway";
  req.body = "{\"cookie\":\"testuser\"}";
  req.headers["Content-Length"] = std::to_string(req.body.size());
  client.request(req);
  for (int i = 0; i < 20000 && !client.done(); ++i) {
    client.step();
    gw.poll_once(0);
  }
  ASSERT_TRUE(client.done());
  http::Response resp = client.take_response();
  EXPECT_EQ(resp.status, 200);
  auto body = json::parse(to_string(resp.body.view()));
  ASSERT_TRUE(body.ok());
  // The prepopulated world answers with actual broadcasts.
  EXPECT_GT(gw.api()->requests_served(), 0u);
}

TEST(GatewayLifecycle, MidPublishShutdownLeavesNoTornSegment) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "tornstream0001";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(9, 60);

  gateway::PublishClient pub("live", key, 42);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (const auto& s : media.samples) pub.send_sample(s);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  // 60 frames = 2 s < the 3.6 s target: the segmenter holds an open
  // partial segment. Shut down mid-publish WITHOUT closing the client.
  ASSERT_TRUE(pump(gw, pub, [&] {
    const auto* st = gw.store().find_stream(key);
    return st != nullptr;  // publish reached the store
  }));
  gw.request_shutdown();

  const auto* st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->segments.ended());
  ASSERT_GE(st->segments.size(), 1u);
  for (const auto& stored : st->segments) {
    // Whole TS packets only: a torn segment would break the 188-byte
    // packet lattice.
    EXPECT_GT(stored.segment.ts_data.size(), 0u);
    EXPECT_EQ(stored.segment.ts_data.size() % 188, 0u);
    EXPECT_EQ(stored.segment.ts_data[0], 0x47);  // TS sync byte
  }
  auto parsed =
      hls::parse_m3u8(hls::write_m3u8(st->segments.live(TimePoint::max())));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ended);

  // Listeners are gone, existing work drains.
  EXPECT_FALSE(gw.loop().listening());
  for (int i = 0; i < 20000 && !gw.drained(); ++i) {
    pub.step();
    gw.poll_once(0);
  }
  EXPECT_TRUE(gw.drained());
}

TEST(GatewayLifecycle, ShutdownDrainsViewersCleanly) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "drainstream001";
  // 150 frames = 5 s > the 3.6 s target: one segment commits mid-publish.
  const gateway::SyntheticMedia media = gateway::synthetic_frames(11, 150);

  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());

  gateway::PublishClient pub("live", key, 13);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (const auto& s : media.samples) pub.send_sample(s);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  ASSERT_TRUE(pump(gw, pub, [&] {
    const auto* st = gw.store().find_stream(key);
    return st != nullptr && !st->segments.empty();
  }));

  // The committed segment is servable while the publisher is still live.
  const auto* st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  http::Response seg = fetch(gw, client, "/hls/" + key + "/seg_0.ts");
  EXPECT_EQ(seg.status, 200);
  EXPECT_TRUE(seg.body == st->segments[0].segment.ts_data);

  // Shutdown flushes the open tail and drains both live connections.
  gw.request_shutdown();
  st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->segments.ended());
  EXPECT_GE(st->segments.size(), 2u);  // flushed tail joined seg_0
  for (int i = 0; i < 20000 && !gw.drained(); ++i) {
    pub.step();
    client.step();
    gw.poll_once(0);
  }
  EXPECT_TRUE(gw.drained());
}

}  // namespace
}  // namespace psc
