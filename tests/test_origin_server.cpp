// MediaOrigin (RTMP media server) tests: publish/play routing, fan-out,
// join bursts, connection lifecycle, re-publish and publish refusal; and
// the OriginStream rule underneath it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "media/aac.h"
#include "media/encoder.h"
#include "service/origin_server.h"

namespace psc::service {
namespace {

/// Byte shuttle between one client-side session and one origin connection.
template <typename ClientT>
void shuttle(ClientT& client, MediaOrigin& origin, int conn) {
  for (int i = 0; i < 48; ++i) {
    bool any = false;
    if (client.has_output()) {
      ASSERT_TRUE(origin.on_input(conn, client.take_output()).ok());
      any = true;
    }
    if (origin.has_output(conn)) {
      ASSERT_TRUE(client.on_input(origin.take_output(conn)).ok());
      any = true;
    }
    if (!any) break;
  }
}

struct Viewer {
  explicit Viewer(const std::string& stream, std::uint64_t seed)
      : session("live", stream, seed, make_callbacks()) {}

  rtmp::ClientSession::Callbacks make_callbacks() {
    rtmp::ClientSession::Callbacks cbs;
    cbs.on_sample = [this](media::MediaSample s) {
      samples.push_back(std::move(s));
    };
    cbs.on_avc_config = [this](const media::AvcDecoderConfig& c) {
      config = c;
    };
    return cbs;
  }

  rtmp::ClientSession session;
  std::vector<media::MediaSample> samples;
  std::optional<media::AvcDecoderConfig> config;
};

TEST(MediaOrigin, PublishThenTwoViewersFanOut) {
  MediaOrigin origin(1);
  const int pub_conn = origin.open_connection();
  rtmp::PublisherSession pub("live", "bcastXYZ", 2);
  shuttle(pub, origin, pub_conn);
  ASSERT_TRUE(pub.publishing());
  EXPECT_EQ(origin.live_streams(),
            std::vector<std::string>{"bcastXYZ"});

  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(3));
  pub.send_avc_config(enc.sps(), enc.pps());
  // Stream most of one GOP before any viewer joins (fills the backlog;
  // staying short of frame 36 avoids the next IDR resetting it).
  int pre_join = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    pub.send_sample(*s);
    ++pre_join;
  }
  shuttle(pub, origin, pub_conn);

  Viewer v1("bcastXYZ", 4);
  const int v1_conn = origin.open_connection();
  shuttle(v1.session, origin, v1_conn);
  ASSERT_TRUE(v1.session.playing());
  EXPECT_EQ(origin.viewer_count("bcastXYZ"), 1u);
  // Join burst: config + backlog from latest keyframe.
  ASSERT_TRUE(v1.config.has_value());
  EXPECT_GT(v1.samples.size(), 20u);
  // First video sample of the burst is decodable (keyframe).
  for (const auto& s : v1.samples) {
    if (s.kind == media::SampleKind::Video) {
      EXPECT_TRUE(s.keyframe);
      break;
    }
  }

  Viewer v2("bcastXYZ", 5);
  const int v2_conn = origin.open_connection();
  shuttle(v2.session, origin, v2_conn);
  ASSERT_TRUE(v2.session.playing());
  EXPECT_EQ(origin.viewer_count("bcastXYZ"), 2u);

  // Live fan-out: new samples reach both viewers.
  const std::size_t v1_before = v1.samples.size();
  const std::size_t v2_before = v2.samples.size();
  int live_sent = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    pub.send_sample(*s);
    ++live_sent;
  }
  shuttle(pub, origin, pub_conn);
  shuttle(v1.session, origin, v1_conn);
  shuttle(v2.session, origin, v2_conn);
  EXPECT_EQ(v1.samples.size() - v1_before,
            static_cast<std::size_t>(live_sent));
  EXPECT_EQ(v2.samples.size() - v2_before,
            static_cast<std::size_t>(live_sent));
}

TEST(MediaOrigin, ViewerOfUnknownStreamGetsNothing) {
  MediaOrigin origin(7);
  Viewer v("nonexistent99", 8);
  const int conn = origin.open_connection();
  shuttle(v.session, origin, conn);
  // Play succeeds protocol-wise (server optimistically accepts), but no
  // media flows and no stream is registered as live.
  EXPECT_TRUE(v.samples.empty());
  EXPECT_TRUE(origin.live_streams().empty());
}

TEST(MediaOrigin, PublisherDisconnectEndsStream) {
  MediaOrigin origin(9);
  const int pub_conn = origin.open_connection();
  rtmp::PublisherSession pub("live", "shortlived123", 10);
  shuttle(pub, origin, pub_conn);
  ASSERT_EQ(origin.live_streams().size(), 1u);
  origin.close_connection(pub_conn);
  EXPECT_TRUE(origin.live_streams().empty());
}

TEST(MediaOrigin, ViewerDisconnectStopsFanOutToIt) {
  MediaOrigin origin(11);
  const int pub_conn = origin.open_connection();
  rtmp::PublisherSession pub("live", "k", 12);
  shuttle(pub, origin, pub_conn);
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(13));
  pub.send_avc_config(enc.sps(), enc.pps());

  Viewer v("k", 14);
  const int v_conn = origin.open_connection();
  shuttle(v.session, origin, v_conn);
  EXPECT_EQ(origin.viewer_count("k"), 1u);
  origin.close_connection(v_conn);
  EXPECT_EQ(origin.viewer_count("k"), 0u);
  // Publishing more media must not crash or route to the gone viewer.
  for (int i = 0; i < 10; ++i) {
    auto s = enc.next_frame();
    if (s) pub.send_sample(*s);
  }
  shuttle(pub, origin, pub_conn);
  EXPECT_TRUE(origin.live_streams().size() == 1u);
}

TEST(MediaOrigin, TakeOutputDrainsInOneCall) {
  // take_output must hand the whole pending buffer over (move, not a
  // peek-and-copy): an immediate second call sees an empty buffer, and
  // has_output flips accordingly.
  MediaOrigin origin(23);
  const int conn = origin.open_connection();
  rtmp::PublisherSession pub("live", "drainme", 24);
  ASSERT_TRUE(pub.has_output());
  ASSERT_TRUE(origin.on_input(conn, pub.take_output()).ok());
  ASSERT_TRUE(origin.has_output(conn));  // handshake reply pending
  const Bytes first = origin.take_output(conn);
  EXPECT_FALSE(first.empty());
  EXPECT_FALSE(origin.has_output(conn));
  EXPECT_TRUE(origin.take_output(conn).empty());
}

TEST(MediaOrigin, UnknownConnectionRejected) {
  MediaOrigin origin(15);
  EXPECT_FALSE(origin.on_input(42, Bytes{0x03}).ok());
  EXPECT_TRUE(origin.take_output(42).empty());
  EXPECT_FALSE(origin.has_output(42));
}

TEST(MediaOrigin, TwoIndependentStreams) {
  MediaOrigin origin(16);
  const int p1 = origin.open_connection();
  const int p2 = origin.open_connection();
  rtmp::PublisherSession pub1("live", "streamA", 17);
  rtmp::PublisherSession pub2("live", "streamB", 18);
  shuttle(pub1, origin, p1);
  shuttle(pub2, origin, p2);
  EXPECT_EQ(origin.live_streams().size(), 2u);

  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(19));
  pub1.send_avc_config(enc.sps(), enc.pps());
  Viewer v("streamA", 20);
  const int vc = origin.open_connection();
  shuttle(v.session, origin, vc);

  // Media published to streamB must NOT reach streamA's viewer.
  const std::size_t before = v.samples.size();
  pub2.send_avc_config(enc.sps(), enc.pps());
  for (int i = 0; i < 10; ++i) {
    auto s = enc.next_frame();
    if (s) pub2.send_sample(*s);
  }
  shuttle(pub2, origin, p2);
  shuttle(v.session, origin, vc);
  EXPECT_EQ(v.samples.size(), before);
}

/// Publish `frames` video frames of `enc`; returns how many were sent.
int publish_frames(rtmp::PublisherSession& pub, media::VideoEncoder& enc,
                   int frames) {
  int sent = 0;
  for (int i = 0; i < frames; ++i) {
    if (auto s = enc.next_frame()) {
      pub.send_sample(*s);
      ++sent;
    }
  }
  return sent;
}

TEST(MediaOrigin, JoinBurstIsThreeGopsFromAKeyframe) {
  MediaOrigin origin(25);
  const int pc = origin.open_connection();
  rtmp::PublisherSession pub("live", "calibrated", 26);
  shuttle(pub, origin, pc);
  ASSERT_TRUE(pub.publishing());
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(27));
  pub.send_avc_config(enc.sps(), enc.pps());
  // An audio frame ahead of the first IDR: fanned out, never kept.
  media::AacEncoder aac(media::AudioConfig{}, 28);
  pub.send_sample(aac.next_frame());
  // Five GOPs (36 frames each) and a bit.
  std::vector<std::size_t> keyframe_at;  // index of each IDR sent
  std::size_t sent = 0;
  for (int i = 0; i < 5 * 36 + 10; ++i) {
    if (auto s = enc.next_frame()) {
      if (s->keyframe) keyframe_at.push_back(sent);
      pub.send_sample(*s);
      ++sent;
    }
  }
  ASSERT_GT(keyframe_at.size(), 3u);
  shuttle(pub, origin, pc);

  Viewer v("calibrated", 29);
  const int vc = origin.open_connection();
  shuttle(v.session, origin, vc);
  ASSERT_TRUE(v.session.playing());
  ASSERT_TRUE(v.config.has_value());
  ASSERT_FALSE(v.samples.empty());
  EXPECT_EQ(v.samples.front().kind, media::SampleKind::Video);
  EXPECT_TRUE(v.samples.front().keyframe);
  int keyframes = 0;
  for (const auto& s : v.samples) keyframes += s.keyframe ? 1 : 0;
  EXPECT_EQ(keyframes, OriginStream::kBacklogGops);
  // Everything from the third-latest IDR on.
  EXPECT_EQ(v.samples.size(), sent - keyframe_at[keyframe_at.size() - 3]);

  const std::size_t burst = v.samples.size();
  const int live = publish_frames(pub, enc, 20);
  shuttle(pub, origin, pc);
  shuttle(v.session, origin, vc);
  EXPECT_EQ(v.samples.size(), burst + live);
}

TEST(MediaOrigin, StreamRecordsLiveOnlyWhilePublishedOrPlayed) {
  MediaOrigin origin(31);
  // Players of keys nobody publishes: each record goes with its player.
  for (int i = 0; i < 200; ++i) {
    Viewer v("unknown" + std::to_string(i), 100 + i);
    const int conn = origin.open_connection();
    shuttle(v.session, origin, conn);
    ASSERT_TRUE(v.session.playing());
    EXPECT_EQ(origin.stream_count(), 1u);
    origin.close_connection(conn);
  }
  EXPECT_EQ(origin.stream_count(), 0u);

  // A published key's record outlives its publisher while a player waits.
  const int pc = origin.open_connection();
  rtmp::PublisherSession pub("live", "k", 32);
  shuttle(pub, origin, pc);
  EXPECT_EQ(origin.stream_count(), 1u);
  Viewer v("k", 33);
  const int vc = origin.open_connection();
  shuttle(v.session, origin, vc);
  origin.close_connection(pc);
  EXPECT_EQ(origin.stream_count(), 1u);
  origin.close_connection(vc);
  EXPECT_EQ(origin.stream_count(), 0u);
}

TEST(MediaOrigin, RepublishReachesAttachedPlayers) {
  MediaOrigin origin(34);
  const int p1 = origin.open_connection();
  rtmp::PublisherSession pub1("live", "again", 35);
  shuttle(pub1, origin, p1);
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(36));
  pub1.send_avc_config(enc.sps(), enc.pps());
  Viewer v("again", 37);
  const int vc = origin.open_connection();
  shuttle(v.session, origin, vc);
  const int first = publish_frames(pub1, enc, 5);
  shuttle(pub1, origin, p1);
  shuttle(v.session, origin, vc);
  ASSERT_EQ(v.samples.size(), static_cast<std::size_t>(first));

  origin.close_connection(p1);
  EXPECT_TRUE(origin.live_streams().empty());
  EXPECT_EQ(origin.viewer_count("again"), 1u);
  // The old publisher's config and backlog went with it.
  Viewer late("again", 38);
  const int lc = origin.open_connection();
  shuttle(late.session, origin, lc);
  EXPECT_FALSE(late.config.has_value());
  EXPECT_TRUE(late.samples.empty());

  const int p2 = origin.open_connection();
  rtmp::PublisherSession pub2("live", "again", 39);
  shuttle(pub2, origin, p2);
  ASSERT_TRUE(pub2.publishing());
  media::VideoEncoder enc2(media::VideoConfig{}, media::ContentModelConfig{},
                           0.0, Rng(40));
  pub2.send_avc_config(enc2.sps(), enc2.pps());
  const int second = publish_frames(pub2, enc2, 10);
  shuttle(pub2, origin, p2);
  shuttle(v.session, origin, vc);
  shuttle(late.session, origin, lc);
  EXPECT_EQ(v.samples.size(), static_cast<std::size_t>(first + second));
  EXPECT_TRUE(late.config.has_value());
  EXPECT_EQ(late.samples.size(), static_cast<std::size_t>(second));
  EXPECT_EQ(origin.viewer_count("again"), 2u);
}

TEST(MediaOrigin, SecondPublisherOfALiveKeyIsRefused) {
  MediaOrigin origin(41);
  obs::Registry reg;
  origin.set_metrics(&reg);
  int starts = 0;
  MediaOrigin::StreamHooks hooks;
  hooks.on_publish_start = [&](const std::string&, TimePoint) { ++starts; };
  origin.set_stream_hooks(std::move(hooks));

  const int p1 = origin.open_connection();
  rtmp::PublisherSession pub1("live", "owned", 42);
  shuttle(pub1, origin, p1);
  ASSERT_TRUE(pub1.publishing());
  Viewer v("owned", 43);
  const int vc = origin.open_connection();
  shuttle(v.session, origin, vc);

  const int p2 = origin.open_connection();
  rtmp::PublisherSession pub2("live", "owned", 44);
  shuttle(pub2, origin, p2);
  EXPECT_FALSE(pub2.publishing());
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(reg.counter("origin_publish_refused_total").value(), 1.0);

  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(45));
  for (rtmp::PublisherSession* pub : {&pub1, &pub2}) {
    pub->send_avc_config(enc.sps(), enc.pps());
  }
  const int sent = publish_frames(pub1, enc, 5);
  publish_frames(pub2, enc, 5);
  shuttle(pub1, origin, p1);
  shuttle(pub2, origin, p2);
  shuttle(v.session, origin, vc);
  EXPECT_EQ(v.samples.size(), static_cast<std::size_t>(sent));

  // The refused peer leaving does not end the owner's stream.
  origin.close_connection(p2);
  EXPECT_EQ(origin.live_streams(), std::vector<std::string>{"owned"});
  EXPECT_EQ(origin.viewer_count("owned"), 1u);
}

TEST(OriginStream, BacklogIsCappedInWholeGops) {
  OriginStream stream;
  media::MediaSample key;
  key.kind = media::SampleKind::Video;
  key.keyframe = true;
  media::AacEncoder aac(media::AudioConfig{}, 46);
  // 500-sample GOPs: three of them exceed the 1024-sample cap.
  std::size_t max_size = 0;
  for (int gop = 0; gop < 5; ++gop) {
    stream.push(media::MediaSample(key));
    for (int i = 0; i < 499; ++i) {
      stream.push(aac.next_frame());
      ASSERT_LE(stream.backlog().size(), OriginStream::kBacklogCap);
      ASSERT_TRUE(stream.backlog().front().keyframe);
      max_size = std::max(max_size, stream.backlog().size());
    }
  }
  EXPECT_EQ(max_size, OriginStream::kBacklogCap);
  EXPECT_EQ(stream.backlog().size(), 1000u);  // two GOPs: no room for three

  // A GOP longer than the cap is dropped whole: the backlog never starts
  // mid-GOP, and keeps nothing until the next keyframe.
  stream.push(media::MediaSample(key));
  for (std::size_t i = 0; i < OriginStream::kBacklogCap; ++i) {
    stream.push(aac.next_frame());
  }
  EXPECT_TRUE(stream.backlog().empty());
  stream.push(media::MediaSample(key));
  EXPECT_EQ(stream.backlog().size(), 1u);
}

TEST(OriginStream, ResetKeepsPlayersClearDetachesThem) {
  OriginStream stream;
  rtmp::ServerSession player(47);
  int sent = 0;
  stream.attach(player, [&](const media::MediaSample&) { ++sent; });
  media::AacEncoder aac(media::AudioConfig{}, 48);
  stream.push(aac.next_frame());
  stream.reset();
  EXPECT_EQ(stream.player_count(), 1u);
  EXPECT_TRUE(stream.backlog().empty());
  stream.push(aac.next_frame());
  EXPECT_EQ(sent, 2);
  stream.clear();
  EXPECT_EQ(stream.player_count(), 0u);
  stream.push(aac.next_frame());
  EXPECT_EQ(sent, 2);
}

}  // namespace
}  // namespace psc::service
