// MediaOrigin's player-facing bytes pinned by digest, in the cases whose
// behaviour does not depend on how deep the join backlog is: a stream
// that starts at an IDR, two players that join inside its first GOP, live
// fan-out to both, and an AVC config that reaches a player attached
// before it. Every byte the origin writes to each player connection —
// handshake, command replies, join burst and live media — goes into the
// digest. The origin may change how it is organised, never these bytes.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "media/encoder.h"
#include "rtmp/session.h"
#include "service/origin_server.h"
#include "testing/fuzz_target.h"

namespace psc {
namespace {

/// One peer of the origin: a client-side session plus the digest of
/// every byte the origin wrote to its connection.
template <typename Session>
struct Peer {
  template <typename... Args>
  Peer(service::MediaOrigin& o, Args&&... args)
      : origin(o),
        conn(o.open_connection()),
        session(std::forward<Args>(args)...) {}

  void shuttle() {
    for (int i = 0; i < 64; ++i) {
      bool any = false;
      if (session.has_output()) {
        ASSERT_TRUE(origin.on_input(conn, session.take_output()).ok());
        any = true;
      }
      if (origin.has_output(conn)) {
        const Bytes out = origin.take_output(conn);
        digest = testing::fnv1a(out, digest);
        bytes += out.size();
        ASSERT_TRUE(session.on_input(out).ok());
        any = true;
      }
      if (!any) break;
    }
  }

  service::MediaOrigin& origin;
  int conn;
  Session session;
  std::uint64_t digest = testing::fnv1a(BytesView{});
  std::size_t bytes = 0;
};

using Publisher = Peer<rtmp::PublisherSession>;

struct Player : Peer<rtmp::ClientSession> {
  Player(service::MediaOrigin& o, const std::string& key, std::uint64_t seed)
      : Peer(o, "live", key, seed, callbacks()) {}

  rtmp::ClientSession::Callbacks callbacks() {
    rtmp::ClientSession::Callbacks cbs;
    cbs.on_sample = [this](media::MediaSample) { ++samples; };
    cbs.on_avc_config = [this](const media::AvcDecoderConfig&) { ++configs; };
    return cbs;
  }

  int samples = 0;
  int configs = 0;
};

media::BroadcastSource pin_source(std::uint64_t seed) {
  return media::BroadcastSource(media::VideoConfig{}, media::AudioConfig{},
                                media::ContentModelConfig{}, 0.0, Rng(seed));
}

/// Publish the next `n` samples of `src`; returns how many were video
/// keyframes.
int publish(Publisher& pub, media::BroadcastSource& src, int n) {
  int keyframes = 0;
  for (int i = 0; i < n; ++i) {
    const media::MediaSample s = src.next_sample();
    if (s.kind == media::SampleKind::Video && s.keyframe) ++keyframes;
    pub.session.send_sample(s);
  }
  pub.shuttle();
  return keyframes;
}

TEST(OriginPin, JoinInsideFirstGopThenLiveFanOut) {
  service::MediaOrigin origin(41);
  Publisher pub(origin, "live", "pinstream", 42);
  pub.shuttle();
  ASSERT_TRUE(pub.session.publishing());

  media::BroadcastSource src = pin_source(43);
  pub.session.send_avc_config(src.video().sps(), src.video().pps());
  // The stream starts at an IDR: nothing precedes the first keyframe.
  const media::MediaSample first = src.next_sample();
  ASSERT_EQ(first.kind, media::SampleKind::Video);
  ASSERT_TRUE(first.keyframe);
  pub.session.send_sample(first);
  // Both players join inside the first GOP (36 frames at 30 fps plus
  // audio is ~88 samples), so every backlog rule bursts the same samples.
  EXPECT_EQ(publish(pub, src, 20), 0);

  Player a(origin, "pinstream", 44);
  a.shuttle();
  ASSERT_TRUE(a.session.playing());
  EXPECT_EQ(publish(pub, src, 25), 0);
  Player b(origin, "pinstream", 45);
  b.shuttle();
  ASSERT_TRUE(b.session.playing());
  EXPECT_EQ(a.configs, 1);
  EXPECT_EQ(b.configs, 1);
  EXPECT_EQ(b.samples, 46);
  EXPECT_EQ(origin.viewer_count("pinstream"), 2u);

  // Live fan-out to both, across the next two IDRs.
  EXPECT_EQ(publish(pub, src, 200), 2);
  a.shuttle();
  b.shuttle();
  EXPECT_EQ(a.samples, 246);
  EXPECT_EQ(b.samples, 246);

  EXPECT_EQ(a.bytes, 139412u);
  EXPECT_EQ(b.bytes, 139412u);
  EXPECT_EQ(a.digest, 0xe5589fe4984dd509ull);
  EXPECT_EQ(b.digest, 0x30dd0cf4712e6e45ull);
}

TEST(OriginPin, LateConfigReachesAttachedPlayer) {
  service::MediaOrigin origin(51);
  Publisher pub(origin, "live", "lateconfig", 52);
  pub.shuttle();
  ASSERT_TRUE(pub.session.publishing());

  // The player attaches before the publisher has sent anything.
  Player p(origin, "lateconfig", 53);
  p.shuttle();
  ASSERT_TRUE(p.session.playing());
  EXPECT_EQ(p.configs, 0);
  EXPECT_EQ(p.samples, 0);

  media::BroadcastSource src = pin_source(54);
  pub.session.send_avc_config(src.video().sps(), src.video().pps());
  pub.shuttle();
  p.shuttle();
  EXPECT_EQ(p.configs, 1);
  EXPECT_EQ(publish(pub, src, 120), 2);
  p.shuttle();
  EXPECT_EQ(p.samples, 120);

  EXPECT_EQ(p.bytes, 68431u);
  EXPECT_EQ(p.digest, 0x1617b9a29feaa0d0ull);
}

}  // namespace
}  // namespace psc
