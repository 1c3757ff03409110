// RTMP publish path tests: protocol-level publish flow and the
// network-level BroadcasterSession (phone -> origin).
#include <gtest/gtest.h>

#include "client/broadcaster_session.h"
#include "media/encoder.h"
#include "rtmp/session.h"
#include "service/origin_server.h"

namespace psc {
namespace {

/// What a MediaOrigin received from its publishers, via its stream hooks.
struct OriginFeed {
  explicit OriginFeed(service::MediaOrigin& origin) {
    service::MediaOrigin::StreamHooks hooks;
    hooks.on_avc_config = [this](const std::string&,
                                 const media::AvcDecoderConfig& c) {
      config = c;
    };
    hooks.on_sample = [this](const std::string&, const media::MediaSample& s,
                             TimePoint) { samples.push_back(s); };
    origin.set_stream_hooks(std::move(hooks));
  }

  std::optional<media::AvcDecoderConfig> config;
  std::vector<media::MediaSample> samples;
};

void pump_loopback(rtmp::PublisherSession& pub, rtmp::ServerSession& srv) {
  for (int i = 0; i < 32; ++i) {
    bool any = false;
    if (pub.has_output()) {
      ASSERT_TRUE(srv.on_input(pub.take_output()).ok());
      any = true;
    }
    if (srv.has_output()) {
      ASSERT_TRUE(pub.on_input(srv.take_output()).ok());
      any = true;
    }
    if (!any) break;
  }
}

TEST(Publish, FullPublishFlow) {
  rtmp::PublisherSession pub("live", "streamkey1234", 1);
  rtmp::ServerSession srv(2);
  std::string published_key;
  rtmp::ServerSession::PublishCallbacks cbs;
  cbs.on_publish_start = [&](const std::string& key) {
    published_key = key;
    return true;
  };
  srv.set_publish_callbacks(std::move(cbs));
  pump_loopback(pub, srv);
  EXPECT_TRUE(pub.publishing());
  EXPECT_TRUE(srv.publishing());
  EXPECT_EQ(srv.stream_name(), "streamkey1234");
  EXPECT_EQ(published_key, "streamkey1234");
  EXPECT_FALSE(srv.playing());
}

TEST(Publish, MediaFlowsUpstreamIntact) {
  rtmp::PublisherSession pub("live", "k", 3);
  rtmp::ServerSession srv(4);
  std::vector<media::MediaSample> received;
  std::optional<media::AvcDecoderConfig> config;
  rtmp::ServerSession::PublishCallbacks cbs;
  cbs.on_sample = [&](media::MediaSample s) {
    received.push_back(std::move(s));
  };
  cbs.on_avc_config = [&](const media::AvcDecoderConfig& c) { config = c; };
  srv.set_publish_callbacks(std::move(cbs));
  pump_loopback(pub, srv);
  ASSERT_TRUE(pub.publishing());

  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(5));
  pub.send_avc_config(enc.sps(), enc.pps());
  int sent = 0;
  std::vector<int> sent_qps;
  for (int i = 0; i < 90; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    sent_qps.push_back(s->encoded_qp);
    pub.send_sample(*s);
    ++sent;
  }
  pump_loopback(pub, srv);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->sps.width, 320);
  ASSERT_EQ(static_cast<int>(received.size()), sent);
  // Parse a received access unit back to a slice and compare QP.
  auto nals = media::split_avcc(received.back().data);
  ASSERT_TRUE(nals.ok());
  bool found_slice = false;
  for (const auto& nal : nals.value()) {
    if (nal.type == media::NalType::IdrSlice ||
        nal.type == media::NalType::NonIdrSlice) {
      auto hdr = media::parse_slice_header(nal, config->sps, config->pps);
      ASSERT_TRUE(hdr.ok());
      EXPECT_EQ(hdr.value().qp, sent_qps.back());
      found_slice = true;
    }
  }
  EXPECT_TRUE(found_slice);
}

TEST(Publish, AudioFlowsUpstream) {
  rtmp::PublisherSession pub("live", "k", 6);
  rtmp::ServerSession srv(7);
  int audio = 0;
  rtmp::ServerSession::PublishCallbacks cbs;
  cbs.on_sample = [&](media::MediaSample s) {
    if (s.kind == media::SampleKind::Audio) {
      EXPECT_TRUE(media::parse_adts_header(s.data).ok());
      ++audio;
    }
  };
  srv.set_publish_callbacks(std::move(cbs));
  pump_loopback(pub, srv);
  media::AacEncoder aac(media::AudioConfig{}, 8);
  for (int i = 0; i < 20; ++i) pub.send_sample(aac.next_frame());
  pump_loopback(pub, srv);
  EXPECT_EQ(audio, 20);
}

TEST(Broadcaster, PublishesOverSimulatedNetwork) {
  sim::Simulation sim;
  Rng rng(9);
  service::PopulationConfig pop;
  service::BroadcastInfo info =
      service::draw_broadcast(pop, rng, {60.19, 24.83}, sim.now());
  info.frame_loss_prob = 0;
  client::DeviceConfig dcfg;
  dcfg.up_rate = 8e6;  // phone uplink
  client::Device device(sim, dcfg, 10);
  service::MediaServerPool pool(11);
  const service::MediaServer& origin =
      pool.rtmp_origin_for(info.location, info.id);

  service::MediaOrigin media_origin(12);
  OriginFeed feed(media_origin);
  client::BroadcasterSession bcast(sim, device, origin, media_origin, info,
                                   12);
  bcast.start(seconds(20));
  sim.run_until(sim.now() + seconds(25));

  EXPECT_TRUE(bcast.publishing());
  ASSERT_TRUE(feed.config.has_value());
  // ~20 s at ~73 samples/s, minus handshake time.
  EXPECT_GT(feed.samples.size(), 1000u);
  // Upstream traffic volume consistent with ~300 kbps video + audio.
  const double bits =
      static_cast<double>(bcast.uplink_capture().total_bytes()) * 8;
  EXPECT_GT(bits / 20.0, 100e3);
  EXPECT_LT(bits / 20.0, 1.5e6);
  // Samples arrive in decode (DTS) order.
  double last = -1;
  for (const auto& s : feed.samples) {
    EXPECT_GE(to_s(s.dts) + 1e-9, last);
    last = to_s(s.dts);
  }
}

TEST(Broadcaster, ThinUplinkDelaysDelivery) {
  // A 0.3 Mbps uplink cannot carry a ~350 kbps stream in real time; the
  // origin falls behind the live edge.
  auto run = [](BitRate up_rate) {
    sim::Simulation sim;
    Rng rng(13);
    service::PopulationConfig pop;
    service::BroadcastInfo info =
        service::draw_broadcast(pop, rng, {60.19, 24.83}, sim.now());
    info.frame_loss_prob = 0;
    info.video_bitrate = 330e3;
    // High-motion content so rate control actually reaches the target
    // (a static-talk draw would undershoot and fit the thin uplink).
    info.content = media::ContentClass::Sports;
    client::DeviceConfig dcfg;
    dcfg.up_rate = up_rate;
    client::Device device(sim, dcfg, 14);
    service::MediaServerPool pool(15);
    service::MediaOrigin media_origin(16);
    OriginFeed feed(media_origin);
    client::BroadcasterSession bcast(
        sim, device, pool.rtmp_origin_for(info.location, info.id),
        media_origin, info, 16);
    bcast.start(seconds(20));
    sim.run_until(sim.now() + seconds(22));
    return feed.samples.size();
  };
  const std::size_t fast = run(8e6);
  const std::size_t slow = run(0.25e6);
  EXPECT_LT(slow, fast * 9 / 10);
}

}  // namespace
}  // namespace psc
