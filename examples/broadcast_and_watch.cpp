// End-to-end broadcast: a phone PUBLISHES over real RTMP (connect ->
// FCPublish -> createStream -> publish -> FLV tags) to a MediaOrigin
// server across simulated network links, and two viewers PLAY the same
// stream from that origin while it is live: each gets the origin's
// decodable join burst, then live samples. The controlled two-client
// experiment of §5.1, as a program. Exits non-zero unless both viewers
// received samples.
#include <cstdio>

#include "client/broadcaster_session.h"
#include "service/origin_server.h"
#include "util/strings.h"

namespace {

using namespace psc;

/// A viewer playing from the origin (in-process byte shuttling).
struct Watcher {
  Watcher(service::MediaOrigin& o, const std::string& stream,
          std::uint64_t seed)
      : origin(o),
        conn(o.open_connection()),
        session("live", stream, seed,
                rtmp::ClientSession::Callbacks{
                    nullptr, [this](media::MediaSample) { ++samples; },
                    nullptr}) {}

  void shuttle() {
    while (session.has_output() || origin.has_output(conn)) {
      if (session.has_output()) {
        (void)origin.on_input(conn, session.take_output());
      }
      if (origin.has_output(conn)) {
        (void)session.on_input(origin.take_output(conn));
      }
    }
  }

  service::MediaOrigin& origin;
  int conn;
  rtmp::ClientSession session;
  int samples = 0;
};

}  // namespace

int main() {
  sim::Simulation sim;
  Rng rng(2016);
  service::PopulationConfig pop;
  service::BroadcastInfo info =
      service::draw_broadcast(pop, rng, {60.19, 24.83}, sim.now());
  info.frame_loss_prob = 0;
  service::MediaServerPool pool(1);
  const service::MediaServer& origin_host =
      pool.rtmp_origin_for(info.location, info.id);
  std::printf("broadcaster in Espoo publishes '%s' to %s (%s)\n",
              info.id.c_str(), origin_host.ip.c_str(),
              origin_host.region.c_str());

  client::DeviceConfig phone_cfg;
  phone_cfg.model = "Galaxy S4 (broadcaster)";
  phone_cfg.up_rate = 6e6;
  client::Device phone(sim, phone_cfg, 2);

  service::MediaOrigin origin(4);
  client::BroadcasterSession broadcaster(sim, phone, origin_host, origin,
                                         info, 3);
  broadcaster.start(seconds(30));

  // The viewers join 10 s in, then follow the live stream to the end.
  sim.run_until(sim.now() + seconds(10));
  Watcher alice(origin, info.id, 6);
  Watcher bob(origin, info.id, 7);
  alice.shuttle();
  bob.shuttle();
  std::printf("  join bursts: alice %d samples, bob %d samples\n",
              alice.samples, bob.samples);
  for (int i = 0; i < 210; ++i) {
    sim.run_until(sim.now() + millis(100));
    alice.shuttle();
    bob.shuttle();
  }

  std::printf("  published %s upstream\n",
              format_bitrate(broadcaster.uplink_capture().total_bytes() *
                             8.0 / 30.0)
                  .c_str());
  std::printf("  origin now serves %zu live stream(s); viewers on '%s': "
              "%zu\n",
              origin.live_streams().size(), info.id.c_str(),
              origin.viewer_count(info.id));
  std::printf("  alice received %d samples, bob received %d samples\n",
              alice.samples, bob.samples);
  return alice.samples > 0 && bob.samples > 0 ? 0 : 1;
}
