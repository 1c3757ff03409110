#include "client/broadcaster_session.h"

namespace psc::client {

namespace {
Duration path_latency_km(const geo::GeoPoint& a, const geo::GeoPoint& b) {
  return millis(10) + seconds(geo::distance_km(a, b) / 200000.0);
}
}  // namespace

BroadcasterSession::BroadcasterSession(sim::Simulation& sim, Device& device,
                                       const service::MediaServer& server,
                                       service::MediaOrigin& origin,
                                       const service::BroadcastInfo& info,
                                       std::uint64_t seed)
    : sim_(sim),
      device_(device),
      to_origin_(sim, 400e6,
                 path_latency_km(device.config().location, server.location)),
      from_origin_(sim, 400e6,
                   path_latency_km(server.location,
                                   device.config().location)),
      source_(service::video_config_for(info),
              service::audio_config_for(info),
              service::content_config_for(info), to_s(sim.now()),
              Rng(seed)),
      publisher_("live", info.id, seed),
      origin_(origin),
      conn_(origin.open_connection()),
      epoch_s_(to_s(sim.now())) {}

void BroadcasterSession::start(Duration broadcast_time) {
  stop_at_ = sim_.now() + broadcast_time;
  produce_next();
  pump();
}

void BroadcasterSession::pump() {
  if (stopped_) return;
  if (publisher_.has_output()) {
    util::BufferSlice up = publisher_.take_output();
    uplink_capture_.record(sim_.now(), up);
    // Phone uplink (possibly shaped) then the path leg to the origin.
    device_.uplink().send(std::move(up),
                          [this](TimePoint, util::BufferSlice data) {
      to_origin_.send(std::move(data),
                      [this](TimePoint, util::BufferSlice d) {
        if (stopped_) return;
        origin_.advance_to(sim_.now());
        (void)origin_.on_input(conn_, d);
        pump();
      });
    });
  }
  if (origin_.has_output(conn_)) {
    from_origin_.send(origin_.take_output(conn_),
                      [this](TimePoint, util::BufferSlice data) {
      if (stopped_) return;
      (void)publisher_.on_input(data);
      pump();
    });
  }
}

void BroadcasterSession::produce_next() {
  if (stopped_ || sim_.now() >= stop_at_) {
    stopped_ = true;
    return;
  }
  if (publisher_.publishing()) {
    if (!config_sent_) {
      config_sent_ = true;
      publisher_.send_avc_config(source_.video().sps(),
                                 source_.video().pps());
    }
    // Emit every sample due by now (camera/encoder real-time pacing).
    for (;;) {
      if (!pending_sample_) pending_sample_ = source_.next_sample();
      if (time_at(epoch_s_) + pending_sample_->dts > sim_.now()) break;
      publisher_.send_sample(*pending_sample_);
      pending_sample_.reset();
    }
    pump();
  }
  sim_.schedule_after(millis(100), [this] { produce_next(); });
}

}  // namespace psc::client
