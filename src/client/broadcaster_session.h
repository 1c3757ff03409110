// The broadcasting phone: captures/encodes live video and publishes it to
// an RTMP origin (a service::MediaOrigin, which viewers play from) over
// the simulated network using the real publish flow (connect ->
// releaseStream/FCPublish -> createStream -> publish -> FLV tags). This
// is the other half of the Periscope app — §5.3 measures its power draw,
// and the paper's controlled experiments ("we controlled both the
// broadcasting and receiving client") ran exactly this setup.
#pragma once

#include <optional>

#include "client/device.h"
#include "media/encoder.h"
#include "net/capture.h"
#include "rtmp/session.h"
#include "service/broadcast.h"
#include "service/origin_server.h"
#include "service/pipeline.h"
#include "service/servers.h"

namespace psc::client {

class BroadcasterSession {
 public:
  /// Publishes `info.id` into `origin`, which runs on host `server` (its
  /// location sets the path latency) and must outlive this session.
  BroadcasterSession(sim::Simulation& sim, Device& device,
                     const service::MediaServer& server,
                     service::MediaOrigin& origin,
                     const service::BroadcastInfo& info, std::uint64_t seed);
  /// Closes the origin connection: the stream ends there.
  ~BroadcasterSession() { origin_.close_connection(conn_); }

  /// Start capturing/publishing; stops after `broadcast_time`.
  void start(Duration broadcast_time);
  void stop() { stopped_ = true; }

  bool publishing() const { return publisher_.publishing(); }
  bool finished() const { return stopped_; }

  /// Upstream byte trace at the phone (for the energy model).
  const net::Capture& uplink_capture() const { return uplink_capture_; }

  double epoch_s() const { return epoch_s_; }

 private:
  void pump();
  void produce_next();

  sim::Simulation& sim_;
  Device& device_;
  net::Link to_origin_;    // device uplink -> origin (path leg)
  net::Link from_origin_;  // origin -> device (control responses)
  media::BroadcastSource source_;
  rtmp::PublisherSession publisher_;
  service::MediaOrigin& origin_;
  int conn_;  // this phone's connection at origin_
  net::Capture uplink_capture_;
  double epoch_s_;
  TimePoint stop_at_{};
  bool stopped_ = false;
  bool config_sent_ = false;
  std::optional<media::MediaSample> pending_sample_;
};

}  // namespace psc::client
