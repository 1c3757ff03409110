// The real-socket interop gateway: RTMP ingest + HTTP/HLS egress over
// actual loopback TCP, backed by the *unmodified* sim-time service tier.
//
// Topology (one thread, one epoll loop):
//
//   RTMP peer ──▶ EventLoop ──▶ service::MediaOrigin ──StreamHooks──▶
//                                          │                 SegmentStore
//   HLS peer  ──▶ EventLoop ──▶ http::RequestParser ──▶ routes ──▶ ─┘
//                                          │
//   wall clock ─▶ SimBridge ──▶ sim::Simulation (World arrivals, ApiServer)
//
// The MediaOrigin, ApiServer, World, segmenter and load ledgers are the
// exact objects the deterministic campaigns run; the gateway only pumps
// bytes between them and real sockets and paces the simulation against the
// wall clock via SimBridge. A frame published over a real RTMP socket
// therefore produces TS segments byte-identical to the sans-io loopback
// pipeline (tests/test_gateway.cpp proves it differentially).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "gateway/event_loop.h"
#include "gateway/segment_store.h"
#include "gateway/sim_bridge.h"
#include "http/http.h"
#include "obs/metrics.h"
#include "service/api.h"
#include "service/origin_server.h"
#include "service/servers.h"
#include "service/world.h"
#include "sim/simulation.h"
#include "util/buffer.h"
#include "util/result.h"

namespace psc::gateway {

struct GatewayConfig {
  /// Listener ports (0 = ephemeral; tests bind 0 and read back).
  std::uint16_t rtmp_port = 1935;
  std::uint16_t http_port = 8080;
  Duration segment_target = seconds(3.6);
  std::size_t playlist_window = 6;
  /// Extra expired segments kept resolvable per stream.
  std::size_t retain_extra = 4;
  /// Per-connection write cap (slow-peer back-pressure bound).
  std::size_t write_cap = 4u << 20;
  std::uint64_t seed = 1;
  /// Host a World + ApiServer and bridge POST /api/v2/<name>.
  bool enable_api = true;
  /// Mean concurrent broadcasts in the hosted world (kept small: the
  /// gateway world exists to exercise the API tier, not a full campaign).
  double world_concurrent = 40;
  /// Longest epoll sleep; bounds sim-clock staleness while idle.
  int poll_cap_ms = 50;
};

class Gateway {
 public:
  /// `clock` overrides the wall clock (tests drive a manual one).
  explicit Gateway(const GatewayConfig& cfg, SimBridge::WallClock clock = {});
  ~Gateway();

  /// Bind both listeners. Fails if a fixed port is taken.
  Status start();

  std::uint16_t rtmp_port() const { return rtmp_port_; }
  std::uint16_t http_port() const { return http_port_; }

  /// One turn: advance the simulation to the wall deadline, then wait for
  /// socket readiness no longer than the next sim event allows. Returns
  /// the number of socket events handled.
  int poll_once(int cap_ms = -1);

  /// Serve until `keep_running` returns false, then drain gracefully.
  void run(const std::function<bool()>& keep_running);

  /// Graceful shutdown: stop accepting, flush every in-flight segment
  /// (whole-segment commits only — no torn TS output), mark playlists
  /// ENDLIST, and ask every connection to close once its queue drains.
  void request_shutdown();
  bool shutdown_requested() const { return shutdown_; }
  /// True once every connection has drained and closed.
  bool drained() const { return loop_.connection_count() == 0; }

  // --- accessors (tests, probe, bench, metrics snapshot) ---
  sim::Simulation& sim() { return sim_; }
  SimBridge& bridge() { return bridge_; }
  EventLoop& loop() { return loop_; }
  service::MediaOrigin& origin() { return origin_; }
  SegmentStore& store() { return store_; }
  obs::Registry& metrics() { return metrics_; }
  service::ApiServer* api() { return api_.get(); }
  util::BufferArena& arena() { return arena_; }

  std::uint64_t http_requests() const { return count(http_requests_); }
  std::uint64_t segments_served() const { return count(segments_served_); }
  std::uint64_t bytes_served() const { return count(bytes_served_); }
  std::uint64_t rtmp_accepted() const { return count(rtmp_accepted_); }
  std::uint64_t http_accepted() const { return count(http_accepted_); }

 private:
  struct HttpConn {
    Connection* conn = nullptr;
    http::RequestParser parser;
  };

  void on_rtmp_accept(Connection& c);
  void on_rtmp_data(Connection& c, BytesView data);
  void on_rtmp_close(Connection& c);
  /// Drain MediaOrigin output queues to their sockets (fan-out may have
  /// produced bytes for connections other than the one that just spoke).
  void pump_rtmp_output();

  void on_http_accept(Connection& c);
  void on_http_data(Connection& c, BytesView data);
  void on_http_close(Connection& c);
  void handle_http(Connection& c, const http::Request& req);
  void send_response(Connection& c, int status, const std::string& content_type,
                     util::BufferSlice body, bool keep_alive);
  static std::uint64_t count(const obs::Counter* c) {
    return static_cast<std::uint64_t>(c->value());
  }

  GatewayConfig cfg_;
  sim::Simulation sim_;
  SimBridge bridge_;
  EventLoop loop_;
  util::BufferArena arena_;
  obs::Registry metrics_;

  service::MediaOrigin origin_;
  SegmentStore store_;

  std::unique_ptr<service::World> world_;
  std::unique_ptr<service::MediaServerPool> servers_;
  std::unique_ptr<service::ApiServer> api_;

  /// MediaOrigin connection id -> socket, for the fan-out output pump.
  std::map<int, Connection*> rtmp_conns_;
  std::map<std::uint64_t, HttpConn> http_conns_;

  std::uint16_t rtmp_port_ = 0;
  std::uint16_t http_port_ = 0;
  bool shutdown_ = false;

  // Registry series, looked up once (std::map nodes are stable).
  obs::Counter* http_requests_;
  obs::Counter* segments_served_;
  obs::Counter* bytes_served_;
  obs::Counter* rtmp_accepted_;
  obs::Counter* http_accepted_;
};

}  // namespace psc::gateway
