// The RTMP origin media server ("vidman-*" on EC2, §3).
//
// A MediaOrigin owns many RTMP connections. Broadcasters publish streams
// keyed by broadcast id; viewers play them. Published media is fanned out
// live to every attached player, and a per-stream GOP backlog gives
// joining viewers an immediately decodable burst — the same origin
// behaviour LiveBroadcastPipeline models in the aggregate, here as an
// actual byte-in/byte-out server usable over any transport.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "media/types.h"
#include "obs/bundle.h"
#include "rtmp/session.h"
#include "service/load.h"

namespace psc::service {

class MediaOrigin {
 public:
  explicit MediaOrigin(std::uint64_t seed) : seed_(seed) {}

  /// Accept a new TCP connection; returns its id.
  int open_connection();
  /// Close and forget a connection (detaches it from any stream).
  void close_connection(int conn);

  /// Feed bytes received from the peer of connection `conn`.
  Status on_input(int conn, BytesView data);
  /// Drain bytes to send to the peer of connection `conn`.
  Bytes take_output(int conn);
  bool has_output(int conn) const;

  /// Streams currently being published.
  std::vector<std::string> live_streams() const;
  /// Viewers attached to a stream.
  std::size_t viewer_count(const std::string& stream) const;

  /// Server-local clock for load accounting. The origin itself is
  /// transport-driven and clockless; whoever pumps bytes through it
  /// advances this before on_input()/take_output() so the per-epoch
  /// account books the traffic into the right bucket.
  void advance_to(TimePoint now) { now_ = now; }
  void set_load_epoch_length(Duration len) { ledger_.set_epoch_length(len); }
  /// Per-epoch ingest/egress account, keyed by stream name (or "rtmp"
  /// while a connection has not yet bound to a stream).
  const EpochLoadLedger& load_ledger() const { return ledger_; }

  /// Attach a metric sink (nullptr = off): connection counter plus RTMP
  /// ingest/egress byte counters.
  void set_obs(obs::Obs* obs);

  /// Published-stream observer: lets a co-located packager (the interop
  /// gateway's HLS segmenter) tap the ingest path without owning a player
  /// connection. on_sample sees the stream exactly as the fan-out path
  /// does — video already converted back to Annex-B — and on_publish_end
  /// fires when the publisher's connection closes (stream over). Unset
  /// hooks leave origin behaviour bit-identical.
  struct StreamHooks {
    std::function<void(const std::string&, TimePoint)> on_publish_start;
    std::function<void(const std::string&, const media::AvcDecoderConfig&)>
        on_avc_config;
    std::function<void(const std::string&, const media::MediaSample&,
                       TimePoint)>
        on_sample;
    std::function<void(const std::string&, TimePoint)> on_publish_end;
  };
  void set_stream_hooks(StreamHooks hooks) { stream_hooks_ = std::move(hooks); }

 private:
  struct Stream {
    std::optional<media::AvcDecoderConfig> config;
    std::deque<media::MediaSample> backlog;  // from latest keyframe
    std::set<int> players;
    int publisher_conn = -1;
  };

  struct Connection {
    std::unique_ptr<rtmp::ServerSession> session;
    std::string stream;  // set once playing or publishing
    bool is_publisher = false;
  };

  void wire_publish_hooks(int conn);
  void attach_player(int conn, const std::string& stream);
  Stream& stream_of(const std::string& name) { return streams_[name]; }

  std::uint64_t seed_;
  StreamHooks stream_hooks_;
  int next_conn_ = 1;
  TimePoint now_{};
  EpochLoadLedger ledger_;
  std::map<int, Connection> connections_;
  std::map<std::string, Stream> streams_;
  obs::Counter* conns_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
};

}  // namespace psc::service
