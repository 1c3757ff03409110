// The RTMP origin media server ("vidman-*" on EC2, §3).
//
// OriginStream is one stream as the origin holds it: a joining player gets
// an immediately decodable burst (AVC config + GOP backlog), then every
// live sample. LiveBroadcastPipeline models the campaign origin with it;
// MediaOrigin serves it as a byte-in/byte-out server over any transport:
// it owns many RTMP connections, broadcasters publish streams keyed by
// broadcast id and viewers play them.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "media/types.h"
#include "obs/metrics.h"
#include "rtmp/session.h"
#include "service/load.h"

namespace psc::service {

class OriginStream {
 public:
  /// The join backlog holds the most recent kBacklogGops GOPs in decode
  /// order, always starting at a keyframe, and at most kBacklogCap
  /// samples (whole GOPs are dropped to make room); samples with no
  /// keyframe before them in the backlog are fanned out but not kept. A
  /// joining viewer gets this burst, so a deeper backlog trades join
  /// speed on fat links for join *cost* on thin ones — the Fig. 4(a)
  /// mechanism.
  static constexpr int kBacklogGops = 3;
  static constexpr std::size_t kBacklogCap = 1024;

  /// Runs after a live sample was written to the player's session.
  using SentFn = std::function<void(const media::MediaSample&)>;

  /// Keep `cfg` for later joins and write it to every attached player.
  void set_config(const media::AvcDecoderConfig& cfg);
  /// Add `sample` to the backlog and write it to every player in attach
  /// order. Returns the backlog's copy, or `sample` itself when it
  /// precedes the first keyframe and is not kept.
  const media::MediaSample& push(media::MediaSample&& sample);

  /// Write the join burst (the config, if any, then the backlog) to
  /// `session`, then every pushed sample until detach(). The session must
  /// outlive the attachment. Returns a non-zero token.
  int attach(rtmp::ServerSession& session, SentFn on_sent = nullptr);
  void detach(int token) { players_.erase(token); }
  /// Forget the config and the backlog (the publisher left); players stay
  /// attached for the next one.
  void reset();
  /// reset() and detach every player (retirement).
  void clear() {
    reset();
    players_.clear();
  }

  std::size_t player_count() const { return players_.size(); }
  const std::deque<media::MediaSample>& backlog() const { return backlog_; }

 private:
  struct Player {
    rtmp::ServerSession* session;
    SentFn on_sent;
  };

  std::optional<media::AvcDecoderConfig> config_;
  std::deque<media::MediaSample> backlog_;
  int backlog_keyframes_ = 0;
  std::map<int, Player> players_;  // by token = attach order
  int next_token_ = 1;
};

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
  /// Stream records held: keys with a publisher or at least one player.
  std::size_t stream_count() const { return streams_.size(); }

  /// Server-local clock for load accounting. The origin itself is
  /// transport-driven and clockless; whoever pumps bytes through it
  /// advances this before on_input()/take_output() so the per-epoch
  /// account books the traffic into the right bucket.
  void advance_to(TimePoint now) { now_ = now; }
  void set_load_epoch_length(Duration len) { ledger_.set_epoch_length(len); }
  /// Per-epoch ingest/egress account, keyed by stream name (or "rtmp"
  /// while a connection has not yet bound to a stream).
  const EpochLoadLedger& load_ledger() const { return ledger_; }

  /// Attach a metric sink (nullptr = off): connection and refused-publish
  /// counters plus RTMP ingest/egress byte counters.
  void set_metrics(obs::Registry* reg);

  /// Published-stream observer: lets a co-located packager (the interop
  /// gateway's HLS segmenter) tap the ingest path without owning a player
  /// connection. on_sample sees the stream exactly as the fan-out path
  /// does — video already converted back to Annex-B — and on_publish_end
  /// fires when the publisher's connection closes (stream over). A
  /// refused publish fires none. Unset hooks leave origin behaviour
  /// bit-identical.
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
    OriginStream media;
    int publisher_conn = -1;
  };

  struct Connection {
    std::unique_ptr<rtmp::ServerSession> session;
    std::string stream;  // set once playing or publishing
    bool is_publisher = false;
    int player_token = 0;  // OriginStream attachment while playing
  };

  void wire_publish_hooks(int conn);

  std::uint64_t seed_;
  StreamHooks stream_hooks_;
  int next_conn_ = 1;
  TimePoint now_{};
  EpochLoadLedger ledger_;
  std::map<int, Connection> connections_;
  std::map<std::string, Stream> streams_;
  obs::Counter* conns_ = nullptr;
  obs::Counter* publish_refused_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
};

}  // namespace psc::service
