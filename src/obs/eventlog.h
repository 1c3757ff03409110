// Deterministic per-session structured event log.
//
// An EventLog records fixed-size, sim-time-stamped records — join phases,
// stall start/end, reconnect/retry attempts, segment fetch outcomes, ABR
// switches — into a per-shard ring buffer, exactly like the Tracer: one
// single-threaded writer (the shard's Study), capacity a model constant,
// drop-oldest when saturated, merged in shard order by the campaign
// runner. A log is therefore a pure function of the campaign seed and
// byte-identical across PSC_THREADS.
//
// Sessions within a shard run to completion sequentially, so the log
// keeps one *current session* context (uid + protocol) set by
// begin_session()/end_session(); every event logged in between is tagged
// with it. The attribution pass (obs/attrib.h) reads the current
// session's events back at session end via current_session_events().
//
// Events carry only static-lifetime strings and POD payloads — recording
// is one struct append, no allocation on the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psc::obs {

enum class EventKind : std::uint8_t {
  SessionBegin,  // a = cohort weight
  SessionEnd,    // a = watch seconds, b = stalled seconds
  JoinDone,      // a = join seconds
  StallStart,    //
  StallEnd,      // a = stall seconds
  Reconnect,     // a = attempt number (RTMP reconnect ladder)
  Retry,         // a = attempt number; detail = "api" | "hls"
  FetchOutcome,  // a = HTTP status (0 = timeout), b = edge index
  AbrSwitch,     // a = from level, b = to level
  GaveUp,        // detail = who gave up ("rtmp" | "api")
  Media,         // first media while stalled: pacing evidence, a = bytes
};

/// Stable lowercase name for exports ("stall_start", ...).
const char* event_kind_name(EventKind k);

struct LogEvent {
  std::uint64_t session = 0;  // uid: (shard_index << 20) | per-shard ordinal
  double t_s = 0;             // sim time, seconds
  double a = 0;               // kind-specific payload
  double b = 0;
  EventKind kind = EventKind::SessionBegin;
  const char* proto = "";   // static-lifetime: "rtmp" | "hls" | ""
  const char* detail = "";  // static-lifetime qualifier, may be ""
};

class EventLog {
 public:
  /// Capacity is a model constant, not a tuning knob: changing it changes
  /// which events survive in a saturated log.
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  explicit EventLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a session context: subsequent log() calls are tagged with
  /// (uid, proto). Records a SessionBegin event.
  void begin_session(std::uint64_t uid, const char* proto, double t_s,
                     double weight = 1);
  /// Close the context (records SessionEnd with the session totals).
  void end_session(double t_s, double watch_s, double stalled_s);

  /// Update the current session's protocol once known (accessVideo
  /// answers after the session context opens). Later events carry it.
  void set_proto(const char* proto) { proto_ = proto; }

  /// Record one event in the current session context.
  void log(EventKind kind, double t_s, double a = 0, double b = 0,
           const char* detail = "");

  /// Events of the current session (since begin_session) that survive in
  /// the ring, in record order. Valid until the next push.
  std::vector<LogEvent> current_session_events() const;

  /// All surviving events in record order; resets the ring.
  std::vector<LogEvent> take_events();
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return ring_.size(); }

 private:
  void push(const LogEvent& ev);

  std::size_t capacity_;
  std::size_t head_ = 0;      // index of the oldest event once saturated
  std::uint64_t pushed_ = 0;  // absolute count of push attempts
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
  std::uint64_t session_ = 0;
  const char* proto_ = "";
  std::uint64_t session_first_ = 0;  // absolute index of SessionBegin
  std::vector<LogEvent> ring_;
};

/// Serialize events (already merged across shards) as a JSON array of
/// objects — one line of schema documented in docs/OBSERVABILITY.md.
std::string event_log_json(const std::vector<LogEvent>& events);

}  // namespace psc::obs
