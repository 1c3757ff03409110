// Deterministic sim-time tracing.
//
// A Tracer records spans and instants into a fixed-capacity per-shard
// ring buffer. Timestamps are *simulated* time (microseconds of the
// shard's virtual clock), never wall clock, so a trace is a pure function
// of the campaign seed: byte-identical across PSC_THREADS, across
// machines, across runs. The sharded runner collects one event vector per
// shard and the Chrome exporter lays each shard out as its own thread
// lane (tid = shard index) — open the file in about://tracing or Perfetto
// and the campaign reads like a per-shard timeline.
//
// Event names are kept to (static category, short name) so recording a
// span is one struct append; the ring drops the oldest events when full
// (drop count reported) which keeps memory bounded and behaviour
// deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace psc::obs {

/// One Chrome trace_event. phase 'X' = complete span (ts..ts+dur),
/// 'i' = instant.
struct TraceEvent {
  const char* cat = "";  // static-lifetime category string
  std::string name;
  char phase = 'X';
  double ts_us = 0;   // sim time, microseconds
  double dur_us = 0;  // 'X' only
};

class Tracer {
 public:
  /// Capacity is a model constant, not a tuning knob: changing it changes
  /// which events survive in a saturated trace.
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  explicit Tracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Record a completed span [begin, end) — call at span end, when the
  /// duration is known.
  void complete(const char* cat, std::string name, TimePoint begin,
                TimePoint end) {
    if (!enabled_) return;
    push({cat, std::move(name), 'X', to_us(begin), to_us(end) - to_us(begin)});
  }

  /// Record an instantaneous event.
  void instant(const char* cat, std::string name, TimePoint at) {
    if (!enabled_) return;
    push({cat, std::move(name), 'i', to_us(at), 0});
  }

  /// Events in record order (ring rotated so the oldest survivor is
  /// first).
  std::vector<TraceEvent> take_events();
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return ring_.size(); }

 private:
  static double to_us(TimePoint t) { return to_s(t) * 1e6; }
  void push(TraceEvent ev);

  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest event once saturated
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
};

/// Serialize per-shard event vectors (index = shard = Chrome tid) as a
/// Chrome trace_event JSON document ({"traceEvents":[...]}), loadable in
/// about://tracing and Perfetto. Shards are emitted in order and events
/// in record order, so the output is deterministic.
std::string chrome_trace_json(
    const std::vector<std::vector<TraceEvent>>& shards);

}  // namespace psc::obs
