#include "obs/attrib.h"

#include <algorithm>

#include "obs/bundle.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace psc::obs {

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::RadioBlackout: return "radio_blackout";
    case Cause::RateCollapse: return "rate_collapse";
    case Cause::HandoverGap: return "handover_gap";
    case Cause::EdgeOutage: return "edge_outage";
    case Cause::OriginRestart: return "origin_restart";
    case Cause::ApiFault: return "api_fault";
    case Cause::EdgeMiss: return "edge_miss";
    case Cause::OriginLoad: return "origin_load";
    case Cause::AbrDownSwitch: return "abr_down_switch";
    case Cause::ChunkPacing: return "chunk_pacing";
    case Cause::Unattributed: return "unattributed";
  }
  return "unattributed";
}

namespace {

/// The fixed ranking described in the header, applied to one window
/// [start_s, end_s) of QoE damage (a stall span or a slow join).
Cause pick_cause(double start_s, double end_s,
                 const std::vector<LogEvent>& events,
                 const SessionEvidence& evidence, const AttribConfig& cfg) {
  // 1. Dominant-overlap fault episode. Ties break to the lower Cause
  //    enum value, then the earlier window start — both total orders, so
  //    the winner never depends on evidence ordering.
  double best_overlap = 0;
  const EvidenceWindow* best = nullptr;
  for (const EvidenceWindow& w : evidence.episodes) {
    const double lo = w.start_s > start_s ? w.start_s : start_s;
    const double hi = w.end_s < end_s ? w.end_s : end_s;
    const double overlap = hi - lo;
    if (overlap <= 0) continue;
    if (best == nullptr || overlap > best_overlap ||
        (overlap == best_overlap &&
         (w.cause < best->cause ||
          (w.cause == best->cause && w.start_s < best->start_s)))) {
      best_overlap = overlap;
      best = &w;
    }
  }
  if (best != nullptr) return best->cause;

  // 2. The last failed fetch shortly before or inside the window.
  const LogEvent* failed = nullptr;
  for (const LogEvent& ev : events) {
    if (ev.kind != EventKind::FetchOutcome) continue;
    if (ev.t_s < start_s - cfg.fetch_lookback_s || ev.t_s >= end_s) continue;
    const int status = static_cast<int>(ev.a);
    if (status == 200) continue;
    if (failed == nullptr || ev.t_s >= failed->t_s) failed = &ev;
  }
  if (failed != nullptr) {
    const int status = static_cast<int>(failed->a);
    if (status == 0) return Cause::ChunkPacing;  // timeout: link too slow
    if (status >= 500) return Cause::EdgeOutage;
    return Cause::EdgeMiss;  // 404: segment not at the edge yet
  }

  // 3. An ABR down-switch shortly before the window opened.
  for (const LogEvent& ev : events) {
    if (ev.kind != EventKind::AbrSwitch || ev.b >= ev.a) continue;
    if (ev.t_s >= start_s - cfg.abr_lookback_s && ev.t_s <= start_s) {
      return Cause::AbrDownSwitch;
    }
  }

  // 4. The session paid a real load penalty at join.
  if (evidence.load_penalty_s >= cfg.load_penalty_floor_s) {
    return Cause::OriginLoad;
  }

  // 5. Media kept arriving during the window: pure pacing.
  for (const LogEvent& ev : events) {
    if (ev.t_s < start_s || ev.t_s >= end_s) continue;
    if (ev.kind == EventKind::Media ||
        (ev.kind == EventKind::FetchOutcome &&
         static_cast<int>(ev.a) == 200)) {
      return Cause::ChunkPacing;
    }
  }

  return Cause::Unattributed;
}

}  // namespace

SessionAttribution attribute_session(const std::vector<LogEvent>& events,
                                     const SessionEvidence& evidence,
                                     const AttribConfig& cfg) {
  SessionAttribution out;
  if (events.empty()) return out;

  double begin_s = events.front().t_s;
  double end_s = events.back().t_s;
  double join_done_s = -1;
  bool joined = false;
  bool ended = false;
  for (const LogEvent& ev : events) {
    switch (ev.kind) {
      case EventKind::SessionBegin:
        begin_s = ev.t_s;
        break;
      case EventKind::SessionEnd:
        end_s = ev.t_s;
        ended = true;
        break;
      case EventKind::JoinDone:
        joined = true;
        join_done_s = ev.t_s;
        out.join_s = ev.a;
        break;
      default:
        break;
    }
  }
  (void)ended;

  // Stall spans: StallStart/StallEnd pairs; an unmatched StallStart (only
  // possible when the ring dropped its end) closes at session end. The
  // StallEnd payload carries the player's own duration so that per-cause
  // seconds re-add to the session's stalled total exactly.
  double open_start = -1;
  for (const LogEvent& ev : events) {
    if (ev.kind == EventKind::StallStart) {
      open_start = ev.t_s;
    } else if (ev.kind == EventKind::StallEnd) {
      const double start = open_start >= 0 ? open_start : ev.t_s - ev.a;
      StallAttribution sa;
      sa.start_s = start;
      sa.end_s = ev.t_s;
      sa.dur_s = ev.a;
      sa.cause = pick_cause(start, ev.t_s, events, evidence, cfg);
      out.stall_s += ev.a;
      out.stalls.push_back(sa);
      open_start = -1;
    }
  }
  if (open_start >= 0 && end_s > open_start) {
    StallAttribution sa;
    sa.start_s = open_start;
    sa.end_s = end_s;
    sa.dur_s = end_s - open_start;
    sa.cause = pick_cause(open_start, end_s, events, evidence, cfg);
    out.stall_s += sa.dur_s;
    out.stalls.push_back(sa);
  }

  // Slow joins get a cause too; a session that never joined at all is the
  // slowest join there is.
  if (!joined) {
    out.slow_join = true;
    out.join_s = end_s - begin_s;
    out.join_cause = pick_cause(begin_s, end_s, events, evidence, cfg);
  } else if (out.join_s >= cfg.slow_join_s) {
    out.slow_join = true;
    const double jend = join_done_s >= 0 ? join_done_s : begin_s + out.join_s;
    out.join_cause = pick_cause(begin_s, jend, events, evidence, cfg);
  }
  return out;
}

void record_attribution(Obs& obs, const SessionAttribution& att,
                        std::uint64_t session_uid) {
  for (const StallAttribution& sa : att.stalls) {
    const std::string label =
        std::string("{cause=\"") + cause_name(sa.cause) + "\"}";
    const double dur = sa.dur_s;
    obs.metrics.counter("stall_seconds_total" + label).add(dur);
    obs.metrics.counter("stall_events_total" + label).add(1);
    obs.metrics.histogram("stall_attributed_s" + label)
        .record(dur, sa.end_s, session_uid);
    obs.trace.instant("attrib", std::string("stall:") + cause_name(sa.cause),
                      time_at(sa.end_s));
  }
  if (att.slow_join) {
    obs.metrics
        .counter(std::string("slow_joins_total{cause=\"") +
                 cause_name(att.join_cause) + "\"}")
        .add(1);
  }
}

namespace {

/// Extract X from `prefix{cause="X"}`; empty when the name is not ours.
std::string cause_label(const std::string& name, const char* prefix) {
  const std::string head = std::string(prefix) + "{cause=\"";
  if (name.rfind(head, 0) != 0) return {};
  const std::size_t end = name.find('"', head.size());
  if (end == std::string::npos) return {};
  return name.substr(head.size(), end - head.size());
}

/// Round-trip-exact serialization. The attribution section's headline
/// invariant — per-cause seconds re-add to the total within 1e-9 — must
/// survive the snapshot, and format_number's 9 significant digits lose
/// ~1e-7 on minute-scale totals.
std::string format_exact(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return format_number(v);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string attribution_json(const Registry& metrics) {
  double total = 0;
  for (const auto& [name, hist] : metrics.histograms()) {
    if (name.rfind("session_stalled_s{", 0) == 0) total += hist.sum();
  }
  double attributed = 0;
  std::string causes;
  for (const auto& [name, counter] : metrics.counters()) {
    const std::string cause = cause_label(name, "stall_seconds_total");
    if (cause.empty()) continue;
    attributed += counter.value();
    double events = 0;
    const auto it = metrics.counters().find(
        std::string("stall_events_total{cause=\"") + cause + "\"}");
    if (it != metrics.counters().end()) events = it->second.value();
    if (!causes.empty()) causes += ',';
    causes += "{\"cause\":\"" + cause +
              "\",\"stall_s\":" + format_exact(counter.value()) +
              ",\"stalls\":" + format_number(events) + "}";
  }
  std::string joins;
  for (const auto& [name, counter] : metrics.counters()) {
    const std::string cause = cause_label(name, "slow_joins_total");
    if (cause.empty()) continue;
    if (!joins.empty()) joins += ',';
    joins += "{\"cause\":\"" + cause +
             "\",\"count\":" + format_number(counter.value()) + "}";
  }
  return "{\"total_stall_s\":" + format_exact(total) +
         ",\"attributed_s\":" + format_exact(attributed) + ",\"causes\":[" +
         causes + "],\"slow_joins\":[" + joins + "]}";
}

std::vector<std::pair<std::string, double>> top_causes(
    const Registry& metrics, std::size_t n) {
  std::vector<std::pair<std::string, double>> all;
  for (const auto& [name, counter] : metrics.counters()) {
    const std::string cause = cause_label(name, "stall_seconds_total");
    if (!cause.empty()) all.emplace_back(cause, counter.value());
  }
  // Worst first; equal totals break to the name so the order is total.
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

}  // namespace psc::obs
