#include "obs/eventlog.h"

#include <cstdio>

#include "obs/metrics.h"

namespace psc::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::SessionBegin: return "session_begin";
    case EventKind::SessionEnd: return "session_end";
    case EventKind::JoinDone: return "join_done";
    case EventKind::StallStart: return "stall_start";
    case EventKind::StallEnd: return "stall_end";
    case EventKind::Reconnect: return "reconnect";
    case EventKind::Retry: return "retry";
    case EventKind::FetchOutcome: return "fetch";
    case EventKind::AbrSwitch: return "abr_switch";
    case EventKind::GaveUp: return "gave_up";
    case EventKind::Media: return "media";
  }
  return "unknown";
}

void EventLog::begin_session(std::uint64_t uid, const char* proto, double t_s,
                             double weight) {
  session_ = uid;
  proto_ = proto;
  session_first_ = pushed_;
  log(EventKind::SessionBegin, t_s, weight);
}

void EventLog::end_session(double t_s, double watch_s, double stalled_s) {
  log(EventKind::SessionEnd, t_s, watch_s, stalled_s);
  proto_ = "";
}

void EventLog::log(EventKind kind, double t_s, double a, double b,
                   const char* detail) {
  if (!enabled_) return;
  LogEvent ev;
  ev.session = session_;
  ev.t_s = t_s;
  ev.a = a;
  ev.b = b;
  ev.kind = kind;
  ev.proto = proto_;
  ev.detail = detail;
  push(ev);
}

void EventLog::push(const LogEvent& ev) {
  if (capacity_ == 0) {
    ++pushed_;
    ++dropped_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
  ++pushed_;
}

std::vector<LogEvent> EventLog::current_session_events() const {
  std::vector<LogEvent> out;
  if (ring_.empty()) return out;
  // Oldest surviving event's absolute index.
  const std::uint64_t oldest = pushed_ - ring_.size();
  const std::uint64_t first =
      session_first_ > oldest ? session_first_ : oldest;
  out.reserve(static_cast<std::size_t>(pushed_ - first));
  for (std::uint64_t abs = first; abs < pushed_; ++abs) {
    const std::size_t pos =
        (head_ + static_cast<std::size_t>(abs - oldest)) % ring_.size();
    out.push_back(ring_[pos]);
  }
  return out;
}

std::vector<LogEvent> EventLog::take_events() {
  std::vector<LogEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  ring_.clear();
  head_ = 0;
  return out;
}

std::string event_log_json(const std::vector<LogEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const LogEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"session\":%llu,\"t_s\":",
                  static_cast<unsigned long long>(ev.session));
    out += buf;
    out += format_number(ev.t_s);
    out += ",\"kind\":\"";
    out += event_kind_name(ev.kind);
    out += "\",\"proto\":\"";
    out += ev.proto;
    out += "\",\"a\":";
    out += format_number(ev.a);
    out += ",\"b\":";
    out += format_number(ev.b);
    if (ev.detail[0] != '\0') {
      out += ",\"detail\":\"";
      out += ev.detail;
      out += '"';
    }
    out += '}';
  }
  out += "]";
  return out;
}

}  // namespace psc::obs
