#include "obs/trace.h"

#include <cstdio>

namespace psc::obs {

void Tracer::push(TraceEvent ev) {
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  // Saturated: overwrite the oldest slot.
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> Tracer::take_events() {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
  }
  ring_.clear();
  head_ = 0;
  return out;
}

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char ch = *s;
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
}

void append_ts(std::string& out, double us) {
  // Microsecond timestamps with fixed sub-microsecond precision keeps the
  // format deterministic and Perfetto-friendly.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out += buf;
}

}  // namespace

std::string chrome_trace_json(
    const std::vector<std::vector<TraceEvent>>& shards) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Name the process and each shard lane so Perfetto shows "shard N".
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"psc campaign\"}}";
  first = false;
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"shard %zu\"}}",
                  shard, shard);
    out += buf;
  }
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    for (const TraceEvent& ev : shards[shard]) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      append_escaped(out, ev.name.c_str());
      out += "\",\"cat\":\"";
      append_escaped(out, ev.cat);
      out += "\",\"ph\":\"";
      out += ev.phase;
      out += "\",\"ts\":";
      append_ts(out, ev.ts_us);
      if (ev.phase == 'X') {
        out += ",\"dur\":";
        append_ts(out, ev.dur_us);
      }
      if (ev.phase == 'i') out += ",\"s\":\"t\"";
      char ids[48];
      std::snprintf(ids, sizeof(ids), ",\"pid\":1,\"tid\":%zu}", shard);
      out += ids;
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace psc::obs
