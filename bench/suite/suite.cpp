#include "suite.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "testing/fuzz_target.h"

extern char** environ;

namespace psc::suite {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<MetricDef> kEndToEnd = {
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.pool_busy_share", "ratio"},
    {"core.shard_wall_p50_s", "s"},
    {"core.shard_wall_max_s", "s"},
    {"core.barrier_wait_s", "s"},
    {"core.timeline_record_s", "s"},
    {"sim.events_executed", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.events_per_cpu_s", "1/s"},
    {"sim.wheel_insert_share", "ratio"},
    {"sim.allocs_per_event", "ratio"},
    {"util.arena_allocations", "count"},
    {"util.slice_retains", "count"},
    {"media.encode_ns_per_byte", "ns/B"},
    {"media.encode_cpu_s_est", "s"},
    {"mpegts.mux_ns_per_byte", "ns/B"},
    {"mpegts.mux_cpu_s_est", "s"},
    {"hls.segments", "count"},
    {"rtmp.chunk_write_ns_per_byte", "ns/B"},
    {"rtmp.chunk_read_ns_per_byte", "ns/B"},
    {"rtmp.cpu_s_est", "s"},
    {"analysis.reconstruct_ns_per_byte", "ns/B"},
    {"analysis.reconstruct_cpu_s_est", "s"},
    {"layer_coverage_est", "ratio"},
    {"service.api_requests", "count"},
    {"service.load_bytes", "B"},
    {"service.aggregate_build_s", "s"},
    {"service.agg_viewer_s_per_s", "viewer-s/s"},
    {"client.hls_share", "ratio"},
    {"client.reconnects", "count"},
    {"client.retries", "count"},
    {"client.gave_up", "count"},
    {"fault.episodes", "count"},
    {"gateway.turns", "count"},
    {"gateway.busy_share", "ratio"},
    {"gateway.turn_p99_us", "us"},
    {"gateway.events_per_turn", "ratio"},
    {"gateway.queue_bytes_max", "B"},
    {"gateway.bridge_lag_p99_ms", "ms"},
    {"gateway.http_requests", "count"},
    {"gateway.parse_errors", "count"},
    {"gateway.segments_stored", "count"},
    {"gateway.gen_late_p99_ms", "ms"},
    {"gateway.fetch_p50_ms", "ms"},
    {"gateway.fetch_p99_ms", "ms"},
    {"gateway.join_p50_ms", "ms"},
    {"gateway.join_p90_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

void Outcome::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "psc_bench: CHECK FAILED: %s\n", why.c_str());
}

std::vector<Metric> Outcome::metrics(bool per_layer) {
  const std::vector<MetricDef>& defs = per_layer ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(defs.begin(), defs.end(),
                                   [&](const MetricDef& d) {
                                     return name == d.name;
                                   });
    if (!known) fail("metric " + name + " is not in the catalogue");
  }
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    double v = 0;
    for (const auto& [name, value] : values) {
      if (name == d.name) v = value;
    }
    if (!std::isfinite(v)) {
      fail(std::string("metric ") + d.name + " is not finite");
      v = 0;
    }
    out.push_back({d.name, v, d.unit});
  }
  return out;
}

// ---- spans -------------------------------------------------------------

int Spans::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::move(name), now_s(), -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close in LIFO order; tolerate a stray one by searching.
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::vector<Spans::Total> Spans::totals() const {
  std::vector<double> child_s(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_s >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::vector<Total> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < 0) continue;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Total& t) { return t.name == s.name; });
    if (it == out.end()) it = out.insert(out.end(), Total{s.name, 0, 0});
    it->total_s += s.end_s - s.start_s;
    it->self_s += s.end_s - s.start_s - child_s[i];
  }
  return out;
}

std::string Spans::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"psc_bench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"run\":\"%s\"}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                  s.parent, run_id_.c_str());
    out += buf;
  }
  out += "]}\n";
  return out;
}

// ---- numbers -----------------------------------------------------------

void Fnv1a::bytes(const void* p, std::size_t n) {
  h_ = testing::fnv1a(BytesView(static_cast<const std::uint8_t*>(p), n), h_);
}

void Fnv1a::str(std::string_view s) {
  bytes(s.data(), s.size());
  bytes("\n", 1);
}

void Fnv1a::num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  str(buf);
}

void Fnv1a::u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  str(buf);
}

std::string Fnv1a::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (0x9E3779B97F4A7C15ull * (b + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- set-up children ---------------------------------------------------

std::vector<double> setup_samples(const std::vector<std::string>& args,
                                  int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    std::vector<std::string> argv_s = {"/proc/self/exe", "--setup-only"};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    argv_s.push_back("--t0-ns");
    argv_s.push_back(std::to_string(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count()));
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t r; rc == 0 && (r = read(fds[0], buf, sizeof(buf))) != 0;) {
      if (r < 0) {
        if (errno == EINTR) continue;
        break;
      }
      text.append(buf, static_cast<std::size_t>(r));
    }
    close(fds[0]);
    if (rc != 0) break;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const std::size_t at = text.rfind("SETUP ");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        at == std::string::npos) {
      std::fprintf(stderr, "psc_bench: set-up child failed\n");
      break;
    }
    out.push_back(std::atof(text.c_str() + at + 6));
  }
  return out;
}

}  // namespace psc::suite
