// Shared plumbing of the repo benchmark binary (psc_bench): run options,
// the result record every workload fills, benchmark-side spans, and the
// small numeric helpers the workloads share.
//
// The benchmark only calls the public entry points of the libraries under
// src/ and times them from outside; nothing here reaches into them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace psc::suite {

/// Monotonic seconds (steady_clock; CLOCK_MONOTONIC on Linux, so values
/// are comparable across processes on one machine).
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// How long the measured phase runs.
  double seconds = 15;
  /// Traced run: collectors on, per-layer metrics, Chrome trace of the
  /// benchmark's own spans. End-to-end numbers never come from it.
  bool traced = false;
  /// Tiny inputs (ctest smoke runs).
  bool smoke = false;
  /// Negative test: corrupt one reference segment so the byte check fails.
  bool tamper_reference = false;
  /// Chrome trace of the benchmark spans (traced runs).
  std::string trace_out;
  /// Monotonic instant (ns) at which the process was spawned; set-up time
  /// is measured from it. 0 = from main() entry.
  std::int64_t t0_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The metric catalogue, in BENCHMARK.json order. Every untraced run
/// reports every end-to-end metric and every traced run every per-layer
/// metric (a layer a workload does not reach reports 0); the run script
/// checks the names and units against BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// name -> value, filled by a workload; emitted through the catalogue.
using Values = std::vector<std::pair<std::string, double>>;

/// What one run reports: the correctness verdict, operations attempted
/// and failed, the metrics, and the result digest (campaigns).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// What the workload measured (end-to-end or per-layer names).
  Values values;
  std::string digest;

  /// The catalogue (end-to-end or per-layer) in order, each value taken
  /// from `values` or 0 when the workload does not reach that layer. A
  /// value not in the catalogue is a bug in psc_bench and fails the run.
  std::vector<Metric> metrics(bool per_layer);
  /// Record a failed correctness check (printed to stderr).
  void fail(const std::string& why);
};

/// Benchmark-side spans around every public call psc_bench makes: name,
/// start, end, parent span, and one run id shared by all spans of the run.
/// Kept in memory (main thread only) and written as a Chrome trace at exit.
class Spans {
 public:
  explicit Spans(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span whose parent is the innermost open span.
  int begin(std::string name);
  void end(int id);
  /// Per span name, in order of first appearance: summed duration and
  /// summed self time (duration minus the part its child spans cover).
  struct Total {
    std::string name;
    double total_s = 0;
    double self_s = 0;
  };
  std::vector<Total> totals() const;
  std::string chrome_json() const;

  /// RAII helper: `auto s = spans.scope("run_many");`
  class Scope {
   public:
    Scope(Spans& s, std::string name) : s_(s), id_(s.begin(std::move(name))) {}
    ~Scope() { s_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int id_;
  };
  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

 private:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = -1;
    int parent = -1;
  };
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// FNV-1a (64-bit) over a canonical text rendering of results.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n);
  void str(std::string_view s);
  /// Doubles go in at %.17g so every bit of the value counts.
  void num(double v);
  void u64(std::uint64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// SplitMix64 finaliser: decorrelated per-round / per-campaign seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Spawn this binary `n` times with `--setup-only` plus `args`, one after
/// another, and return the set-up seconds each child reports.
std::vector<double> setup_samples(const std::vector<std::string>& args,
                                  int n);

}  // namespace psc::suite
