// Deterministic metrics: counters, gauges and fixed-bucket log-linear
// histograms collected into a Registry.
//
// Everything here is built for the sharded campaign runner's determinism
// contract: a registry is single-writer (one per shard, like the RNG and
// the Simulation), all aggregation state is order-insensitive (integer
// bucket counts, min/max) or accumulated in a deterministic order
// (per-shard sums, merged in shard order exactly like CampaignResult and
// EpochLoadBoard), and every exporter formats numbers through one
// deterministic printer. Two runs of the same campaign therefore produce
// byte-identical snapshots for any PSC_THREADS.
//
// Quantiles come from the histogram's fixed log-linear buckets, never from
// the raw samples, so p50/p90/p99 cannot depend on floating-point
// summation order. Bucket resolution is 16 linear sub-buckets per power of
// two (< 4.5% relative error), which is plenty for latency distributions.
#pragma once

#include "obs/obs.h"

#include <cstdint>
#include <map>
#include <string>

namespace psc::obs {

/// Print `v` exactly the same way on every platform/run: integers (the
/// common case for counters and bucket-derived quantiles) without a
/// decimal point, everything else with %.9g.
std::string format_number(double v);

/// Monotonic counter. add() of integral amounts stays exact (doubles are
/// exact integers up to 2^53), so merging is associative and commutative.
class Counter {
 public:
  void add(double v = 1) { value_ += v; }
  double value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  double value_ = 0;
};

/// Last-value gauge. Shards merge by taking the maximum, the only
/// shard-count-insensitive reduction for "current level" metrics (peak
/// heap depth, peak buffer, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }
  void merge(const Gauge& other) { set_max(other.value_); }

 private:
  double value_ = 0;
};

/// Worst-case witness for one histogram bucket: the sim-time and session
/// id of the max-value sample that landed there, so a snapshot links a
/// bucket straight to the trace span / event log of its worst session.
/// Replacement is deterministic: higher value wins, equal values go to
/// the smaller session id — order-insensitive, so shard merges commute.
struct Exemplar {
  double value = 0;
  double t_s = 0;  // sim time of the sample, seconds
  std::uint64_t session = 0;
};

/// Fixed-bucket log-linear histogram over non-negative values.
///
/// Layout: bucket 0 holds exact zeros (and negative inputs, clamped);
/// values in [2^e, 2^(e+1)) for e in [kMinExp, kMaxExp) are split into
/// kSubBuckets linear sub-buckets; anything below 2^kMinExp lands in the
/// underflow bucket, anything at or above 2^kMaxExp in the overflow
/// bucket. The layout is a compile-time constant, so two histograms are
/// always mergeable by adding bucket counts.
class Histogram {
 public:
  static constexpr int kMinExp = -20;  // ~1 microsecond when values are s
  static constexpr int kMaxExp = 30;   // ~34 years when values are s
  static constexpr int kSubBuckets = 16;
  static constexpr std::size_t kBuckets =
      3 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void record(double v);
  /// Record with exemplar context: additionally remembers the max-value
  /// sample per bucket (see Exemplar). Sparse — only buckets touched by
  /// this overload carry exemplars.
  void record(double v, double t_s, std::uint64_t session);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// Quantile estimate from bucket counts: the representative value
  /// (upper bound) of the bucket where the cumulative count crosses
  /// q * count, clamped to the exact observed min/max. Exact for the
  /// extremes (q=0 -> min, q=1 -> max).
  double quantile(double q) const;

  void merge(const Histogram& other);

  /// Bucket index for value `v` (exposed for tests).
  static std::size_t bucket_index(double v);
  /// Upper bound (representative value) of bucket `i`.
  static double bucket_upper(std::size_t i);

  /// Per-bucket exemplars, keyed by bucket index (sparse).
  const std::map<std::size_t, Exemplar>& exemplars() const {
    return exemplars_;
  }

 private:
  void offer_exemplar(std::size_t bucket, double v, double t_s,
                      std::uint64_t session);

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::map<std::size_t, Exemplar> exemplars_;
};

/// Named metrics, keyed by full series name (labels spelled inline, e.g.
/// `api_requests_total{api="accessVideo"}`). Backed by std::map: node
/// stability means components can cache the returned references across
/// later registrations, and iteration order — hence every export — is
/// deterministic.
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  /// Number of registered series across all three kinds.
  std::size_t series() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold another registry in (shard merge). Counters add, gauges take
  /// the max, histograms add bucket counts. Call in shard order for
  /// deterministic sums.
  void merge(const Registry& other);

  /// JSON snapshot:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                  "mean":..,"p50":..,"p90":..,"p99":..}}}
  std::string to_json() const;

  /// Prometheus text exposition. Histograms export as summaries
  /// (`name{quantile="0.5"}`, `name_sum`, `name_count`).
  std::string to_prometheus() const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// --- Process-wide wall-clock metrics ---
///
/// Shard wall time, epoch-barrier wait and friends are real-clock
/// measurements: they vary run to run and with the thread count, so they
/// must never contaminate the deterministic campaign registry. They go
/// into one process-global registry instead, guarded by an internal lock
/// and exported under a separate "process" key in snapshot files (CI
/// diffs the "metrics" key only).
void process_counter_add(const std::string& name, double v);
void process_gauge_max(const std::string& name, double v);
void process_hist_record(const std::string& name, double v);
/// JSON snapshot of the process registry (same shape as Registry).
std::string process_to_json();
/// Forget everything recorded so far (fresh section per bench run).
void process_reset();

}  // namespace psc::obs
