// Sim-time SLO engine: declarative objectives evaluated per epoch.
//
// An SloObjective is "quantile of metric (optionally per protocol) must
// stay under threshold", e.g. `p99 join_s proto=rtmp < 5`. Sessions feed
// observations into a per-shard SloTrack — one fixed-layout histogram
// per (metric, proto, epoch) — which merges across shards exactly like
// the Registry (bucket adds, order-insensitive), so evaluation results
// are byte-identical for any PSC_THREADS.
//
// Epochs are the EpochLoadBoard's load epochs (session start time /
// epoch length), which makes SLO verdicts line up with the load ledger
// and the fault timeline in traces. Each objective is evaluated per
// epoch (pass/fail against the threshold) plus a burn-rate view: the
// worst fraction of failing epochs inside any trailing window of
// `burn_window` epochs — 1.0 means the budget burned continuously.
//
// Config comes from default_slo_config() or a text file (PSC_SLO env
// var) in the same spirit as fault::Plan's text form:
//
//   # psc-slo v1
//   slo join_p99_rtmp p99 join_s proto=rtmp < 5 burn_window=3
//   slo stall_ratio_p90_hls p90 stall_ratio proto=hls < 0.02 burn_window=3
//
// Violations surface three ways: the `slo` snapshot section (see
// bench::Reporter), "slo" tracer instants at the failing epoch's end,
// and psc_report's pass/fail table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace psc::obs {

struct SloObjective {
  std::string name;     // unique, e.g. "join_p99_rtmp"
  std::string metric;   // "join_s", "stall_ratio", ...
  std::string proto;    // "rtmp" | "hls" | "" = all protocols
  double quantile = 0.99;
  double threshold = 0;
  int burn_window = 3;  // epochs per burn-rate window
};

struct SloConfig {
  std::vector<SloObjective> objectives;
};

/// The paper-derived defaults: join p99 under the RTMP/HLS split
/// thresholds, stall ratio p90 under 2% for both protocols.
SloConfig default_slo_config();

/// Parse the text form shown above. Returns false (and sets *err) on
/// the first malformed line; comments and blank lines are skipped.
bool parse_slo_config(const std::string& text, SloConfig* out,
                      std::string* err);
std::string slo_config_to_text(const SloConfig& cfg);

/// Process-wide active config: parsed once from the file named by the
/// PSC_SLO env var, falling back to default_slo_config(). A parse error
/// falls back to the defaults too (stderr warning).
const SloConfig& active_slo_config();

/// Per-shard observation store: metric|proto -> epoch -> histogram.
/// Single-writer like the Registry; merge in shard order.
class SloTrack {
 public:
  void observe(const char* metric, const char* proto, std::uint64_t epoch,
               double value);
  void merge(const SloTrack& other);
  bool empty() const { return series_.empty(); }

  const std::map<std::string, std::map<std::uint64_t, Histogram>>& series()
      const {
    return series_;
  }

 private:
  std::map<std::string, std::map<std::uint64_t, Histogram>> series_;
};

struct SloEpochResult {
  std::uint64_t epoch = 0;
  std::uint64_t count = 0;  // observations in the epoch
  double value = 0;         // the objective's quantile over the epoch
  bool pass = true;
};

struct SloResult {
  SloObjective objective;
  std::vector<SloEpochResult> epochs;
  std::uint64_t violations = 0;
  double worst_burn = 0;  // max failing fraction over any trailing window
  bool pass = true;
};

/// Evaluate every objective against the merged track. Objectives whose
/// metric|proto series has no observations evaluate to pass with zero
/// epochs (absence of evidence is not a violation).
std::vector<SloResult> evaluate_slo(const SloTrack& track,
                                    const SloConfig& cfg);

/// The `slo` snapshot section: {"config":[...],"results":[...]}.
std::string slo_json(const SloTrack& track, const SloConfig& cfg);

/// One "slo" tracer instant per failing epoch, stamped at the epoch's
/// end. Called per shard on the shard's own track, so instants land in
/// the lane of the shard that observed the violation.
void emit_violation_instants(Tracer& trace, const SloTrack& track,
                             const SloConfig& cfg, double epoch_len_s);

}  // namespace psc::obs
