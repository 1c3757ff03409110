// Causal attribution: tag each stall (and slow join) with a ranked cause.
//
// The attribution pass runs once per session, at session end, on the
// shard thread: it replays the session's structured event log
// (obs/eventlog.h) against the *evidence* the caller collected —
// fault-episode windows active near the session, the epoch load penalty
// the session actually paid — and picks one cause per stall span by a
// fixed ranking:
//
//   1. fault episode with the dominant overlap of the stall window
//      (ties: lower Cause enum value, then earlier window start)
//   2. the last failed segment fetch shortly before/inside the stall
//      (404 = edge_miss, 5xx = edge_outage, timeout = chunk_pacing)
//   3. an ABR down-switch shortly before the stall (abr_down_switch)
//   4. a load penalty at join above the floor (origin_load)
//   5. media/fetch progress during the stall (chunk_pacing: the link is
//      delivering, just not fast enough)
//   6. unattributed
//
// obs must not depend on fault (fault depends on obs), so episodes reach
// this pass as neutral EvidenceWindows; core::Study converts
// fault::Plan episodes to windows (see cause_from_fault_kind mapping in
// study.cpp and docs/OBSERVABILITY.md).
//
// Everything here is deterministic: inputs are per-shard event logs and
// seeded fault plans, the ranking has no ties left to chance, and the
// recorded series merge like any other Registry series (in shard order).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/eventlog.h"

namespace psc::obs {

struct Obs;

/// Cause taxonomy, ranked: lower enum value wins overlap ties. The first
/// five mirror fault::Plan kinds (see docs/ROBUSTNESS.md), api_fault
/// covers both API burst kinds, the rest are delivery-path diagnoses.
enum class Cause : std::uint8_t {
  RadioBlackout,   // fault: LinkBlackout
  RateCollapse,    // fault: RateCollapse
  HandoverGap,     // fault: HandoverGap
  EdgeOutage,      // fault: EdgeOutage (or a 5xx on the blocking fetch)
  OriginRestart,   // fault: OriginRestart
  ApiFault,        // fault: ApiErrorBurst / ApiLatencyBurst
  EdgeMiss,        // blocking segment 404'd at the edge (freshness miss)
  OriginLoad,      // epoch load penalty paid at join above the floor
  AbrDownSwitch,   // ABR stepped down just before the stall
  ChunkPacing,     // media kept arriving during the stall, just too slow
  Unattributed,    // no matching evidence
};

inline constexpr std::size_t kCauseCount = 11;

/// Stable snake_case name ("radio_blackout", ...).
const char* cause_name(Cause c);

/// One evidence interval [start_s, end_s) during which `cause` was
/// active for this session (e.g. a fault episode targeting its link).
struct EvidenceWindow {
  Cause cause = Cause::Unattributed;
  double start_s = 0;
  double end_s = 0;
};

/// Everything the caller knows about the session beyond its event log.
struct SessionEvidence {
  std::vector<EvidenceWindow> episodes;
  double load_penalty_s = 0;  // epoch load penalty paid at join
};

struct AttribConfig {
  double load_penalty_floor_s = 0.05;  // below this, load is not a cause
  double slow_join_s = 5.0;            // joins at/above this get a cause
  double fetch_lookback_s = 2.0;       // failed fetch → stall window
  double abr_lookback_s = 4.0;         // down-switch → stall window
};

struct StallAttribution {
  double start_s = 0;
  double end_s = 0;
  /// The player's own accounting of the span, carried separately from
  /// end_s - start_s so per-cause totals re-add to the session's stalled
  /// seconds without floating-point drift.
  double dur_s = 0;
  Cause cause = Cause::Unattributed;
};

struct SessionAttribution {
  std::vector<StallAttribution> stalls;
  double stall_s = 0;     // sum of stall span durations
  bool slow_join = false;
  double join_s = 0;
  Cause join_cause = Cause::Unattributed;
};

/// Pure attribution pass over one session's events. Stall spans are the
/// StallStart/StallEnd pairs in `events` (an unmatched StallStart is
/// closed at the SessionEnd timestamp). Never fails: a stall with no
/// matching evidence tags Cause::Unattributed.
SessionAttribution attribute_session(const std::vector<LogEvent>& events,
                                     const SessionEvidence& evidence,
                                     const AttribConfig& cfg = {});

/// Record an attribution into the bundle's registry/tracer:
///   stall_seconds_total{cause="…"}   counter, seconds
///   stall_events_total{cause="…"}    counter
///   stall_attributed_s{cause="…"}    histogram (with exemplars)
///   slow_joins_total{cause="…"}      counter (slow joins only)
/// plus one "attrib" tracer instant per stall naming the cause.
void record_attribution(Obs& obs, const SessionAttribution& att,
                        std::uint64_t session_uid);

class Registry;

/// Snapshot section summarizing the attribution series already recorded
/// in `metrics`:
///   {"total_stall_s":…,     — sum of the session_stalled_s histograms
///    "attributed_s":…,      — sum of the per-cause stall seconds
///    "causes":[{"cause":…,"stall_s":…,"stalls":…},…],   (name order)
///    "slow_joins":[{"cause":…,"count":…},…]}
/// total_stall_s and attributed_s agree to within float merge noise
/// (≤1e-9 on campaign scales) — CI asserts it.
std::string attribution_json(const Registry& metrics);

/// The top `n` causes by stall seconds, worst first, from the registry's
/// attribution counters (for BENCH-line cause fields).
std::vector<std::pair<std::string, double>> top_causes(
    const Registry& metrics, std::size_t n);

}  // namespace psc::obs
