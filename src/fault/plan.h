// Deterministic fault timeline.
//
// A Plan is an immutable, sorted list of fault episodes — what goes
// wrong, when, for how long, and how badly. Plans are pure data: they are
// generated from a SplitMix64 seed (or parsed from a small text format)
// *before* any simulation runs, so every shard of a campaign sees the
// same timeline regardless of thread count — episodes are part of the
// frozen world, like the shared-world WorldTimeline. Faults off is the
// empty plan: every consumer (API server, CDN edge, viewer sessions)
// queries its plan directly, and an empty one answers every query false
// or zero. arm_access_link() is the one function that touches the
// simulation. Format and taxonomy: docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/backoff.h"
#include "util/result.h"
#include "util/units.h"

namespace psc::net {
class Link;
}
namespace psc::sim {
class Simulation;
}

namespace psc::fault {

/// Episode taxonomy. Radio-side kinds act on the viewer's access links;
/// server-side kinds act on the service processes.
enum class Kind {
  LinkBlackout,    // access link fully dead (rate -> 0)
  RateCollapse,    // access rate multiplied by `severity` (0.03..0.2)
  HandoverGap,     // short blackout: WiFi<->LTE handover
  EdgeOutage,      // CDN edge 503s; `target` = edge index, -1 = all
  OriginRestart,   // RTMP origin drops connections and refuses new ones
  ApiErrorBurst,   // API answers 503
  ApiLatencyBurst, // API adds `severity` seconds of latency
};
inline constexpr int kKindCount = 7;

const char* kind_name(Kind k);
/// False (and *out untouched) for an unknown name.
bool kind_from_name(std::string_view name, Kind* out);

/// Kind bitmasks for Plan::generate.
inline constexpr unsigned kind_bit(Kind k) {
  return 1u << static_cast<int>(k);
}
inline constexpr unsigned kRadioKinds = kind_bit(Kind::LinkBlackout) |
                                        kind_bit(Kind::RateCollapse) |
                                        kind_bit(Kind::HandoverGap);
inline constexpr unsigned kServerKinds = kind_bit(Kind::EdgeOutage) |
                                         kind_bit(Kind::OriginRestart) |
                                         kind_bit(Kind::ApiErrorBurst) |
                                         kind_bit(Kind::ApiLatencyBurst);
inline constexpr unsigned kAllKinds = kRadioKinds | kServerKinds;

struct Episode {
  Kind kind = Kind::LinkBlackout;
  TimePoint start{};
  Duration duration{0};
  /// Kind-specific magnitude: rate factor for RateCollapse, extra
  /// latency seconds for ApiLatencyBurst, unused (0) otherwise.
  double severity = 0;
  /// Kind-specific target (EdgeOutage: edge index); -1 = all targets.
  int target = -1;

  TimePoint end() const { return start + duration; }
};

struct GenConfig {
  /// Timeline length; episodes all start inside [0, horizon).
  Duration horizon = seconds(1800);
  /// Which kinds to generate (kind_bit masks).
  unsigned kinds = kAllKinds;
  /// Scales every kind's episode count (1.0 = the default rates).
  double intensity = 1.0;
};

/// What the plan injects into one API request: a non-zero status
/// overrides the response (the app sees 5xx), extra_latency is added to
/// the request's service time.
struct ApiFault {
  int status = 0;
  Duration extra_latency{0};
};

class Plan {
 public:
  Plan() = default;

  /// The shared empty plan standalone servers and sessions run under.
  static const Plan& none();

  /// Deterministic timeline from `seed`: same seed + config => identical
  /// plan, on every shard and every machine.
  static Plan generate(std::uint64_t seed, const GenConfig& cfg = {});

  /// Parse the text format (see to_text). Malformed input yields a clean
  /// Error; accepted input is canonicalised exactly like generate's
  /// output, so to_text(parse(t)) is a fixpoint after one application.
  static Result<Plan> parse(std::string_view text);

  /// Canonical text form:
  ///   # psc-fault-plan v1
  ///   episode rate_collapse start=12.5 dur=30 severity=0.05 target=-1
  std::string to_text() const;

  bool empty() const { return episodes_.empty(); }
  std::size_t size() const { return episodes_.size(); }
  const std::vector<Episode>& episodes() const { return episodes_; }

  /// The episode of `kind` active at `t` and matching `target`
  /// (episode.target == -1, target == -1, or equal), or nullptr.
  const Episode* active(Kind kind, TimePoint t, int target = -1) const;

  bool origin_restarting(TimePoint t) const {
    return active(Kind::OriginRestart, t) != nullptr;
  }
  /// True when `edge_index`'s edge (or all edges) is out at `t`.
  bool edge_down(int edge_index, TimePoint t) const {
    return active(Kind::EdgeOutage, t, edge_index) != nullptr;
  }
  /// True only for an all-edges (target == -1) outage.
  bool all_edges_down(TimePoint t) const;
  ApiFault api_at(TimePoint t) const;

 private:
  explicit Plan(std::vector<Episode> episodes);  // sorts + canonicalises

  std::vector<Episode> episodes_;  // sorted by (start, kind, target)
};

/// Schedule `plan`'s radio episodes intersecting [from, until) onto an
/// access link: blackouts and handover gaps freeze the link for the
/// episode, rate collapses multiply its rate by the severity. An episode
/// already under way at `from` applies at once. Every scheduled event
/// fires at or before `until`, so a session-owned link may be destroyed
/// once its owner's event horizon passes `until` (freeze ends beyond
/// `until` are applied as values, not events).
void arm_access_link(sim::Simulation& sim, net::Link& link, const Plan& plan,
                     TimePoint from, TimePoint until);

/// Study-level fault switch. Off means the empty plan and no client
/// resilience. On, `plan_text` is parsed when non-empty (malformed text
/// is an error, never a silent fallback); otherwise a plan is generated
/// from `seed` + `gen`. The seed is used verbatim — not shard-mixed — so
/// every shard of a campaign replays the same timeline.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  std::string plan_text;
  GenConfig gen;
  ResilienceConfig policy;
};

}  // namespace psc::fault
