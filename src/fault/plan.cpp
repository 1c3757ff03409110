#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "net/link.h"
#include "sim/simulation.h"
#include "util/records.h"
#include "util/rng.h"
#include "util/strings.h"

namespace psc::fault {

namespace {

constexpr const char* kHeader = "# psc-fault-plan v1";

struct KindTraits {
  const char* name;
  /// Mean episode count over a 1800 s horizon at intensity 1.
  double episodes_per_1800s;
  double dur_lo, dur_hi;          // seconds
  double severity_lo, severity_hi;  // 0 => severity fixed at 0
  bool has_edge_target;
};

constexpr KindTraits kTraits[kKindCount] = {
    {"link_blackout", 3, 2, 8, 0, 0, false},
    {"rate_collapse", 5, 5, 30, 0.03, 0.2, false},
    {"handover_gap", 8, 0.5, 4, 0, 0, false},
    {"edge_outage", 2, 10, 60, 0, 0, true},
    {"origin_restart", 2, 5, 20, 0, 0, false},
    {"api_error_burst", 3, 5, 30, 0, 0, false},
    {"api_latency_burst", 3, 5, 30, 0.5, 3, false},
};

/// Snap a generated value onto a decimal grid (1/scale). Grid values have
/// few enough significant digits that the %.9g text form recovers the
/// exact double on parse — without this, two episodes whose starts differ
/// only past the 9th digit collapse onto one printed value and the
/// canonical sort order would not survive a text round-trip.
double snap(double v, double scale) { return std::round(v * scale) / scale; }

enum PlanKey : std::size_t { kStart, kDur, kSeverity, kTarget };
constexpr RecordKey kPlanKeys[] = {
    {"start", 0, false, true},
    {"dur", 0, false, true},
    {"severity"},
    {"target", -1, true},
};

bool kind_index(std::string_view name, int* out) {
  Kind k;
  if (!kind_from_name(name, &k)) return false;
  *out = static_cast<int>(k);
  return true;
}

constexpr RecordFormat kPlanFormat{"fault_plan", kHeader,  "episode",
                                   "kind",       "episodes", kind_index,
                                   kPlanKeys};

}  // namespace

const Plan& Plan::none() {
  static const Plan empty;
  return empty;
}

const char* kind_name(Kind k) {
  return kTraits[static_cast<int>(k)].name;
}

bool kind_from_name(std::string_view name, Kind* out) {
  for (int i = 0; i < kKindCount; ++i) {
    if (name == kTraits[i].name) {
      *out = static_cast<Kind>(i);
      return true;
    }
  }
  return false;
}

Plan::Plan(std::vector<Episode> episodes) : episodes_(std::move(episodes)) {
  std::sort(episodes_.begin(), episodes_.end(),
            [](const Episode& a, const Episode& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.target != b.target) return a.target < b.target;
              if (a.duration != b.duration) return a.duration < b.duration;
              return a.severity < b.severity;
            });
  // Canonical form: overlapping episodes of the same (kind, target) merge
  // into whichever starts first (the later one is dropped).
  std::map<std::pair<int, int>, TimePoint> last_end;
  std::vector<Episode> kept;
  kept.reserve(episodes_.size());
  for (const Episode& e : episodes_) {
    const auto key = std::make_pair(static_cast<int>(e.kind), e.target);
    auto it = last_end.find(key);
    if (it != last_end.end() && e.start < it->second) continue;
    last_end[key] = e.end();
    kept.push_back(e);
  }
  episodes_ = std::move(kept);
}

Plan Plan::generate(std::uint64_t seed, const GenConfig& cfg) {
  Rng root(seed);
  std::vector<Episode> eps;
  const double horizon_s = std::max(0.0, to_s(cfg.horizon));
  for (int i = 0; i < kKindCount; ++i) {
    // Per-kind forked stream: enabling or disabling one kind never
    // perturbs the episodes of another.
    Rng rng = root.fork(static_cast<std::uint64_t>(i) + 1);
    if ((cfg.kinds & kind_bit(static_cast<Kind>(i))) == 0) continue;
    const KindTraits& t = kTraits[i];
    const long count = std::lround(t.episodes_per_1800s * cfg.intensity *
                                   horizon_s / 1800.0);
    for (long n = 0; n < count; ++n) {
      Episode e;
      e.kind = static_cast<Kind>(i);
      e.start = time_at(snap(rng.uniform(0, horizon_s), 1000));
      e.duration = seconds(snap(rng.uniform(t.dur_lo, t.dur_hi), 1000));
      e.severity = t.severity_hi > 0
                       ? snap(rng.uniform(t.severity_lo, t.severity_hi),
                              10000)
                       : 0;
      e.target = t.has_edge_target
                     ? static_cast<int>(rng.uniform_int(-1, 1))
                     : -1;
      eps.push_back(e);
    }
  }
  return Plan(std::move(eps));
}

Result<Plan> Plan::parse(std::string_view text) {
  auto records = read_records(text, kPlanFormat);
  if (!records) return records.error();
  std::vector<Episode> eps;
  eps.reserve(records.value().size());
  for (const Record& r : records.value()) {
    Episode e;
    e.kind = static_cast<Kind>(r.name);
    e.start = time_at(r.get(kStart, 0));
    e.duration = seconds(r.get(kDur, 0));
    e.severity = r.get(kSeverity, e.severity);
    e.target = static_cast<int>(r.get(kTarget, e.target));
    eps.push_back(e);
  }
  return Plan(std::move(eps));
}

std::string Plan::to_text() const {
  std::string out = kHeader;
  out += '\n';
  for (const Episode& e : episodes_) {
    out += strf("episode %s start=%.9g dur=%.9g severity=%.9g target=%d\n",
                kind_name(e.kind), to_s(e.start), to_s(e.duration),
                e.severity, e.target);
  }
  return out;
}

const Episode* Plan::active(Kind kind, TimePoint t, int target) const {
  for (const Episode& e : episodes_) {
    if (e.start > t) break;  // sorted by start
    if (e.kind != kind || e.end() <= t) continue;
    if (e.target == -1 || target == -1 || e.target == target) return &e;
  }
  return nullptr;
}

bool Plan::all_edges_down(TimePoint t) const {
  for (const Episode& e : episodes_) {
    if (e.start > t) break;
    if (e.kind == Kind::EdgeOutage && e.target == -1 && e.end() > t) {
      return true;
    }
  }
  return false;
}

ApiFault Plan::api_at(TimePoint t) const {
  ApiFault f;
  if (active(Kind::ApiErrorBurst, t) != nullptr) f.status = 503;
  if (const Episode* e = active(Kind::ApiLatencyBurst, t)) {
    f.extra_latency = seconds(e->severity);
  }
  return f;
}

void arm_access_link(sim::Simulation& sim, net::Link& link, const Plan& plan,
                     TimePoint from, TimePoint until) {
  for (const Episode& e : plan.episodes()) {
    if (e.start >= until) break;
    if (e.end() <= from) continue;
    const bool freeze =
        e.kind == Kind::LinkBlackout || e.kind == Kind::HandoverGap;
    const bool collapse = e.kind == Kind::RateCollapse;
    if (!freeze && !collapse) continue;
    // Events are clamped into [from, until]: the session owning the link
    // is guaranteed alive through `until`; episode *ends* are values, so
    // they may lie beyond it.
    const TimePoint at = std::max(from, e.start);
    if (freeze) {
      const TimePoint hold = e.end();
      if (at <= sim.now()) {
        link.freeze_until(hold);
      } else {
        sim.schedule_at(at, [&link, hold] { link.freeze_until(hold); });
      }
    } else {
      const double factor = std::clamp(e.severity, 0.001, 1.0);
      if (at <= sim.now()) {
        link.set_fault_factor(factor);
      } else {
        sim.schedule_at(at,
                        [&link, factor] { link.set_fault_factor(factor); });
      }
      const TimePoint clear = std::min(e.end(), until);
      sim.schedule_at(clear, [&link] { link.set_fault_factor(1.0); });
    }
  }
}

}  // namespace psc::fault
