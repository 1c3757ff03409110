#include "service/flash_crowd.h"

#include <algorithm>
#include <cmath>

#include "util/records.h"
#include "util/rng.h"
#include "util/strings.h"

namespace psc::service {

namespace {

constexpr const char* kHeader = "# psc-flashcrowd v1";

struct ShapeTraits {
  const char* name;
  /// Share of generated spikes of this shape (relative weight).
  double weight;
  double rise_lo, rise_hi;  // seconds
  double hold_lo, hold_hi;
  double tau_lo, tau_hi;
};

// Raids dominate event-driven surges; celebrity-goes-live events are
// rarer but hold their audience; organic build-ups are the background.
constexpr ShapeTraits kShapes[kSpikeShapeCount] = {
    {"raid", 3, 3, 20, 30, 180, 60, 240},
    {"celebrity_live", 1, 20, 90, 300, 900, 180, 600},
    {"organic", 2, 90, 360, 60, 360, 240, 720},
};

/// Snap a generated value onto a decimal grid (1/scale) so the %.9g text
/// form recovers the exact double on parse — same trick as fault::Plan.
double snap(double v, double scale) { return std::round(v * scale) / scale; }

enum SpikeKey : std::size_t { kStart, kPeak, kRise, kHold, kTau, kRank };
constexpr RecordKey kSpikeKeys[] = {
    {"start", 0, false, true}, {"peak", 0, false, true},
    {"rise"}, {"hold"}, {"tau"}, {"rank", 0, true},
};

bool shape_index(std::string_view name, int* out) {
  SpikeShape shape;
  if (!spike_shape_from_name(name, &shape)) return false;
  *out = static_cast<int>(shape);
  return true;
}

constexpr RecordFormat kScheduleFormat{"flashcrowd", kHeader,  "spike",
                                       "shape",      "spikes", shape_index,
                                       kSpikeKeys};

}  // namespace

const char* spike_shape_name(SpikeShape s) {
  return kShapes[static_cast<int>(s)].name;
}

bool spike_shape_from_name(std::string_view name, SpikeShape* out) {
  for (int i = 0; i < kSpikeShapeCount; ++i) {
    if (name == kShapes[i].name) {
      *out = static_cast<SpikeShape>(i);
      return true;
    }
  }
  return false;
}

double Spike::viewers_at(TimePoint t) const {
  if (t < start || peak_viewers <= 0) return 0;
  const double u = to_s(t - start);
  const double rise_s = to_s(rise);
  if (u < rise_s) return peak_viewers * (u / rise_s);
  const double after_rise = u - rise_s;
  const double hold_s = to_s(hold);
  if (after_rise < hold_s) return peak_viewers;
  const double tau_s = to_s(decay_tau);
  if (tau_s <= 0) return 0;
  return peak_viewers * std::exp(-(after_rise - hold_s) / tau_s);
}

FlashCrowdSchedule::FlashCrowdSchedule(std::vector<Spike> spikes)
    : spikes_(std::move(spikes)) {
  std::sort(spikes_.begin(), spikes_.end(), [](const Spike& a,
                                               const Spike& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.shape != b.shape) return a.shape < b.shape;
    if (a.channel_rank != b.channel_rank) {
      return a.channel_rank < b.channel_rank;
    }
    if (a.peak_viewers != b.peak_viewers) {
      return a.peak_viewers < b.peak_viewers;
    }
    if (a.rise != b.rise) return a.rise < b.rise;
    if (a.hold != b.hold) return a.hold < b.hold;
    return a.decay_tau < b.decay_tau;
  });
}

FlashCrowdSchedule FlashCrowdSchedule::generate(
    std::uint64_t seed, const FlashCrowdGenConfig& cfg) {
  Rng root(seed);
  std::vector<Spike> out;
  const double horizon_s = std::max(0.0, to_s(cfg.horizon));
  double weight_total = 0;
  for (const ShapeTraits& t : kShapes) weight_total += t.weight;
  for (int i = 0; i < kSpikeShapeCount; ++i) {
    // Per-shape forked stream: changing one shape's count never perturbs
    // the spikes of another.
    Rng rng = root.fork(static_cast<std::uint64_t>(i) + 1);
    const ShapeTraits& t = kShapes[i];
    const long count = std::lround(cfg.spikes_per_1800s * horizon_s /
                                   1800.0 * t.weight / weight_total);
    for (long n = 0; n < count; ++n) {
      Spike s;
      s.shape = static_cast<SpikeShape>(i);
      s.start = time_at(snap(rng.uniform(0, horizon_s), 1000));
      s.peak_viewers = snap(
          std::min(cfg.peak_cap, rng.pareto(cfg.peak_xm, cfg.peak_alpha)),
          1);
      s.rise = seconds(snap(rng.uniform(t.rise_lo, t.rise_hi), 1000));
      s.hold = seconds(snap(rng.uniform(t.hold_lo, t.hold_hi), 1000));
      s.decay_tau = seconds(snap(rng.uniform(t.tau_lo, t.tau_hi), 1000));
      s.channel_rank = static_cast<int>(
          rng.zipf(std::max(1, cfg.max_rank), cfg.rank_zipf_s) - 1);
      out.push_back(s);
    }
  }
  return FlashCrowdSchedule(std::move(out));
}

Result<FlashCrowdSchedule> FlashCrowdSchedule::parse(std::string_view text) {
  auto records = read_records(text, kScheduleFormat);
  if (!records) return records.error();
  std::vector<Spike> spikes;
  spikes.reserve(records.value().size());
  for (const Record& r : records.value()) {
    Spike s;
    s.shape = static_cast<SpikeShape>(r.name);
    s.start = time_at(r.get(kStart, 0));
    s.peak_viewers = r.get(kPeak, 0);
    s.rise = seconds(r.get(kRise, 0));
    s.hold = seconds(r.get(kHold, 0));
    s.decay_tau = seconds(r.get(kTau, 0));
    s.channel_rank = static_cast<int>(r.get(kRank, 0));
    spikes.push_back(s);
  }
  return FlashCrowdSchedule(std::move(spikes));
}

std::string FlashCrowdSchedule::to_text() const {
  std::string out = kHeader;
  out += '\n';
  for (const Spike& s : spikes_) {
    out += strf(
        "spike %s start=%.9g peak=%.9g rise=%.9g hold=%.9g tau=%.9g "
        "rank=%d\n",
        spike_shape_name(s.shape), to_s(s.start), s.peak_viewers,
        to_s(s.rise), to_s(s.hold), to_s(s.decay_tau), s.channel_rank);
  }
  return out;
}

}  // namespace psc::service
