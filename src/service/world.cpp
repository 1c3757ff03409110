#include "service/world.h"

#include <algorithm>
#include <cmath>

namespace psc::service {

World::World(sim::Simulation& sim, const WorldConfig& cfg, std::uint64_t seed)
    : sim_(sim), cfg_(cfg), rng_(seed) {
  // Hotspots: population-like latitude bands (most mass 20-55 N), Zipf
  // weights, modest geographic spread.
  hotspots_.reserve(static_cast<std::size_t>(cfg_.hotspot_count));
  for (int i = 0; i < cfg_.hotspot_count; ++i) {
    Hotspot h;
    const double band = rng_.uniform();
    if (band < 0.62) {
      h.center.lat_deg = rng_.uniform(20, 55);
    } else if (band < 0.82) {
      h.center.lat_deg = rng_.uniform(-5, 20);
    } else if (band < 0.94) {
      h.center.lat_deg = rng_.uniform(-40, -5);
    } else {
      h.center.lat_deg = rng_.uniform(55, 65);
    }
    // Longitudes cluster into the three population belts (Americas,
    // Europe/Africa, Asia-Pacific); the clustering is what makes the
    // GLOBAL discoverable count swing with UTC hour in Fig. 1 — with
    // uniform longitudes the regional diurnal cycles would cancel.
    const double belt = rng_.uniform();
    if (belt < 0.30) {
      h.center.lon_deg = rng_.normal(-85, 18);   // Americas
    } else if (belt < 0.60) {
      h.center.lon_deg = rng_.normal(15, 15);    // Europe / Africa
    } else if (belt < 0.92) {
      h.center.lon_deg = rng_.normal(115, 18);   // Asia-Pacific
    } else {
      h.center.lon_deg = rng_.uniform(-180, 180);
    }
    while (h.center.lon_deg >= 180) h.center.lon_deg -= 360;
    while (h.center.lon_deg < -180) h.center.lon_deg += 360;
    h.spread_deg = rng_.uniform(0.2, 1.5);
    hotspots_.push_back(h);
    hotspot_weights_.push_back(
        1.0 / std::pow(static_cast<double>(i + 1), cfg_.hotspot_zipf_s));
  }
  hotspot_weight_total_ = Rng::weighted_total(hotspot_weights_);

  // Arrival rate so that E[concurrent] = rate * E[duration] matches the
  // target. E[duration] for the log-normal mixture:
  const auto& p = cfg_.population;
  const double mean_dur =
      p.zero_viewer_fraction *
          std::exp(p.dur0_mu + p.dur0_sigma * p.dur0_sigma / 2) +
      (1 - p.zero_viewer_fraction) *
          std::exp(p.dur_mu + p.dur_sigma * p.dur_sigma / 2);
  arrival_rate_hz_ = cfg_.target_concurrent / mean_dur;
}

geo::GeoPoint World::draw_location() {
  if (rng_.bernoulli(cfg_.background_fraction)) {
    return geo::GeoPoint{rng_.uniform(-55, 68), rng_.uniform(-180, 180)};
  }
  // Weighted hotspot choice + Gaussian scatter around it.
  const Hotspot& h = hotspots_[rng_.weighted_index(hotspot_weights_,
                                                   hotspot_weight_total_)];
  geo::GeoPoint p;
  p.lat_deg =
      std::clamp(h.center.lat_deg + rng_.normal(0, h.spread_deg), -89.0, 89.0);
  p.lon_deg = h.center.lon_deg + rng_.normal(0, h.spread_deg);
  while (p.lon_deg >= 180) p.lon_deg -= 360;
  while (p.lon_deg < -180) p.lon_deg += 360;
  return p;
}

void World::spawn_one(TimePoint start_time) {
  geo::GeoPoint loc = draw_location();
  // Diurnal thinning: acceptance proportional to the local-hour weight.
  const double w = diurnal_weight(geo::local_hour(start_time, loc.lon_deg));
  static constexpr double kMaxDiurnal = 1.40;
  if (!rng_.bernoulli(w / kMaxDiurnal)) return;
  BroadcastInfo b = draw_broadcast(cfg_.population, rng_, loc, start_time);
  // Popularity couples to local time: evening/night streams find the
  // most viewers, early-morning ones the fewest (paper Fig. 2(b) — the
  // super-linear exponent makes the diurnal pattern visible through the
  // heavy-tailed viewer distribution). Watched broadcasts stay watched
  // (floor ≥ 1 viewer): the zero-viewer class and its short-duration
  // profile are drawn explicitly in draw_broadcast.
  if (b.peak_viewers > 0) {
    b.peak_viewers = std::max(1.0, b.peak_viewers * std::pow(w, 1.3));
  }
  add_broadcast(std::move(b));
}

const BroadcastInfo* World::add_broadcast(BroadcastInfo info) {
  ++total_created_;
  auto owned = std::make_unique<BroadcastInfo>(std::move(info));
  const BroadcastInfo* ptr = owned.get();
  broadcasts_[ptr->id] = std::move(owned);
  if (on_added_) on_added_(*ptr, sim_.now());
  return ptr;
}

void World::schedule_next_arrival() {
  const Duration gap = seconds(rng_.exponential(arrival_rate_hz_));
  sim_.schedule_after(gap, [this] {
    spawn_one(sim_.now());
    schedule_next_arrival();
  });
}

void World::gc() {
  const TimePoint cutoff = sim_.now() - cfg_.gc_grace;
  for (auto it = broadcasts_.begin(); it != broadcasts_.end();) {
    if (it->second->end_time() < cutoff) {
      if (on_removed_) on_removed_(it->first, sim_.now());
      it = broadcasts_.erase(it);
    } else {
      ++it;
    }
  }
  sim_.schedule_after(seconds(60), [this] { gc(); });
}

void World::start(bool prepopulate) {
  if (prepopulate) {
    // Stationary prepopulation: live broadcasts observed at a random time
    // are length-biased; sample by rejection against the duration and
    // place the observation point uniformly inside the lifetime.
    const auto target = static_cast<std::size_t>(cfg_.target_concurrent);
    std::size_t created = 0;
    std::size_t attempts = 0;
    const double mean_dur = cfg_.target_concurrent / arrival_rate_hz_;
    while (created < target && attempts < target * 200) {
      ++attempts;
      geo::GeoPoint loc = draw_location();
      BroadcastInfo b =
          draw_broadcast(cfg_.population, rng_, loc, sim_.now());
      const double accept = to_s(b.planned_duration) / (6.0 * mean_dur);
      if (!rng_.bernoulli(std::min(1.0, accept))) continue;
      const double age = rng_.uniform(0, to_s(b.planned_duration));
      b.start_time = sim_.now() - seconds(age);
      add_broadcast(std::move(b));
      ++created;
    }
  }
  schedule_next_arrival();
  sim_.schedule_after(seconds(60), [this] { gc(); });
}

std::vector<const BroadcastInfo*> World::query_rect(
    const geo::GeoRect& rect, bool include_ended_replays) const {
  const TimePoint now = sim_.now();
  const double p_visible = map_query::visible_fraction(rect, cfg_);
  std::vector<const BroadcastInfo*> hits;
  for (const auto& [id, b] : broadcasts_) {
    if (map_query::admit(*b, rect, include_ended_replays, now, cfg_,
                         p_visible)) {
      hits.push_back(b.get());
    }
  }
  map_query::rank_and_truncate(hits, now, cfg_.map_response_cap);
  return hits;
}

const BroadcastInfo* World::find(const BroadcastId& id) const {
  auto it = broadcasts_.find(id);
  return it == broadcasts_.end() ? nullptr : it->second.get();
}

const BroadcastInfo* World::teleport(Rng& rng,
                                     Duration min_remaining) const {
  const TimePoint now = sim_.now();
  std::vector<const BroadcastInfo*> candidates;
  std::vector<double> weights;
  // Map iteration is id-ordered, so the weighted pick is a deterministic
  // function of (registry contents, rng state) — ReplayWorld sorts its
  // candidates the same way.
  for (const auto& [id, b] : broadcasts_) {
    if (!map_query::teleport_candidate(*b, now, min_remaining)) continue;
    candidates.push_back(b.get());
    weights.push_back(map_query::teleport_weight(*b, now));
  }
  if (candidates.empty()) return nullptr;
  return candidates[rng.weighted_index(weights)];
}

void World::for_each_live(
    const std::function<void(const BroadcastInfo&)>& fn) const {
  const TimePoint now = sim_.now();
  for (const auto& [id, b] : broadcasts_) {
    if (b->live_at(now)) fn(*b);
  }
}

std::size_t World::live_count() const {
  const TimePoint now = sim_.now();
  std::size_t n = 0;
  for (const auto& [id, b] : broadcasts_) {
    if (b->live_at(now)) ++n;
  }
  return n;
}

}  // namespace psc::service
