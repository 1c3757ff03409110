// The simulated Periscope world: broadcast arrivals placed on a hotspot
// map, live-set bookkeeping, and the zoom-dependent map query the
// crawler works against.
//
// Scope note (see DESIGN.md): we simulate the *discoverable* population —
// public broadcasts with disclosed location. The paper estimates ~40K
// concurrent broadcasts total but its crawler could only ever see the
// 1-4K map-visible ones; those are exactly what this world contains.
//
// World is the live, event-driven WorldView implementation. An observer
// can watch every broadcast enter and leave the registry — that is how
// WorldTimeline records a campaign-global world once so every shard can
// replay it (see world_timeline.h).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "geo/geo.h"
#include "service/broadcast.h"
#include "service/world_view.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace psc::service {

class World : public WorldView {
 public:
  World(sim::Simulation& sim, const WorldConfig& cfg, std::uint64_t seed);

  /// Begin the arrival process (optionally pre-populating the live set so
  /// measurements can start immediately).
  void start(bool prepopulate = true);

  std::vector<const BroadcastInfo*> query_rect(
      const geo::GeoRect& rect,
      bool include_ended_replays = false) const override;

  const BroadcastInfo* find(const BroadcastId& id) const override;

  const BroadcastInfo* teleport(Rng& rng,
                                Duration min_remaining) const override;

  void for_each_live(
      const std::function<void(const BroadcastInfo&)>& fn) const override;

  std::size_t live_count() const override;
  std::size_t total_created() const { return total_created_; }

  sim::Simulation& sim() { return sim_; }
  const WorldConfig& config() const override { return cfg_; }

  /// Direct access for experiment setup (e.g. injecting a broadcast with
  /// chosen parameters). Returns the stored descriptor.
  const BroadcastInfo* add_broadcast(BroadcastInfo info);

  /// Observe the registry: `on_added` fires for every broadcast entering
  /// (including prepopulation and injection), `on_removed` when the GC
  /// drops it. Either may be null. Set before start().
  using AddedFn = std::function<void(const BroadcastInfo&, TimePoint)>;
  using RemovedFn = std::function<void(const BroadcastId&, TimePoint)>;
  void set_observer(AddedFn on_added, RemovedFn on_removed) {
    on_added_ = std::move(on_added);
    on_removed_ = std::move(on_removed);
  }

 private:
  struct Hotspot {
    geo::GeoPoint center;
    double spread_deg = 1.0;
  };

  void schedule_next_arrival();
  void spawn_one(TimePoint start_time);
  void gc();
  geo::GeoPoint draw_location();

  sim::Simulation& sim_;
  WorldConfig cfg_;
  Rng rng_;
  std::vector<Hotspot> hotspots_;
  std::vector<double> hotspot_weights_;  // Zipf draw weight of hotspots_[i]
  double arrival_rate_hz_ = 1.0;
  std::map<BroadcastId, std::unique_ptr<BroadcastInfo>> broadcasts_;
  std::size_t total_created_ = 0;
  AddedFn on_added_;
  RemovedFn on_removed_;
};

}  // namespace psc::service
