#include "service/servers.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/strings.h"

namespace psc::service {

namespace {

struct RegionSpec {
  const char* name;
  double lat, lon;
  int servers;
};

// Every continent except Africa (paper §5): EC2-style regions.
constexpr RegionSpec kRegions[] = {
    {"us-west-1", 37.4, -121.9, 18},    {"us-east-1", 39.0, -77.5, 18},
    {"eu-central-1", 50.1, 8.7, 16},    {"eu-west-1", 53.3, -6.3, 10},
    {"ap-northeast-1", 35.6, 139.7, 9}, {"ap-southeast-1", 1.3, 103.8, 7},
    {"ap-southeast-2", -33.9, 151.2, 5},{"sa-east-1", -23.5, -46.6, 4},
};

}  // namespace

MediaServerPool::MediaServerPool(std::uint64_t seed) {
  Rng rng(seed);
  int host = 10;
  for (const RegionSpec& r : kRegions) {
    for (int i = 0; i < r.servers; ++i) {
      MediaServer s;
      s.region = r.name;
      s.location = geo::GeoPoint{r.lat, r.lon};
      s.ip = strf("54.%d.%d.%d", static_cast<int>(rng.uniform_int(64, 95)),
                  static_cast<int>(rng.uniform_int(0, 255)), host++);
      s.hostname = strf("vidman-%s-%d.periscope.tv", r.name, i);
      origins_.push_back(std::move(s));
    }
  }
  edges_[0] = MediaServer{"151.101.0.51", "hls-eu.fastly.periscope.tv",
                          "fastly-eu", geo::GeoPoint{50.1, 8.7}};
  edges_[1] = MediaServer{"151.101.1.51", "hls-sf.fastly.periscope.tv",
                          "fastly-sf", geo::GeoPoint{37.8, -122.4}};
}

const MediaServer& MediaServerPool::rtmp_origin_for(
    const geo::GeoPoint& broadcaster, const std::string& broadcast_id) const {
  // Nearest region by great-circle distance, then a deterministic pick
  // among that region's servers, which the constructor laid out as one
  // contiguous run per region, in kRegions order.
  double best = 1e18;
  std::size_t first = 0;  // of the current region's run
  std::size_t best_first = 0;
  std::size_t best_count = 0;
  for (const RegionSpec& r : kRegions) {
    const double d =
        geo::distance_km(broadcaster, geo::GeoPoint{r.lat, r.lon});
    if (d < best) {
      best = d;
      best_first = first;
      best_count = static_cast<std::size_t>(r.servers);
    }
    first += static_cast<std::size_t>(r.servers);
  }
  const std::size_t idx = std::hash<std::string>{}(broadcast_id) % best_count;
  return origins_[best_first + idx];
}

const MediaServer& MediaServerPool::hls_edge_for(
    std::size_t viewer_index) const {
  return edges_[viewer_index % edges_.size()];
}

}  // namespace psc::service
