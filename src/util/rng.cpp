#include "util/rng.h"

#include <numeric>

namespace psc {

std::int64_t Rng::zipf(std::int64_t n, double s) {
  assert(n >= 1);
  // Rejection sampling from the continuous envelope (Devroye). Works for
  // any n without precomputing the harmonic normaliser.
  const double b = std::pow(2.0, s - 1.0);
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-12)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::int64_t>(x);
    }
  }
}

double Rng::weighted_total(std::span<const double> weights) {
  return std::accumulate(weights.begin(), weights.end(), 0.0);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  return weighted_index(weights, weighted_total(weights));
}

std::size_t Rng::weighted_index(std::span<const double> weights,
                                double total) {
  assert(!weights.empty());
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace psc
