// Deterministic random number generation.
//
// Every stochastic component takes an explicit Rng (no global state) so
// experiments replay bit-identically for a given seed. Child generators can
// be forked so that adding draws in one subsystem does not perturb another.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace psc {

/// SplitMix64: a tiny, fast, statistically solid generator (Steele,
/// Lea, Flood 2014). Used instead of std::mt19937_64 because the
/// simulation keeps thousands of generator instances alive (one per
/// retired session/pipeline component) and the Mersenne Twister's 2.5 KB
/// state would dominate their footprint; SplitMix64 is 8 bytes.
class SplitMix64Engine {
 public:
  using result_type = std::uint64_t;
  explicit SplitMix64Engine(std::uint64_t seed) : state_(seed) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Independent child stream; `salt` distinguishes siblings.
  Rng fork(std::uint64_t salt) {
    return Rng(engine_() ^ (salt * 0x9E3779B97F4A7C15ull));
  }

  double uniform() { return uni_(engine_); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  bool bernoulli(double p) { return uniform() < p; }

  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed).
  double pareto(double xm, double alpha) {
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
  }

  /// Zipf-like rank draw in [1, n] with exponent s, via rejection-free
  /// inverse-CDF over precomputed weights for small n, or approximate
  /// inversion for large n.
  std::int64_t zipf(std::int64_t n, double s);

  /// Draw an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(std::span<const double> weights);
  /// The same with the weights' sum, `total`, computed once by the
  /// caller (weighted_total()), for weights drawn from many times.
  std::size_t weighted_index(std::span<const double> weights, double total);
  /// The sum weighted_index() scales its draw by.
  static double weighted_total(std::span<const double> weights);

  SplitMix64Engine& engine() { return engine_; }

 private:
  SplitMix64Engine engine_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
};

}  // namespace psc
