// Shared retry/backoff policy: capped exponential with deterministic
// jitter.
//
// One implementation serves every retry loop in the tree — the crawler's
// 429 handling, the RTMP client's reconnect, the HLS client's segment
// refetch, and the Study's accessVideo retry — so the policy knobs and
// the determinism rules (all jitter comes from the caller's seeded Rng;
// jitter == 0 draws nothing) live in exactly one place. See
// docs/ROBUSTNESS.md.
#pragma once

#include "util/rng.h"
#include "util/units.h"

namespace psc::fault {

struct BackoffConfig {
  /// Delay before the first retry.
  Duration initial = seconds(1);
  /// Growth factor per attempt.
  double multiplier = 2.0;
  /// Cap on the un-jittered delay.
  Duration max = seconds(30);
  /// Multiplicative jitter: delay *= 1 + jitter * U(-1, 1). Zero means
  /// no jitter *and no RNG draw*, so a jitter-free policy never perturbs
  /// the caller's stream (the crawler relies on this).
  double jitter = 0.0;
  /// Give up after this many attempts; 0 = unbounded.
  int max_attempts = 0;
};

/// Delay for 0-based `attempt` under `cfg`. Stateless companion to
/// Backoff for callers that track the attempt count themselves.
Duration backoff_delay(const BackoffConfig& cfg, int attempt, Rng& rng);

/// Stateful retry ladder: next() returns the delay before the upcoming
/// attempt and advances; reset() after a success re-arms the ladder.
class Backoff {
 public:
  Backoff(const BackoffConfig& cfg, Rng rng)
      : cfg_(cfg), rng_(std::move(rng)) {}

  /// True once max_attempts (when bounded) have been consumed.
  bool exhausted() const {
    return cfg_.max_attempts > 0 && attempts_ >= cfg_.max_attempts;
  }

  Duration next() { return backoff_delay(cfg_, attempts_++, rng_); }
  void reset() { attempts_ = 0; }
  int attempts() const { return attempts_; }
  const BackoffConfig& config() const { return cfg_; }

 private:
  BackoffConfig cfg_;
  Rng rng_;
  int attempts_ = 0;
};

/// Client-side resilience knobs, grouped so a Study hands one object to
/// every session. Defaults follow mobile-app practice: sub-second first
/// retries, ~6 attempts before giving up.
struct ResilienceConfig {
  /// RTMP reconnect after a dropped origin connection.
  BackoffConfig rtmp_reconnect{millis(400), 2.0, seconds(6), 0.3, 6};
  /// HLS per-segment refetch (alternating to the other edge).
  BackoffConfig hls_retry{millis(300), 2.0, seconds(4), 0.3, 5};
  /// accessVideo retry on API error bursts.
  BackoffConfig api_retry{seconds(1), 2.0, seconds(8), 0.3, 4};
  /// An HLS segment fetch with no response after this long counts as
  /// failed (and fails over to the other edge).
  Duration hls_fetch_timeout = seconds(8);
  /// Consecutive abandoned segments before the HLS session gives up.
  int hls_give_up_after = 4;
};

}  // namespace psc::fault
