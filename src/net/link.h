// Fluid network link model.
//
// A Link is a unidirectional FIFO serializer: bytes depart at the link
// rate (one transfer at a time, queueing behind earlier ones) and arrive
// one propagation delay later. Chaining two links (origin uplink -> access
// downlink) puts the bottleneck wherever the slower rate is — which is how
// the paper's `tc`-limited access experiments are reproduced.
//
// In-flight transfers are kept in a pending table so a mid-transfer rate
// change — set_rate (the `tc` command), a fault-injected rate collapse
// (set_fault_factor) or a blackout (freeze_until) — re-paces the
// unserialized tail at the new effective rate instead of applying only to
// subsequent sends. Bytes already serialized onto the wire still arrive.
//
// An optional throughput-noise process multiplies the nominal rate by a
// factor redrawn every `noise_period`, standing in for cross-traffic and
// radio variability on a real phone's path.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "util/buffer.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/units.h"

namespace psc::net {

/// Called on delivery with the arrival time and the delivered bytes.
/// The slice is ref-counted: forwarding it down a chained link or into a
/// capture shares the buffer instead of copying it. Small-buffer inline
/// storage: the usual `this`-plus-a-few-words capture never allocates
/// (millions of deliveries per run go through here).
using DeliveryFn = sim::InlineFunction<void(TimePoint, util::BufferSlice), 96>;

class Link {
 public:
  Link(sim::Simulation& sim, BitRate rate, Duration latency);

  /// Enqueue `data`; `deliver` fires when the last byte arrives. An
  /// owning Bytes converts implicitly; re-sending a delivered slice on
  /// the next hop is copy-free.
  void send(util::BufferSlice data, DeliveryFn deliver);
  /// Pacing-only transfer: occupies the serializer for `size` bytes and
  /// delivers an empty slice. For sends whose payload the receiver never
  /// reads (the metadata rides in the closure) — skips carrying bytes.
  void send(std::size_t size, DeliveryFn deliver);

  /// Change the nominal rate — the simulation's `tc` command. The
  /// unserialized remainder of every in-flight transfer is re-paced at
  /// the new rate; bytes already on the wire keep their arrival times.
  void set_rate(BitRate rate);
  BitRate rate() const { return rate_; }

  /// Fault injection: multiply the effective rate by `factor` (1.0 =
  /// healthy) and re-pace in-flight tails — a radio rate collapse.
  void set_fault_factor(double factor);
  double fault_factor() const { return fault_factor_; }

  /// Fault injection: no byte serializes before `until` (a blackout or
  /// handover gap). In-flight tails resume — re-paced — at `until`;
  /// monotone, so overlapping freezes extend each other.
  void freeze_until(TimePoint until);

  /// Enable multiplicative throughput noise: every `period`, the
  /// effective rate becomes rate() * U(lo, hi).
  void set_noise(Rng rng, Duration period, double lo, double hi);

  /// Model a `tc`-style shaper with a shallow queue feeding a TCP flow:
  /// when the backlog would exceed `queue_limit_bytes`, packets drop and
  /// the sender stalls for a loss-recovery episode of U(rto_min,rto_max)
  /// before the data eventually gets through. This is what turns an
  /// imposed bandwidth limit into the visible stalling of Fig. 3(b) —
  /// a pure fluid queue would absorb the video's I-frame bursts silently.
  void enable_shaped_queue(std::size_t queue_limit_bytes, Rng rng,
                           Duration rto_min = millis(300),
                           Duration rto_max = millis(1500));
  void disable_shaped_queue() { shaped_ = false; }

  std::uint64_t loss_recovery_events() const { return recoveries_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Time the queue drains (>= now when busy).
  TimePoint busy_until() const { return busy_until_; }

 private:
  /// One enqueued transfer. [start, end] is its serialization window at
  /// the rate in force when it was (re-)paced; the delivery event fires
  /// at end + latency and is rescheduled whenever the tail re-paces.
  struct Pending {
    std::uint64_t id;
    std::size_t size;
    TimePoint start;
    TimePoint end;
    DeliveryFn deliver;
    util::BufferSlice data;
    sim::EventHandle ev;
  };

  double noise_factor();
  double effective_rate();
  void send_sized(util::BufferSlice data, std::size_t size,
                  DeliveryFn deliver);
  void complete(std::uint64_t id);
  /// Re-serialize every unfinished pending tail from max(now,
  /// frozen_until_) at the current effective rate.
  void repace();

  sim::Simulation& sim_;
  BitRate rate_;
  Duration latency_;
  TimePoint busy_until_{};
  TimePoint frozen_until_{};
  double fault_factor_ = 1.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t next_transfer_id_ = 1;
  /// In-flight transfers in send order, from pending_[head_]. Completed
  /// entries ahead of head_ are dropped in batches, so the vector's
  /// storage is reused instead of allocated per transfer. A link keeps
  /// the storage of its deepest queue; summed over the live links, that
  /// peaked at 4.1 MiB in a `paper_fig3` benchmark run (docs/PERFORMANCE.md).
  std::vector<Pending> pending_;
  std::size_t head_ = 0;

  bool noise_enabled_ = false;
  Rng noise_rng_{0};
  Duration noise_period_{1};
  double noise_lo_ = 1.0, noise_hi_ = 1.0;
  double noise_current_ = 1.0;
  TimePoint noise_next_{};

  bool shaped_ = false;
  std::size_t queue_limit_bytes_ = 0;
  Rng shaper_rng_{0};
  Duration rto_min_{0.3}, rto_max_{1.5};
  TimePoint recovery_cooldown_until_{};
  std::uint64_t recoveries_ = 0;
};

}  // namespace psc::net
