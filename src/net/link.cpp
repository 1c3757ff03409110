#include "net/link.h"

#include <algorithm>
#include <span>
#include <utility>

namespace psc::net {

Link::Link(sim::Simulation& sim, BitRate rate, Duration latency)
    : sim_(sim), rate_(rate), latency_(latency) {}

void Link::set_noise(Rng rng, Duration period, double lo, double hi) {
  noise_enabled_ = true;
  noise_rng_ = std::move(rng);
  noise_period_ = period;
  noise_lo_ = lo;
  noise_hi_ = hi;
  noise_current_ = noise_rng_.uniform(lo, hi);
  noise_next_ = sim_.now() + period;
}

double Link::noise_factor() {
  if (!noise_enabled_) return 1.0;
  while (sim_.now() >= noise_next_) {
    noise_current_ = noise_rng_.uniform(noise_lo_, noise_hi_);
    noise_next_ = noise_next_ + noise_period_;
  }
  return noise_current_;
}

double Link::effective_rate() {
  return std::max(1.0, rate_ * noise_factor() * fault_factor_);
}

void Link::enable_shaped_queue(std::size_t queue_limit_bytes, Rng rng,
                               Duration rto_min, Duration rto_max) {
  shaped_ = true;
  queue_limit_bytes_ = queue_limit_bytes;
  shaper_rng_ = std::move(rng);
  rto_min_ = rto_min;
  rto_max_ = rto_max;
}

void Link::send(std::size_t size, DeliveryFn deliver) {
  send_sized(util::BufferSlice{}, size, std::move(deliver));
}

void Link::send(util::BufferSlice data, DeliveryFn deliver) {
  const std::size_t size = data.size();
  send_sized(std::move(data), size, std::move(deliver));
}

void Link::send_sized(util::BufferSlice data, std::size_t size,
                      DeliveryFn deliver) {
  bytes_sent_ += size;
  if (shaped_ && busy_until_ > sim_.now() &&
      sim_.now() >= recovery_cooldown_until_) {
    // Bytes already committed but not yet serialized = shaper backlog.
    const double backlog_bytes =
        to_s(busy_until_ - sim_.now()) * rate_ / 8.0;
    if (backlog_bytes + static_cast<double>(size) >
        static_cast<double>(queue_limit_bytes_)) {
      // Queue overflow: drop + one TCP loss-recovery episode. The
      // cooldown models the sender pacing itself (cwnd) afterwards —
      // without it every queued message would stack another RTO.
      ++recoveries_;
      busy_until_ += seconds(
          shaper_rng_.uniform(to_s(rto_min_), to_s(rto_max_)));
      recovery_cooldown_until_ = sim_.now() + seconds(2.0);
    }
  }
  const TimePoint start =
      std::max({sim_.now(), busy_until_, frozen_until_});
  const TimePoint end = start + transmit_time(size, effective_rate());
  busy_until_ = end;
  const TimePoint arrival = end + latency_;
  Pending p;
  p.id = next_transfer_id_++;
  p.size = size;
  p.start = start;
  p.end = end;
  p.deliver = std::move(deliver);
  p.data = std::move(data);
  p.ev = sim_.schedule_at(arrival, [this, id = p.id] { complete(id); });
  pending_.push_back(std::move(p));
}

void Link::complete(std::uint64_t id) {
  for (std::size_t i = head_; i < pending_.size(); ++i) {
    if (pending_[i].id != id) continue;
    // Detach before delivering: `deliver` may re-enter send() on this
    // same link (the pump chains do).
    DeliveryFn deliver = std::move(pending_[i].deliver);
    util::BufferSlice data = std::move(pending_[i].data);
    if (i == head_) {
      ++head_;  // the usual case: transfers complete in FIFO order
    } else {
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (head_ == pending_.size()) {
      pending_.clear();  // drained: the storage is kept for the next sends
      head_ = 0;
    } else if (2 * head_ >= pending_.size()) {
      // A busy link may not drain for its whole life (frames stay in
      // flight back to back), so the completed prefix is also dropped
      // once it is half the queue: storage stays within twice the depth.
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    deliver(sim_.now(), std::move(data));
    return;
  }
}

void Link::set_rate(BitRate rate) {
  rate_ = rate;
  repace();
}

void Link::set_fault_factor(double factor) {
  fault_factor_ = factor;
  repace();
}

void Link::freeze_until(TimePoint until) {
  if (until <= frozen_until_) return;
  frozen_until_ = until;
  repace();
}

void Link::repace() {
  const TimePoint now = sim_.now();
  const auto live = std::span(pending_).subspan(head_);
  bool any_unfinished = false;
  for (const Pending& p : live) {
    if (p.end > now) {
      any_unfinished = true;
      break;
    }
  }
  // Nothing mid-serialization: future sends pick up the new rate/freeze
  // on their own. Returning early also keeps the noise process draw count
  // identical to the pre-repace kernel when faults are off.
  if (!any_unfinished) return;

  const BitRate eff = effective_rate();
  TimePoint cursor = std::max(now, frozen_until_);
  for (Pending& p : live) {
    if (p.end <= now) continue;  // fully serialized; already on the wire
    // Remaining fraction by time ratio — rate-agnostic within the
    // constant-rate window the entry was last paced for.
    double frac = 1.0;
    if (p.start < now && p.end > p.start) {
      frac = to_s(p.end - now) / to_s(p.end - p.start);
    }
    const double remaining_bytes = frac * static_cast<double>(p.size);
    p.start = cursor;
    p.end = cursor + Duration{remaining_bytes * 8.0 / eff};
    cursor = p.end;
    sim_.cancel(p.ev);
    p.ev = sim_.schedule_at(p.end + latency_,
                            [this, id = p.id] { complete(id); });
  }
  busy_until_ = cursor;
}

}  // namespace psc::net
