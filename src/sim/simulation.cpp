#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

namespace psc::sim {

double Simulation::bucket_index(TimePoint t) const {
  // Multiply by the precomputed reciprocal: this is on the per-event path,
  // and any (consistent) rounding is fine — the bucket map only has to
  // agree between insert and drain, which a single formula guarantees.
  // std::floor is a libm call at the default x86-64 baseline, so truncate
  // through int64 instead: sim time is never negative, the round-trip is
  // exact below 2^63, and anything larger is past every wheel horizon and
  // only feeds range comparisons, where the un-floored value compares the
  // same way.
  const double x = t.time_since_epoch().count() * inv_tick_s_;
  if (x >= 0.0 && x < 9223372036854775808.0) {
    return static_cast<double>(static_cast<std::int64_t>(x));
  }
  return std::floor(x);
}

EventHandle Simulation::schedule_at(TimePoint when, Callback fn) {
  assert(fn);
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  if (!s.fn.is_inline()) ++callback_spills_;
  const Node n{when, next_seq_++, slot, s.gen};
  // Tier selection: the cursor bucket (and anything clamped behind it)
  // must interleave with already-heaped nodes, and far-future events wait
  // in the overflow heap; everything else takes the O(1) wheel path.
  const double bi = bucket_index(when);
  if (bi <= static_cast<double>(cursor_) ||
      bi >= static_cast<double>(cursor_ + buckets_.size())) {
    heap_push(n);
  } else {
    const std::size_t k = static_cast<std::uint64_t>(bi) % buckets_.size();
    buckets_[k].push_back(n);
    occupied_[k / 64] |= std::uint64_t{1} << (k % 64);
    ++wheel_count_;
    ++wheel_inserts_;
  }
  ++live_count_;
  ++scheduled_;
  if (heap_.size() + wheel_count_ > max_heap_) {
    max_heap_ = heap_.size() + wheel_count_;
  }
  return EventHandle{slot, s.gen};
}

bool Simulation::cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= slots_.size()) return false;
  Slot& s = slots_[h.slot_];
  // A generation mismatch means the event fired (or was cancelled) and
  // the handle is stale: report failure without touching any state.
  if (s.gen != h.gen_ || !s.fn) return false;
  s.fn.reset();
  ++s.gen;  // invalidate outstanding handles; lazy heap node skips on pop
  --live_count_;
  ++cancelled_;
  return true;
}

void Simulation::heap_push(Node n) {
  std::size_t i = heap_.size();
  heap_.push_back(n);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!heap_[i].before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) return;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + kArity < n ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(heap_[i])) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulation::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulation::run_until(TimePoint until) {
  run_events_until(until);
  if (now_ < until) now_ = until;
}

void Simulation::dump_bucket() {
  const std::size_t k = cursor_ % buckets_.size();
  std::vector<Node>& b = buckets_[k];
  if (b.empty()) return;
  wheel_count_ -= b.size();
  for (const Node& n : b) heap_push(n);
  b.clear();  // keeps capacity: steady-state wheel traffic never allocates
  occupied_[k / 64] &= ~(std::uint64_t{1} << (k % 64));
}

std::uint64_t Simulation::next_occupied(std::uint64_t from) const {
  const std::size_t n = buckets_.size();
  const std::size_t start = from % n;
  // Index of the first set bit in [lo, hi) of the map, or hi.
  const auto scan = [this](std::size_t lo, std::size_t hi) {
    std::size_t w = lo / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (lo % 64));
    for (;;) {
      if (bits != 0) {
        return std::min<std::size_t>(hi, w * 64 + std::countr_zero(bits));
      }
      if (++w * 64 >= hi) return hi;
      bits = occupied_[w];
    }
  };
  const std::size_t k = scan(start, n);
  if (k < n) return from + (k - start);
  return from + (n - start) + scan(0, start);
}

void Simulation::run_events_until(TimePoint until) {
  const double until_bi = bucket_index(until);
  for (;;) {
    // Fire heap events due in (or before) the cursor bucket.
    while (!heap_.empty()) {
      const Node top = heap_.front();
      // Only once the top's bucket is at (or behind) the cursor is it the
      // global minimum — wheel buckets ahead may hold earlier nodes, so
      // the `until` cutoff must not be tested before this.
      if (bucket_index(top.when) > static_cast<double>(cursor_)) break;
      if (top.when > until) return;
      heap_pop_top();
      Slot& s = slots_[top.slot];
      if (s.gen != top.gen) {
        // Cancelled while queued; the slot was held back until its node
        // surfaced — reclaim it now.
        free_slots_.push_back(top.slot);
        continue;
      }
      Callback fn = std::move(s.fn);
      ++s.gen;  // fire invalidates the handle before user code runs
      free_slots_.push_back(top.slot);
      --live_count_;
      now_ = top.when;
      ++executed_;
      fn();
    }
    if (heap_.empty() && wheel_count_ == 0) return;
    if (wheel_count_ == 0) {
      // Only heap (far-future) events remain: jump the cursor straight to
      // the next event's bucket — no buckets in between to dump.
      if (heap_.front().when > until) return;
      cursor_ = static_cast<std::uint64_t>(bucket_index(heap_.front().when));
      continue;
    }
    // Wheel traffic ahead: move to the next bucket where anything can
    // happen — the first occupied one, the heap top's, or the bucket of
    // `until` — and pull it into the heap. A one-bucket walk would stop at
    // the same bucket: the ones in between are empty and nothing fires
    // there. Bounded by the wheel span — resident nodes sit within it.
    if (static_cast<double>(cursor_) >= until_bi) return;
    double next = static_cast<double>(next_occupied(cursor_ + 1));
    if (!heap_.empty()) {
      next = std::min(next, bucket_index(heap_.front().when));
    }
    cursor_ = static_cast<std::uint64_t>(std::min(next, until_bi));
    dump_bucket();
  }
}

std::optional<TimePoint> Simulation::next_due_bound() const {
  if (live_count_ == 0) return std::nullopt;
  TimePoint bound{Duration{1e18}};
  bool found = false;
  if (!heap_.empty()) {
    bound = heap_.front().when;
    found = true;
  }
  if (wheel_count_ > 0) {
    // First occupied bucket at or ahead of the cursor; its floor time
    // bounds every node resident in it from below.
    const std::uint64_t k = next_occupied(cursor_);
    const TimePoint floor_t{Duration{static_cast<double>(k) * tick_s_}};
    if (!found || floor_t < bound) bound = floor_t;
    found = true;
  }
  if (!found) return std::nullopt;  // only cancelled nodes remain queued
  return bound < now_ ? now_ : bound;
}

void Simulation::run_all() {
  // Drain everything; the clock stays at the last executed event.
  run_events_until(TimePoint{Duration{1e18}});
}

}  // namespace psc::sim
