// Discrete-event simulation kernel tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace psc::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(time_at(3.0), [&] { order.push_back(3); });
  sim.schedule_at(time_at(1.0), [&] { order.push_back(1); });
  sim.schedule_at(time_at(2.0), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(to_s(sim.now()), 3.0);
}

TEST(Simulation, TiesBreakByScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(time_at(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, RunUntilStopsAndSetsClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(time_at(5.0), [&] { ++fired; });
  sim.schedule_at(time_at(10.0), [&] { ++fired; });  // due at `until`: fires
  sim.schedule_at(time_at(15.0), [&] { ++fired; });
  sim.run_until(time_at(10.0));
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(to_s(sim.now()), 10.0);
  sim.run_until(time_at(20.0));
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, ScheduleAfterFromHandler) {
  Simulation sim;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(to_s(sim.now()));
    if (times.size() < 3) sim.schedule_after(seconds(1), tick);
  };
  sim.schedule_after(seconds(1), tick);
  sim.run_all();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  sim.schedule_at(time_at(5.0), [] {});
  sim.run_all();
  double fired_at = -1;
  sim.schedule_at(time_at(1.0), [&] { fired_at = to_s(sim.now()); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);  // not back in time
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(time_at(1.0), [&] { ++fired; });
  sim.schedule_at(time_at(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double cancel
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelInvalidHandle) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulation, PendingReflectsLiveEvents) {
  Simulation sim;
  EXPECT_FALSE(sim.pending());
  EventHandle h = sim.schedule_at(time_at(1.0), [] {});
  EXPECT_TRUE(sim.pending());
  sim.cancel(h);
  EXPECT_FALSE(sim.pending());
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(time_at(i), [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, RunUntilWithNoEventsAdvancesClock) {
  Simulation sim;
  sim.run_until(time_at(42.0));
  EXPECT_DOUBLE_EQ(to_s(sim.now()), 42.0);
}

// Regression: cancelling a handle whose event already fired used to corrupt
// the kernel's bookkeeping (the id landed on the cancelled list and silently
// swallowed a later event). It must be a rejected no-op.
TEST(Simulation, CancelAfterFiredIsRejectedNoOp) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(time_at(1.0), [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.pending());
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // and again
  // State must be untouched: a new event (possibly reusing the slot) still
  // fires, and the stale handle still cannot cancel it.
  sim.schedule_at(time_at(2.0), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_TRUE(sim.pending());
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_executed(), 2u);
}

// A stale generation-counted handle must never hit an event that reused
// its slot.
TEST(Simulation, StaleHandleCannotCancelSlotReuse) {
  Simulation sim;
  std::vector<EventHandle> stale;
  for (int round = 0; round < 5; ++round) {
    int fired = 0;
    EventHandle h = sim.schedule_after(seconds(1), [&] { ++fired; });
    for (const EventHandle& old : stale) EXPECT_FALSE(sim.cancel(old));
    sim.run_all();
    EXPECT_EQ(fired, 1);
    stale.push_back(h);
  }
}

TEST(Simulation, CancelFromInsideHandler) {
  Simulation sim;
  int fired = 0;
  EventHandle later = sim.schedule_at(time_at(2.0), [&] { ++fired; });
  sim.schedule_at(time_at(1.0), [&] { EXPECT_TRUE(sim.cancel(later)); });
  sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// 100K interleaved schedule/cancel/fire operations; checks exact execution
// accounting and that pending() ends false.
TEST(Simulation, CancelStress) {
  Simulation sim;
  SplitMix64Engine rng(12345);
  std::size_t fired = 0, cancelled = 0;
  std::vector<EventHandle> open;
  for (int i = 0; i < 100000; ++i) {
    const double when = to_s(sim.now()) + static_cast<double>(rng() % 97) / 7.0;
    open.push_back(sim.schedule_at(time_at(when), [&] { ++fired; }));
    const std::uint64_t op = rng() % 4;
    if (op == 0 && !open.empty()) {
      // Cancel a random outstanding handle; it may have fired already, in
      // which case cancel must refuse and the event stays counted as fired.
      const std::size_t k = rng() % open.size();
      if (sim.cancel(open[k])) ++cancelled;
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 1) {
      sim.run_until(sim.now() + seconds(2));
    }
  }
  sim.run_all();
  EXPECT_FALSE(sim.pending());
  // Every schedule either fired or was the target of exactly one successful
  // cancel — nothing lost, nothing double-counted.
  EXPECT_EQ(fired + cancelled, 100000u);
  EXPECT_EQ(sim.events_executed(), fired);
  EXPECT_GT(cancelled, 0u);
  EXPECT_GT(fired, 0u);
}

// Pins the kernel's firing order: a seeded mix of schedule_at and
// schedule_after (same-instant ties, past times clamped to now, delays
// from 0 to ~60 s, timers past 16 s), cancels (of queued events, from
// inside handlers, with stale handles) and run_until stops. Every fired
// (tag, now) pair and the final counters feed one FNV-1a hash, so any
// change to the (when, seq) order or to the clock moves it.
TEST(Simulation, FiringOrderPinned) {
  Simulation sim;
  SplitMix64Engine rng(2029);
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const auto mix_time = [&mix](TimePoint t) {
    const double s = to_s(t);
    std::uint64_t bits;
    std::memcpy(&bits, &s, sizeof bits);
    mix(bits);
  };
  // Every handle ever issued: fired and cancelled ones stay as stale.
  std::vector<EventHandle> handles;
  std::uint64_t next_tag = 0;
  constexpr std::uint64_t kMaxEvents = 20000;
  std::function<void()> schedule_one;
  const auto cancel_random = [&] {
    if (!handles.empty()) sim.cancel(handles[rng() % handles.size()]);
  };
  schedule_one = [&] {
    if (next_tag >= kMaxEvents) return;
    const std::uint64_t tag = next_tag++;
    Simulation::Callback fn = [&, tag] {
      mix(tag);
      mix_time(sim.now());
      const std::uint64_t r = rng() % 8;
      if (r < 5) schedule_one();
      if (r < 2) schedule_one();
      if (r == 7) cancel_random();
    };
    const std::uint64_t kind = rng() % 16;
    if (kind == 0) {
      // Same instant as now: FIFO among ties at the current time.
      handles.push_back(sim.schedule_at(sim.now(), std::move(fn)));
    } else if (kind == 1) {
      // A grid instant: many events share each half-second mark.
      const double at = static_cast<double>(rng() % 240) * 0.5;
      handles.push_back(sim.schedule_at(time_at(at), std::move(fn)));
    } else if (kind == 2) {
      // In the past: clamps to now.
      const double back = static_cast<double>(rng() % 5000) * 1e-3;
      handles.push_back(
          sim.schedule_at(sim.now() - seconds(back), std::move(fn)));
    } else if (kind == 3) {
      handles.push_back(sim.schedule_after(seconds(-1.0), std::move(fn)));
    } else if (kind < 6) {
      // Session-length timers past 16 s.
      const double d = 16.0 + static_cast<double>(rng() % 44000) * 1e-3;
      handles.push_back(sim.schedule_after(seconds(d), std::move(fn)));
    } else if (kind < 8) {
      const double d = static_cast<double>(rng() % 60000) * 1e-3;
      handles.push_back(sim.schedule_after(seconds(d), std::move(fn)));
    } else {
      // Media pacing and round trips: 0 to 200 ms.
      const double d = static_cast<double>(rng() % 2000) * 1e-4;
      handles.push_back(sim.schedule_after(seconds(d), std::move(fn)));
    }
  };
  for (int i = 0; i < 64; ++i) schedule_one();
  while (next_tag < kMaxEvents) {
    sim.run_until(sim.now() + seconds(static_cast<double>(rng() % 3000) *
                                      1e-3));
    mix_time(sim.now());
    // Between stops: cancel a few queued (or stale) events and add more.
    for (std::uint64_t k = rng() % 4; k > 0; --k) cancel_random();
    for (std::uint64_t k = rng() % 6; k > 0; --k) schedule_one();
  }
  sim.run_all();
  mix(sim.events_executed());
  mix(sim.events_scheduled());
  mix(sim.events_cancelled());
  mix_time(sim.now());
  EXPECT_EQ(sim.events_scheduled(), kMaxEvents);
  EXPECT_EQ(sim.events_executed() + sim.events_cancelled(), kMaxEvents);
  EXPECT_GT(sim.events_cancelled(), 50u);
  EXPECT_EQ(hash, 0x336eaa09555260b7ull) << std::hex << hash;
}

// ---- Order, clock and cancel edges ----
//
// These tests were written for the two-tier kernel (a calendar wheel in
// front of the heap) and keep its names — bucket, tier, cursor, overflow —
// so their IDs read through. Each still asserts firing order, the clock
// after run_until or cancel semantics, now against the one-heap kernel.

TEST(SimWheel, SameTickFifoWithinOneBucket) {
  // Three events at the same instant plus one 1.6 ms earlier: FIFO among
  // equals, time order otherwise.
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(0.0131), [&] { order.push_back(1); });
  s.schedule_at(time_at(0.0131), [&] { order.push_back(2); });
  s.schedule_at(time_at(0.0115), [&] { order.push_back(0); });
  s.schedule_at(time_at(0.0131), [&] { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimWheel, SameTickFifoAcrossTiers) {
  // Same instant, one node scheduled up front and one scheduled later from
  // a handler: sequence order must still decide.
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(0.0050), [&] { order.push_back(1); });
  s.schedule_at(time_at(0.0045), [&] {
    s.schedule_at(time_at(0.0050), [&] { order.push_back(2); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimWheel, CancelWhileResidentInBucket) {
  Simulation s;
  int fired = 0;
  EventHandle h = s.schedule_at(time_at(0.1), [&] { ++fired; });
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));  // second cancel is a stale handle
  s.schedule_at(time_at(0.2), [&] { fired += 10; });
  s.run_all();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(s.events_cancelled(), 1u);
  EXPECT_FALSE(s.pending());
}

TEST(SimWheel, FarFutureOverflowPromotes) {
  // A node 10 s out, scheduled first, fires after near ones scheduled
  // later — including one scheduled from a handler.
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(10.0), [&] { order.push_back(2); });
  s.schedule_at(time_at(0.01), [&] {
    order.push_back(1);
    s.schedule_at(time_at(0.05), [&] { order.push_back(10); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
  EXPECT_EQ(to_s(s.now()), 10.0);
}

TEST(SimWheel, RunUntilStopsMidBucketAndResumes) {
  // Two events 0.8 ms apart straddling a run_until boundary: the first
  // fires, the second must wait for the next run_until call (not be
  // dropped or fired early).
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(0.0410), [&] { order.push_back(1); });
  s.schedule_at(time_at(0.0418), [&] { order.push_back(2); });
  s.run_until(time_at(0.0414));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(to_s(s.now()), 0.0414);  // clock advances to the horizon
  EXPECT_TRUE(s.pending());
  s.run_until(time_at(1.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimWheel, FarFutureHeapNodeDoesNotMaskWheelResidents) {
  // A far-future node scheduled first must not keep an earlier one, due
  // before `until`, from firing in this run_until call.
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(50.0), [&] { order.push_back(99); });
  s.schedule_at(time_at(0.1), [&] { order.push_back(1); });
  s.run_until(time_at(1.0));
  EXPECT_EQ(order, (std::vector<int>{1}));
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 99}));
}

TEST(SimWheel, CursorRollsOverTheBucketArrayManyTimes) {
  // A periodic event with a 10 ms period over 10 s: the clock only moves
  // forward and lands on the last tick.
  Simulation s;
  int ticks = 0;
  double last = -1.0;
  bool monotone = true;
  std::function<void()> tick = [&] {
    if (to_s(s.now()) < last) monotone = false;
    last = to_s(s.now());
    if (++ticks < 1000) s.schedule_after(seconds(0.01), tick);
  };
  s.schedule_at(time_at(0.0), tick);
  s.run_all();
  EXPECT_EQ(ticks, 1000);
  EXPECT_TRUE(monotone);
  EXPECT_NEAR(last, 9.99, 1e-9);
}

TEST(SimWheel, PastEventsClampToNowAndFireInSeqOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(0.5), [&] {
    // Scheduling into the past clamps to now(); among clamped events
    // sequence order decides.
    s.schedule_at(time_at(0.1), [&] { order.push_back(1); });
    s.schedule_at(time_at(0.2), [&] { order.push_back(2); });
    s.schedule_at(s.now(), [&] { order.push_back(3); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(to_s(s.now()), 0.5);
}

TEST(SimWheel, MatchesReferenceHeapOrderingUnderStress) {
  // Differential check against an exact (when, seq) reference ordering:
  // random schedules (including same-instant and cancels) and run_until
  // cuts at arbitrary times.
  for (int trial = 0; trial < 40; ++trial) {
    std::mt19937_64 rng(trial * 104729u + 3u);
    Simulation s;
    std::set<std::tuple<double, long>> ref;  // (fire time, seq)
    std::map<long, double> when_of;
    long seq = 0;
    long fired = 0;
    bool ok = true;
    std::vector<std::pair<EventHandle, long>> handles;
    std::function<void(double)> sched = [&](double base) {
      double when = base + static_cast<double>(rng() % 10000) * 0.0005;
      if (rng() % 8 == 0) when = base + static_cast<double>(rng() % 4);
      if (rng() % 13 == 0) when = base;  // same-instant FIFO
      const long my = seq++;
      const double clamped = when < to_s(s.now()) ? to_s(s.now()) : when;
      ref.insert({clamped, my});
      when_of[my] = clamped;
      handles.push_back({s.schedule_at(time_at(when), [&, my] {
        ok = ok && !ref.empty() &&
             *ref.begin() == std::make_tuple(to_s(s.now()), my);
        if (!ref.empty()) ref.erase(ref.begin());
        if (++fired < 800 && rng() % 3 != 0) sched(to_s(s.now()));
        if (fired < 800 && rng() % 5 == 0) sched(to_s(s.now()));
      }), my});
    };
    for (int i = 0; i < 50; ++i) sched(static_cast<double>(rng() % 100) * 0.01);
    for (int i = 0; i < 10; ++i) {
      auto [h, id] = handles[rng() % handles.size()];
      if (s.cancel(h)) ref.erase({when_of[id], id});
    }
    s.run_until(time_at(0.0101));
    s.run_until(time_at(0.016));
    s.run_until(time_at(1.2345));
    s.run_all();
    ASSERT_TRUE(ok) << "trial " << trial << " fired out of order";
    ASSERT_TRUE(ref.empty()) << "trial " << trial << ": " << ref.size()
                             << " events never fired";
  }
}

// ---- Sparse schedules: run_until across empty stretches ----

TEST(Simulation, SparseWheelRunUntilInsideAndAcrossEmptyStretches) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(0.0102), [&] { order.push_back(1); });
  s.schedule_at(time_at(0.2002), [&] { order.push_back(4); });
  // Cut inside the empty stretch between the two.
  s.run_until(time_at(0.1002));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(to_s(s.now()), 0.1002);
  s.schedule_at(time_at(0.1003), [&] { order.push_back(2); });
  s.schedule_at(time_at(0.1042), [&] { order.push_back(3); });
  EXPECT_EQ(to_s(*s.next_due_bound()), 0.1003);
  // Cut across the rest: everything fires and the clock lands on the cut.
  s.run_until(time_at(0.3002));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(to_s(s.now()), 0.3002);
  s.schedule_at(time_at(0.4002), [&] { order.push_back(7); });
  EXPECT_EQ(to_s(*s.next_due_bound()), 0.4002);
  // Cut short of it: nothing fires, the clock still moves to the cut.
  s.run_until(time_at(0.3502));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(to_s(s.now()), 0.3502);
  s.schedule_at(time_at(0.3503), [&] { order.push_back(5); });
  s.schedule_at(time_at(0.3522), [&] { order.push_back(6); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulation, SparseWheelFarFutureHeapNodeLandsAmongWheelNodes) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(time_at(0.6002), [&] {
    order.push_back(3);
    s.schedule_at(time_at(0.6003), [&] { order.push_back(4); });
    s.schedule_at(time_at(0.6042), [&] { order.push_back(5); });
  });
  s.schedule_at(time_at(0.4002), [&] {
    order.push_back(0);
    // Nodes on both sides of the far node.
    s.schedule_at(time_at(0.5902), [&] { order.push_back(1); });
    s.schedule_at(time_at(0.6202), [&] { order.push_back(6); });
  });
  s.run_until(time_at(0.5942));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  s.schedule_at(time_at(0.5943), [&] { order.push_back(2); });
  s.schedule_at(time_at(0.5962), [&] { order.push_back(2); });
  EXPECT_EQ(to_s(*s.next_due_bound()), 0.5943);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 2, 3, 4, 5, 6}));
}

TEST(Simulation, SparseWheelMatchesHeapOrderAndWalkInsertCount) {
  // Events seconds apart, random cuts: the firing log, the clock after
  // every cut and whether anything is pending equal those of a reference
  // (when, seq) queue driven by the same schedule.
  struct Reference {
    std::set<std::tuple<double, long, int>> queue;  // (when, seq, id)
    long seq = 0;
    double now = 0;
    std::vector<std::pair<int, double>> log;

    void sched(double gap, int id) { queue.insert({now + gap, seq++, id}); }
    void run_events_until(double until) {
      while (!queue.empty() && std::get<0>(*queue.begin()) <= until) {
        const auto [when, s, id] = *queue.begin();
        queue.erase(queue.begin());
        now = when;
        log.push_back({id, when});
        if (id % 3 != 0 && id < 600) {
          sched(0.5 + (id * 7919 % 997) * 0.025, id + 1000);
        }
      }
    }
  };
  std::mt19937_64 rng(2024);
  Simulation sim;
  Reference ref;
  std::vector<std::pair<int, double>> fired;
  std::function<void(double, int)> sched = [&](double gap, int id) {
    sim.schedule_after(seconds(gap), [&, id] {
      fired.push_back({id, to_s(sim.now())});
      if (id % 3 != 0 && id < 600) {
        sched(0.5 + (id * 7919 % 997) * 0.025, id + 1000);
      }
    });
  };
  for (int id = 0; id < 400; ++id) {
    const double gap = static_cast<double>(rng() % 400000) * 1e-4;  // 0-40 s
    sched(gap, id);
    ref.sched(gap, id);
  }
  for (double cut = 0.0; cut < 90.0;) {
    cut += static_cast<double>(rng() % 50000) * 1e-4;  // up to 5 s
    sim.run_until(time_at(cut));
    ref.run_events_until(cut);
    if (ref.now < cut) ref.now = cut;
    ASSERT_EQ(to_s(sim.now()), ref.now);
    ASSERT_EQ(sim.next_due_bound().has_value(), !ref.queue.empty());
  }
  sim.run_all();
  ref.run_events_until(1e18);
  EXPECT_EQ(fired, ref.log);
  EXPECT_EQ(sim.events_executed(), ref.log.size());
}

// The kernel's callback type must not heap-allocate for small captures.
TEST(InlineCallback, SmallCapturesStayInline) {
  struct Small {
    void* a;
    void* b;
    double c;
  };
  struct Big {
    char bytes[128];
  };
  static_assert(Simulation::Callback::stores_inline<decltype([] {})>());
  static_assert(
      Simulation::Callback::stores_inline<decltype([s = Small{}] {
        (void)s;
      })>());
  static_assert(!Simulation::Callback::stores_inline<decltype([b = Big{}] {
    (void)b;
  })>());

  int hits = 0;
  Simulation::Callback small = [&hits, pad = 3.0] {
    hits += static_cast<int>(pad);
  };
  EXPECT_TRUE(small.is_inline());
  Simulation::Callback big = [&hits, b = Big{}] {
    (void)b;
    ++hits;
  };
  EXPECT_FALSE(big.is_inline());
  // Move transfers the callable either way.
  Simulation::Callback small2 = std::move(small);
  Simulation::Callback big2 = std::move(big);
  small2();
  big2();
  EXPECT_EQ(hits, 4);
}

TEST(InlineCallback, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  Simulation::Callback cb = [q = std::move(p)]() mutable { ++*q; };
  EXPECT_TRUE(cb);
  Simulation::Callback cb2 = std::move(cb);
  cb2();
  cb2.reset();
  EXPECT_FALSE(cb2);
}

}  // namespace
}  // namespace psc::sim
