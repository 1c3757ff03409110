// Calendar-wheel tier of sim::Simulation: the wheel must be invisible to
// observers — execution order identical to a single global (when, seq)
// heap — across bucket boundaries, cancels, overflow promotion and
// cursor rollover. Uses a deliberately tiny wheel (4 ms × 64 buckets =
// 256 ms horizon) so every edge is exercised within short runs.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "util/units.h"

namespace psc {
namespace {

using sim::EventHandle;
using sim::Simulation;

TEST(SimWheel, SameTickFifoWithinOneBucket) {
  // Three events at the same instant plus one earlier in a neighbouring
  // 4 ms bucket: FIFO among equals, time order otherwise. All four land
  // past the cursor bucket, so all take the O(1) wheel path.
  Simulation s(Duration{0.004}, 64);
  std::vector<int> order;
  s.schedule_at(time_at(0.0131), [&] { order.push_back(1); });
  s.schedule_at(time_at(0.0131), [&] { order.push_back(2); });
  s.schedule_at(time_at(0.0115), [&] { order.push_back(0); });
  s.schedule_at(time_at(0.0131), [&] { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.wheel_inserts(), 4u);
}

TEST(SimWheel, SameTickFifoAcrossTiers) {
  // Same instant, one node arriving in the heap via a bucket dump and
  // one inserted directly (scheduled while the cursor sat on its
  // bucket): sequence order must still decide.
  Simulation s(Duration{0.004}, 64);
  std::vector<int> order;
  s.schedule_at(time_at(0.0050), [&] { order.push_back(1); });  // wheel
  s.schedule_at(time_at(0.0045), [&] {
    // cursor is on this bucket now: same-bucket schedules go straight
    // to the heap, joining the dumped wheel node above.
    s.schedule_at(time_at(0.0050), [&] { order.push_back(2); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.wheel_inserts(), 2u);  // the inner schedule was heap-direct
}

TEST(SimWheel, CancelWhileResidentInBucket) {
  Simulation s(Duration{0.004}, 64);
  int fired = 0;
  EventHandle h = s.schedule_at(time_at(0.1), [&] { ++fired; });
  ASSERT_EQ(s.wheel_inserts(), 1u);  // parked in a wheel bucket
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));  // second cancel is a stale handle
  s.schedule_at(time_at(0.2), [&] { fired += 10; });
  s.run_all();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(s.events_cancelled(), 1u);
  EXPECT_FALSE(s.pending());
}

TEST(SimWheel, FarFutureOverflowPromotes) {
  // 64 buckets × 4 ms = 256 ms horizon. 10 s is far past it: the node
  // must take the heap (overflow) tier and still fire, in order, after
  // the cursor has wrapped the wheel ~39 times.
  Simulation s(Duration{0.004}, 64);
  std::vector<int> order;
  s.schedule_at(time_at(10.0), [&] { order.push_back(2); });
  EXPECT_EQ(s.wheel_inserts(), 0u);  // overflow bypasses the wheel
  s.schedule_at(time_at(0.01), [&] {
    order.push_back(1);
    // From t=0.01, 10.0 is still beyond horizon; 0.05 is within it.
    s.schedule_at(time_at(0.05), [&] { order.push_back(10); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
  EXPECT_EQ(to_s(s.now()), 10.0);
}

TEST(SimWheel, RunUntilStopsMidBucketAndResumes) {
  // Two events in the same bucket straddling a run_until boundary: the
  // first fires, the second must wait for the next run_until call (not
  // be dropped or fired early).
  Simulation s(Duration{0.004}, 64);
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
  // Regression: with a far-future node sitting at the heap top past
  // `until`, wheel residents due *before* `until` must still fire in
  // this run_until call.
  Simulation s(Duration{0.004}, 64);
  std::vector<int> order;
  s.schedule_at(time_at(50.0), [&] { order.push_back(99); });  // heap tier
  s.schedule_at(time_at(0.1), [&] { order.push_back(1); });    // wheel tier
  s.run_until(time_at(1.0));
  EXPECT_EQ(order, (std::vector<int>{1}));
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 99}));
}

TEST(SimWheel, CursorRollsOverTheBucketArrayManyTimes) {
  // A periodic event with a 10 ms period over 10 s crosses the 256 ms
  // wheel span ~39 times; each reschedule lands in a bucket that has
  // already been drained at least once (index reuse modulo 64).
  Simulation s(Duration{0.004}, 64);
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
  EXPECT_GT(s.wheel_inserts(), 900u);  // steady-state path is the wheel
}

TEST(SimWheel, PastEventsClampToNowAndFireInSeqOrder) {
  Simulation s(Duration{0.004}, 64);
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
  // random schedules (including same-instant and cancels), run_until
  // cuts at mid-bucket times, tiny wheel so nodes constantly migrate
  // between tiers.
  for (int trial = 0; trial < 40; ++trial) {
    std::mt19937_64 rng(trial * 104729u + 3u);
    Simulation s(Duration{0.004}, 64);
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
    s.run_until(time_at(0.0101));  // mid-bucket cut
    s.run_until(time_at(0.016));
    s.run_until(time_at(1.2345));
    s.run_all();
    ASSERT_TRUE(ok) << "trial " << trial << " fired out of order";
    ASSERT_TRUE(ref.empty()) << "trial " << trial << ": " << ref.size()
                             << " events never fired";
  }
}

TEST(SimWheel, GeometryIsConfigurableAndDefaultsSane) {
  // Degenerate constructor arguments fall back to a working geometry.
  Simulation s(Duration{0.0}, 0);
  int fired = 0;
  s.schedule_at(time_at(0.01), [&] { ++fired; });
  s.run_all();
  EXPECT_EQ(fired, 1);
}

// ---- Sparse schedules: the cursor jumps over empty buckets ----
//
// Where the cursor rests decides each new event's tier (its own bucket
// or behind: heap; within the span: wheel), so wheel_inserts() pins the
// bucket the cursor landed on. Every count below is the one the
// one-bucket-at-a-time walk gives.

TEST(Simulation, SparseWheelRunUntilInsideAndAcrossEmptyStretches) {
  Simulation s(Duration{0.004}, 64);  // buckets of 4 ms, 256 ms span
  std::vector<int> order;
  s.schedule_at(time_at(0.0102), [&] { order.push_back(1); });  // bucket 2
  s.schedule_at(time_at(0.2002), [&] { order.push_back(4); });  // bucket 50
  EXPECT_EQ(s.wheel_inserts(), 2u);
  // Cut inside the empty stretch 3..49: the cursor stops on the cut's
  // bucket (25), not on bucket 2 and not on bucket 50.
  s.run_until(time_at(0.1002));
  EXPECT_EQ(order, (std::vector<int>{1}));
  s.schedule_at(time_at(0.1003), [&] { order.push_back(2); });  // bucket 25
  EXPECT_EQ(s.wheel_inserts(), 2u);
  s.schedule_at(time_at(0.1042), [&] { order.push_back(3); });  // bucket 26
  EXPECT_EQ(s.wheel_inserts(), 3u);
  EXPECT_EQ(to_s(*s.next_due_bound()), 0.1003);  // the heap node
  // Cut across the stretch 27..49 and past bucket 50: everything fires;
  // with nothing left the cursor stays on the last fired bucket (50).
  s.run_until(time_at(0.3002));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(to_s(s.now()), 0.3002);
  s.schedule_at(time_at(0.4002), [&] { order.push_back(7); });  // bucket 100
  EXPECT_EQ(s.wheel_inserts(), 4u);
  // A wheel-only queue: the bound is the floor of the occupied bucket.
  EXPECT_NEAR(to_s(*s.next_due_bound()), 0.400, 1e-12);
  // Cut inside the stretch 51..99: the cursor stops on the cut's bucket
  // (87), so an event there goes to the heap and one past it to the wheel.
  s.run_until(time_at(0.3502));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  s.schedule_at(time_at(0.3503), [&] { order.push_back(5); });  // bucket 87
  EXPECT_EQ(s.wheel_inserts(), 4u);
  s.schedule_at(time_at(0.3522), [&] { order.push_back(6); });  // bucket 88
  EXPECT_EQ(s.wheel_inserts(), 5u);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulation, SparseWheelFarFutureHeapNodeLandsAmongWheelNodes) {
  Simulation s(Duration{0.004}, 64);
  std::vector<int> order;
  std::size_t inserts_in_far = 0;
  // Past the span when scheduled: heap tier.
  s.schedule_at(time_at(0.6002), [&] {  // bucket 150
    order.push_back(3);
    // The cursor is on bucket 150: its own bucket goes to the heap, the
    // next one to the wheel.
    const std::size_t before = s.wheel_inserts();
    s.schedule_at(time_at(0.6003), [&] { order.push_back(4); });
    s.schedule_at(time_at(0.6042), [&] { order.push_back(5); });
    inserts_in_far = s.wheel_inserts() - before;
  });
  s.schedule_at(time_at(0.4002), [&] {  // bucket 100, heap tier too
    order.push_back(0);
    // Wheel nodes on both sides of the far node's bucket.
    s.schedule_at(time_at(0.5902), [&] { order.push_back(1); });  // 147
    s.schedule_at(time_at(0.6202), [&] { order.push_back(6); });  // 155
  });
  EXPECT_EQ(s.wheel_inserts(), 0u);
  s.run_until(time_at(0.5942));  // bucket 148, between 147 and 150
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.wheel_inserts(), 2u);
  s.schedule_at(time_at(0.5943), [&] { order.push_back(2); });  // 148: heap
  EXPECT_EQ(s.wheel_inserts(), 2u);
  s.schedule_at(time_at(0.5962), [&] { order.push_back(2); });  // 149: wheel
  EXPECT_EQ(s.wheel_inserts(), 3u);
  EXPECT_EQ(to_s(*s.next_due_bound()), 0.5943);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 2, 3, 4, 5, 6}));
  EXPECT_EQ(inserts_in_far, 1u);
  EXPECT_EQ(s.wheel_inserts(), 4u);
}

TEST(Simulation, SparseWheelMatchesHeapOrderAndWalkInsertCount) {
  // Events seconds apart on the default 16.4 s wheel, random cuts: the
  // firing order and clock equal a heap-only kernel's, and the wheel
  // insert count is the one-bucket walk's.
  std::mt19937_64 rng(2024);
  Simulation wheel;
  Simulation heap(Duration{0.004}, 1);  // one bucket: every node heaps
  std::vector<std::pair<int, double>> fired_wheel, fired_heap;
  int next_id = 0;
  std::function<void(Simulation&, std::vector<std::pair<int, double>>&,
                     double, int)>
      sched = [&](Simulation& sim, std::vector<std::pair<int, double>>& log,
                  double gap, int id) {
        sim.schedule_after(seconds(gap), [&sim, &log, &sched, id] {
          log.push_back({id, to_s(sim.now())});
          if (id % 3 != 0 && id < 600) {
            sched(sim, log, 0.5 + (id * 7919 % 997) * 0.025, id + 1000);
          }
        });
      };
  for (int i = 0; i < 400; ++i) {
    const double gap = static_cast<double>(rng() % 400000) * 1e-4;  // 0-40 s
    sched(wheel, fired_wheel, gap, next_id);
    sched(heap, fired_heap, gap, next_id);
    ++next_id;
  }
  for (double cut = 0.0; cut < 90.0;) {
    cut += static_cast<double>(rng() % 50000) * 1e-4;  // up to 5 s
    wheel.run_until(time_at(cut));
    heap.run_until(time_at(cut));
    ASSERT_EQ(to_s(wheel.now()), to_s(heap.now()));
    ASSERT_EQ(wheel.next_due_bound().has_value(),
              heap.next_due_bound().has_value());
  }
  wheel.run_all();
  heap.run_all();
  EXPECT_EQ(fired_wheel, fired_heap);
  EXPECT_EQ(wheel.events_executed(), heap.events_executed());
  EXPECT_EQ(wheel.wheel_inserts(), 341u);
}

}  // namespace
}  // namespace psc
