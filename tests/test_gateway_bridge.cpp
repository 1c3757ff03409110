// Clock-bridge and event-loop invariants for the interop gateway:
//  - Simulation::next_due_bound() is an early-but-never-late bound;
//  - SimBridge never runs the simulation ahead of the wall clock and
//    delivers events in the exact (when, seq) order of a pure-sim run;
//  - poll_timeout_ms() maps the next due event onto a bounded epoll wait;
//  - a slow (never-reading) peer hits the per-connection write cap and is
//    closed instead of buffering without bound.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <string>
#include <utility>
#include <vector>

#include "gateway/clients.h"
#include "gateway/event_loop.h"
#include "gateway/sim_bridge.h"
#include "sim/simulation.h"
#include "util/buffer.h"

namespace psc {
namespace {

TEST(NextDueBound, EmptyAndExhausted) {
  sim::Simulation sim;
  EXPECT_FALSE(sim.next_due_bound().has_value());
  sim.schedule_at(time_at(1.0), [] {});
  ASSERT_TRUE(sim.next_due_bound().has_value());
  sim.run_all();
  EXPECT_FALSE(sim.next_due_bound().has_value());
}

TEST(NextDueBound, EarlyButNeverLate) {
  sim::Simulation sim;
  const std::vector<double> whens = {0.25, 0.5, 3.75, 7.0, 3600.0};
  for (double w : whens) sim.schedule_at(time_at(w), [] {});
  for (double w : whens) {
    const auto bound = sim.next_due_bound();
    ASSERT_TRUE(bound.has_value());
    // The bound may be early (a cancelled node at the heap top) but never
    // past the actually-next event, and never behind the current clock.
    EXPECT_LE(to_s(*bound), w);
    EXPECT_GE(to_s(*bound), to_s(sim.now()));
    sim.run_until(time_at(w));
  }
}

TEST(SimBridge, NeverRunsAheadOfWall) {
  sim::Simulation sim;
  double wall = 100.0;  // arbitrary origin: only differences matter
  gateway::SimBridge bridge(sim, [&] { return wall; });

  std::vector<double> fired;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(time_at(i * 0.1),
                    [&] { fired.push_back(to_s(sim.now())); });
  }
  bridge.advance();
  EXPECT_TRUE(fired.empty());  // no wall time has passed
  EXPECT_LE(to_s(sim.now()), to_s(bridge.deadline()));

  for (int step = 0; step < 20; ++step) {
    wall += 0.07;
    bridge.advance();
    // Invariant: the sim clock trails the wall-mapped deadline.
    EXPECT_LE(to_s(sim.now()), to_s(bridge.deadline()) + 1e-12);
    for (double t : fired) EXPECT_LE(t, to_s(bridge.deadline()) + 1e-12);
  }
  EXPECT_EQ(fired.size(), 10u);
}

// The same schedule driven (a) by run_all on a pure simulation and (b)
// incrementally through the bridge in small irregular wall steps must
// deliver events in the identical (when, seq) order.
TEST(SimBridge, DeliveryOrderMatchesPureSim) {
  auto build = [](sim::Simulation& sim, std::vector<int>& order) {
    int id = 0;
    // Deliberate same-instant collisions: order must fall back to seq.
    for (double when : {0.5, 0.2, 0.5, 0.5, 0.1, 0.9, 0.2, 1.4, 0.9}) {
      const int tag = id++;
      sim.schedule_at(time_at(when),
                      [&order, tag] { order.push_back(tag); });
    }
    // An event that schedules more events while running.
    sim.schedule_at(time_at(0.3), [&sim, &order] {
      order.push_back(100);
      sim.schedule_at(time_at(0.6), [&order] { order.push_back(200); });
    });
  };

  sim::Simulation pure;
  std::vector<int> pure_order;
  build(pure, pure_order);
  pure.run_all();

  sim::Simulation bridged;
  std::vector<int> bridged_order;
  build(bridged, bridged_order);
  double wall = 0.0;
  gateway::SimBridge bridge(bridged, [&] { return wall; });
  // Irregular increments, including ones that land mid-bucket.
  for (double dw : {0.05, 0.13, 0.02, 0.4, 0.11, 0.07, 0.9, 0.5}) {
    wall += dw;
    bridge.advance();
  }
  EXPECT_EQ(bridged_order, pure_order);
}

TEST(SimBridge, PollTimeoutTracksNextEvent) {
  sim::Simulation sim;
  double wall = 0.0;
  gateway::SimBridge bridge(sim, [&] { return wall; });

  // Nothing pending: sleep the full cap.
  EXPECT_EQ(bridge.poll_timeout_ms(50), 50);

  sim.schedule_at(time_at(0.02), [] {});
  const int ms = bridge.poll_timeout_ms(50);
  EXPECT_GE(ms, 1);   // never a busy-loop zero while the event is future
  EXPECT_LE(ms, 21);  // and never sleeps meaningfully past the due time

  wall += 0.05;  // the event is now overdue
  EXPECT_EQ(bridge.poll_timeout_ms(50), 0);
  bridge.advance();
  EXPECT_EQ(bridge.poll_timeout_ms(50), 50);

  // A far-future event is clamped to the cap.
  sim.schedule_at(time_at(1000.0), [] {});
  EXPECT_EQ(bridge.poll_timeout_ms(50), 50);
}

// A peer that never reads must not buffer the gateway into the ground:
// the per-connection write cap closes it, and buffered bytes stay bounded
// the whole time.
TEST(EventLoopBackPressure, SlowPeerIsCappedAndClosed) {
  gateway::EventLoop loop;
  constexpr std::size_t kCap = 64 * 1024;
  std::size_t closes = 0;

  gateway::ConnectionHandlers handlers;
  handlers.on_data = [](gateway::Connection&, BytesView) {};
  handlers.on_close = [&](gateway::Connection&) { ++closes; };
  gateway::Connection* server_side = nullptr;
  auto port = loop.listen(0, handlers, [&](gateway::Connection& c) {
    c.set_write_cap(kCap);
    server_side = &c;
  });
  ASSERT_TRUE(port.ok());

  gateway::SocketPump peer;  // connects but never reads
  ASSERT_TRUE(peer.connect(port.value()).ok());
  Bytes scratch;
  peer.step(scratch);
  for (int i = 0; i < 1000 && server_side == nullptr; ++i) loop.poll(0);
  ASSERT_NE(server_side, nullptr);

  const Bytes chunk(8 * 1024, 0xAB);
  bool overflowed = false;
  for (int i = 0; i < 10000 && !overflowed; ++i) {
    server_side->send_copy(chunk);
    // The queue must never exceed the cap by more than one send.
    EXPECT_LE(loop.total_buffered(), kCap + chunk.size());
    if (server_side->closing()) overflowed = true;
    loop.poll(0);
  }
  EXPECT_TRUE(overflowed) << "write cap never tripped";
  for (int i = 0; i < 1000 && loop.connection_count() > 0; ++i) loop.poll(0);
  EXPECT_EQ(loop.connection_count(), 0u);
  EXPECT_EQ(closes, 1u);
  EXPECT_EQ(loop.total_buffered(), 0u);
}

// close_after_flush delivers everything already queued, then closes.
TEST(EventLoopBackPressure, CloseAfterFlushDeliversQueuedBytes) {
  gateway::EventLoop loop;
  gateway::ConnectionHandlers handlers;
  handlers.on_data = [](gateway::Connection&, BytesView) {};
  handlers.on_close = [](gateway::Connection&) {};
  const Bytes payload(512 * 1024, 0x5C);
  auto port = loop.listen(0, handlers, [&](gateway::Connection& c) {
    c.send_copy(payload);
    c.close_after_flush();
  });
  ASSERT_TRUE(port.ok());

  gateway::SocketPump peer;
  ASSERT_TRUE(peer.connect(port.value()).ok());
  Bytes received;
  for (int i = 0; i < 20000 && !peer.peer_closed(); ++i) {
    if (!peer.step(received)) break;
    loop.poll(0);
  }
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_TRUE(received == payload);
  for (int i = 0; i < 1000 && loop.connection_count() > 0; ++i) loop.poll(0);
  EXPECT_EQ(loop.connection_count(), 0u);
}

}  // namespace
}  // namespace psc
