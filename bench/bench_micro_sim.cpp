// Kernel microbenchmark: raw event throughput of the discrete-event core.
//
// Three workloads, all at PSC_MICRO_EVENTS scheduled events:
//   schedule_fire   N events scheduled in pseudo-random time order, drained
//   cancel_heavy    N scheduled, all but the last cancelled before firing
//                   (the RTO-timer pattern: every TCP send re-arms a timer
//                   that almost always gets cancelled)
//   mixed           self-rescheduling tickers + churn of cancelled one-shots
//
// Each workload also runs against a heap-only geometry of the kernel (a
// single-bucket wheel routes every schedule to the 4-ary heap tier) so the
// calendar wheel's contribution is isolated. The history against the seed
// kernel is recorded in docs/PERFORMANCE.md.
//
// Also counts heap allocations per event (global operator new override) to
// verify the InlineCallback<96> small-buffer path: captures <= 96 bytes
// must not allocate. The workload capture is 24 bytes — past
// std::function's 16-byte SSO, inside InlineCallback's 96.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "bench_common.h"
#include "sim/simulation.h"

// ---- allocation counter -------------------------------------------------
// Overriding global new/delete in this TU affects the whole binary; the
// counter is read before/after the measured region.
namespace {
std::size_t g_allocs = 0;
}

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace psc;

namespace {

// Pseudo-random but reproducible event times, precomputed so the RNG cost
// stays outside the measured region.
std::vector<double> make_times(std::size_t n) {
  SplitMix64Engine rng(7);
  std::vector<double> times(n);
  for (double& t : times) {
    t = static_cast<double>(rng() % 1000000) * 1e-3;
  }
  return times;
}

struct Sink {
  std::uint64_t value = 0;
  // Padding pushes the capture {Sink*, pad} past std::function's 16-byte
  // SSO while staying far under InlineCallback's 64.
  void bump(std::uint64_t a, std::uint64_t b) { value += 1 + a + b; }
};

struct RunStats {
  double secs = 0;
  std::size_t allocs = 0;
};

RunStats run_schedule_fire(sim::Simulation& sim,
                           const std::vector<double>& times, Sink* sink) {
  const std::size_t allocs_before = g_allocs;
  const bench::WallTimer t;
  for (double when : times) {
    sim.schedule_at(time_at(when),
                    [sink, a = std::uint64_t{1}, b = std::uint64_t{2}] {
                      sink->bump(a, b);
                    });
  }
  sim.run_all();
  return RunStats{t.elapsed_s(), g_allocs - allocs_before};
}

RunStats run_cancel_heavy(sim::Simulation& sim,
                          const std::vector<double>& times, Sink* sink) {
  const std::size_t allocs_before = g_allocs;
  const bench::WallTimer t;
  // The RTO-timer pattern: schedule two, immediately cancel the older one.
  sim::EventHandle prev{};
  bool have_prev = false;
  for (double when : times) {
    const sim::EventHandle h = sim.schedule_at(
        time_at(when), [sink, a = std::uint64_t{1}, b = std::uint64_t{2}] {
          sink->bump(a, b);
        });
    if (have_prev) sim.cancel(prev);
    prev = h;
    have_prev = true;
  }
  sim.run_all();
  return RunStats{t.elapsed_s(), g_allocs - allocs_before};
}

RunStats run_mixed(sim::Simulation& sim, std::size_t n, Sink* sink) {
  const std::size_t allocs_before = g_allocs;
  const bench::WallTimer t;
  // 16 tickers rescheduling themselves, plus a churn of one-shots where
  // every other one is cancelled. The ticker table outlives run_all so
  // the self-referencing callbacks stay valid.
  const double horizon = static_cast<double>(n) / 32.0;
  std::vector<std::function<void(double)>> tickers(16);
  for (std::size_t k = 0; k < 16; ++k) {
    tickers[k] = [&tickers, &sim, sink, k, horizon](double at) {
      sim.schedule_at(time_at(at), [&tickers, sink, k, at, horizon] {
        sink->bump(k, 0);
        if (at + 1.0 < horizon) tickers[k](at + 1.0);
      });
    };
    tickers[k](static_cast<double>(k) * 0.01);
  }
  SplitMix64Engine rng(11);
  for (std::size_t i = 0; i < n / 2; ++i) {
    const double when = static_cast<double>(rng() % 100000) * 1e-2;
    const sim::EventHandle h = sim.schedule_at(
        time_at(when), [sink, a = std::uint64_t{3}, b = std::uint64_t{4}] {
          sink->bump(a, b);
        });
    if ((i & 1) != 0) sim.cancel(h);
  }
  sim.run_all();
  return RunStats{t.elapsed_s(), g_allocs - allocs_before};
}

struct Workload {
  const char* name = "";
  std::size_t events = 0;       // events scheduled
  // Throughput is normalised by *scheduled* events — the full
  // schedule/(cancel|fire) lifecycle — since cancel_heavy executes almost
  // nothing by design.
  double secs = 0;
  double heap_secs = 0;         // heap-only geometry
  double events_s = 0;          // scheduled events/sec
  double heap_events_s = 0;     // scheduled events/sec, heap-only geometry
  double allocs = 0;            // allocations per scheduled event
  double wheel_inserts = 0;     // schedules that took the O(1) wheel path
};

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("micro_sim", argc, argv);
  const bench::WallTimer timer;
  bench::print_header(
      "Kernel", "Discrete-event kernel throughput",
      "generation-counted O(1) cancel + calendar wheel over a 4-ary "
      "move-pop heap + inline callbacks");

  // Compile-time guarantee backing the no-allocation claim below. The
  // media-path closures (MediaSample / hls::Segment captures) fit the
  // 96-byte inline buffer; anything past it must spill.
  struct BigCapture {
    char bytes[120];
  };
  static_assert(
      sim::Simulation::Callback::stores_inline<decltype([] {})>(),
      "captureless lambda must be inline");
  static_assert(!sim::Simulation::Callback::stores_inline<
                    decltype([b = BigCapture{}] { (void)b; })>(),
                "a 120-byte capture must spill to the heap");

  const std::size_t n = static_cast<std::size_t>(
      bench::env_int("PSC_MICRO_EVENTS", 400000));
  const std::vector<double> times = make_times(n);
  Sink sink;
  std::vector<Workload> results;

  for (int w = 0; w < 3; ++w) {
    Workload wl{};
    wl.events = n;
    switch (w) {
      case 0: wl.name = "schedule_fire"; break;
      case 1: wl.name = "cancel_heavy"; break;
      case 2: wl.name = "mixed"; break;
    }
    const auto run = [&](sim::Simulation& sim) -> RunStats {
      switch (w) {
        case 0: return run_schedule_fire(sim, times, &sink);
        case 1: return run_cancel_heavy(sim, times, &sink);
        default: return run_mixed(sim, n, &sink);
      }
    };
    {
      sim::Simulation sim;  // default calendar-wheel geometry
      const RunStats st = run(sim);
      wl.secs = st.secs;
      wl.events_s = static_cast<double>(wl.events) / st.secs;
      wl.allocs = static_cast<double>(st.allocs) /
                  static_cast<double>(wl.events);
      wl.wheel_inserts = static_cast<double>(sim.wheel_inserts());
    }
    {
      // Heap-only geometry: a single-bucket wheel means every schedule
      // lands at or beyond the cursor bucket and routes to the heap tier
      // (wheel_inserts stays 0) — same kernel, calendar front end off.
      sim::Simulation sim(Duration{0.004}, 1);
      const RunStats st = run(sim);
      wl.heap_secs = st.secs;
      wl.heap_events_s = static_cast<double>(wl.events) / st.secs;
    }
    results.push_back(wl);
  }

  std::printf("\n%-16s %9s %13s %15s %8s %13s %9s\n", "workload",
              "events", "wheel ev/s", "heap-only ev/s", "speedup",
              "wheel inserts", "alloc/ev");
  for (const Workload& w : results) {
    std::printf("%-16s %9zu %13.0f %15.0f %7.2fx %13.0f %9.4f\n", w.name,
                w.events, w.events_s, w.heap_events_s,
                w.events_s / w.heap_events_s, w.wheel_inserts, w.allocs);
  }
  std::printf("\n(heap-only = the same kernel with a single-bucket wheel, "
              "so every schedule routes to the 4-ary heap tier. These "
              "workloads spread schedules across ~1000 s of virtual time "
              "against a 16 s wheel horizon, so wheel occupancy stays low "
              "— a floor for the wheel's win. The media pipeline is the "
              "other extreme: bench_fig3_stalls routes ~98%% of its "
              "schedules through the wheel)\n");
  std::printf("(allocations amortise to ~0/event — only vector growth; "
              "the 24-byte capture stays in the inline callback buffer)\n");
  std::printf("sink=%llu (keeps callbacks observable)\n",
              static_cast<unsigned long long>(sink.value));

  for (const Workload& w : results) {
    char name[64];
    std::snprintf(name, sizeof(name), "micro_sim_%s", w.name);
    // `allocs_per_event` is already emitted by the shared BENCH prefix
    // (0 here: no campaign kernel); the workload's own counter rides as
    // `new_allocs_per_event` to avoid a duplicate JSON key.
    bench::emit_bench_line(name, w.secs, reporter.local(),
                      {{"events", static_cast<double>(w.events)},
                       {"heap_only_wall_s", w.heap_secs},
                       {"events_per_sec", w.events_s},
                       {"heap_only_events_per_sec", w.heap_events_s},
                       {"wheel_speedup", w.events_s / w.heap_events_s},
                       {"wheel_inserts", w.wheel_inserts},
                       {"new_allocs_per_event", w.allocs}});
    reporter.local()
        .counter(std::string("micro_events_total{workload=\"") + w.name +
                 "\"}")
        .add(static_cast<double>(w.events));
  }
  reporter.finish(timer.elapsed_s(), {{"workloads", 3}});
  return 0;
}
