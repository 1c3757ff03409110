// Observability switchboard.
//
// Collection is switched at run time: metrics_enabled() / trace_enabled()
// gate whether a Study actually hands its Obs bundle to the components it
// builds. They initialise from the environment (PSC_METRICS truthy;
// PSC_TRACE_OUT non-empty) and benches override them from
// --metrics-out/--trace-out flags before any campaign starts. Flip them
// only while no campaign is running: shards read them concurrently. With
// both off, components hold a null Obs* and every instrumentation site is
// a single pointer test.
//
// The unit of collection is the Obs bundle: one Registry + one Tracer,
// owned by exactly one single-threaded writer (a Study — i.e. a shard),
// exactly like the shard's RNG and Simulation. The sharded runner merges
// bundles in shard order, which keeps snapshots and traces byte-identical
// for any PSC_THREADS.
#pragma once

namespace psc::obs {

/// Runtime switch for metric collection (default: PSC_METRICS env var is
/// set to something other than "" or "0").
bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Runtime switch for trace collection (default: PSC_TRACE_OUT env var is
/// non-empty).
bool trace_enabled();
void set_trace_enabled(bool on);

/// True when either collector is on — the cheap test a Study uses to
/// decide whether to wire its Obs bundle through at all.
inline bool enabled() { return metrics_enabled() || trace_enabled(); }

}  // namespace psc::obs
