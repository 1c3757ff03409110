// psc_bench --compare A B: judge run set B against run set A with the
// bounds in BENCHMARK.json.
#pragma once

#include <string>

namespace psc::suite {

/// A and B are files holding psc_bench output (or run-script output):
/// every `RESULT {...}` line of an untraced run is one sample. For each
/// (workload, end-to-end metric) the medians are compared:
///   unresolved — either side's quartile spread exceeds the bound, unless
///                every B run is better (or worse) than every A run;
///   worse      — B's median is worse than A's by more than the bound;
///   better     — B's median is better than A's by more than the bound;
///   unchanged  — otherwise.
/// Prints one row per pair; returns 1 if any is worse, 2 on bad input.
int compare_runs(const std::string& a_path, const std::string& b_path,
                 const std::string& bench_path);

}  // namespace psc::suite
