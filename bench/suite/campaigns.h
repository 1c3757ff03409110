// The three campaign workloads: paper_fig3, shared_faulted and
// flashcrowd_hls. Each times core::ShardedRunner::run_many from outside.
#pragma once

#include <string>

#include "suite.h"

namespace psc::suite {

bool is_campaign_workload(const std::string& name);

/// Set up, then (unless `setup_only`) measure for opts.seconds, check the
/// outputs and fill the metrics. `ready_s` receives the monotonic instant
/// set-up finished.
Outcome run_campaign_workload(const Options& opts, Spans& spans,
                              bool setup_only, double* ready_s);

}  // namespace psc::suite
