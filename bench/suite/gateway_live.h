// gateway_live: a real loopback run against gateway::Gateway. The gateway
// turns poll_once on its own thread; one generator thread drives four
// client sockets (an RTMP publisher, two keep-alive HLS fetchers and a
// churn connection) on an open-loop schedule, then saturates the two
// fetchers in a closed loop.
#pragma once

#include "suite.h"

namespace psc::suite {

/// Open-loop segment GET rate across both fetch connections, requests/s.
/// Far below the ~35K/s closed-loop rate of a 4-core machine: at half of
/// it, a few ms of generator stall queue more than the gateway's 4 MiB
/// per-connection write cap and it closes the fetcher (README.md).
inline constexpr double kNominalRate = 1000;

Outcome run_gateway_workload(const Options& opts, Spans& spans,
                             bool setup_only, double* ready_s);

}  // namespace psc::suite
