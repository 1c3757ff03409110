// Live-peer fuzz oracle: replay mutated wire-format corpus entries over
// real loopback sockets against an in-process gateway.
//
// The sans-io fuzz targets (psc_fuzz) prove the parsers survive hostile
// bytes; this oracle proves the *hosted* stack does — epoll loop, buffered
// writers, MediaOrigin sessions and the HTTP parser all wired together,
// with the kernel free to fragment the stream however it likes. The
// contract is no-crash / clean-error: every iteration must leave the
// gateway alive (a /healthz probe answers 200) and with its connection
// count back at baseline. Mutation is seed-deterministic (the digest on
// the FUZZ line witnesses it); only TCP arrival boundaries vary run to
// run, which is exactly the point of the exercise. A last property floods
// a handshaken RTMP connection with unfinished chunk streams: the
// reader's reassembly budget must cut it off with one counted protocol
// error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace psc::gateway {

struct OracleOptions {
  std::uint64_t iters = 300;
  std::uint64_t seed = 1;
  /// Checked-in seed corpus (<corpus_dir>/<target>/*.bin); empty = only
  /// the targets' generated corpora.
  std::string corpus_dir;
  /// Mutants are clamped to this size (bounds oracle wall time).
  std::size_t max_input_bytes = 64 * 1024;
};

/// Runs the oracle; prints one FUZZ line to `out`. Returns 0 on success,
/// 1 on a contract violation (details printed).
int run_gateway_oracle(const OracleOptions& opts, std::ostream& out);

}  // namespace psc::gateway
