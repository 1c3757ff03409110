// Fuzz target registry for the wire-format torture lab.
//
// A FuzzTarget wraps one wire-format decoder behind the harness contract:
//
//   * execute(bytes) must never crash, hang, or trip a sanitizer, no
//     matter the input. Malformed input must surface as a clean
//     util::Result / Status error (non-empty machine code); a contract
//     violation (dirty error, broken invariant on accepted input) is
//     returned as a Status error and treated as a fuzz finding.
//   * corpus() returns valid seed inputs produced by the repository's own
//     encoders, so mutation starts from realistic wire bytes instead of
//     random noise.
//   * roundtrip(seed), when present, checks the differential property for
//     the format (mux->demux->mux byte-identity and friends) on a freshly
//     generated valid stream derived from `seed`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace psc::testing {

struct FuzzTarget {
  std::string name;
  std::string description;
  std::function<std::vector<Bytes>()> corpus;
  std::function<Status(BytesView)> execute;
  /// Optional: seed-derived round-trip differential property.
  std::function<Status(std::uint64_t)> roundtrip;
};

/// Global, explicitly-populated registry. Targets are stored in
/// registration order, which is fixed by register_builtin_targets(), so
/// `--target=all` walks them in a deterministic order.
class TargetRegistry {
 public:
  static TargetRegistry& instance();

  void add(FuzzTarget target);
  const FuzzTarget* find(const std::string& name) const;
  const std::vector<FuzzTarget>& targets() const { return targets_; }

 private:
  std::vector<FuzzTarget> targets_;
};

/// Registers every wire-format target (idempotent).
void register_builtin_targets();

/// An RTMP chunk stream, as sent after the handshake, that sets the chunk
/// size to `chunk_size`, then opens chunk streams 3, 4, ... `streams` of
/// them, each with the first chunk of a `message_length`-byte video
/// message that is never finished: the reassembly-exhaustion probe that a
/// ChunkReader's reassembly budget must stop.
Bytes rtmp_chunk_stream_flood(std::size_t streams, std::uint32_t chunk_size,
                              std::uint32_t message_length);

/// FNV-1a 64-bit, used for run digests and reproducer file names.
std::uint64_t fnv1a(BytesView data, std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace psc::testing
