// Isolated layer replay for the traced run. The media, mpegts, rtmp and
// analysis layers run inside the simulation, where the benchmark cannot
// time them from outside; instead it replays each through its public
// functions on a stream from the workload's own encoder config and
// reports a per-byte cost. The traced run multiplies those costs by the
// volume its counters saw to estimate each layer's CPU seconds.
#pragma once

#include <cstdint>
#include <string>

#include "media/types.h"
#include "suite.h"

namespace psc::suite {

struct LayerCosts {
  double encode_ns_per_byte = 0;   // per encoded (Annex-B) byte
  double encode_s_per_media_s = 0;  // encoder CPU per second of media
  double mux_ns_per_byte = 0;       // per MPEG-TS output byte
  double mux_s_per_segment = 0;
  double chunk_write_ns_per_byte = 0;  // per RTMP chunk-stream byte
  double chunk_read_ns_per_byte = 0;
  double reconstruct_rtmp_ns_per_byte = 0;  // per captured byte
  double reconstruct_hls_ns_per_byte = 0;
  /// Non-empty when a replay step did not reproduce its input (the costs
  /// are then meaningless and the run fails).
  std::string problem;
};

/// Media seconds the replay encodes: enough for stable per-byte costs
/// (a few hundred ms of work), tiny at smoke scale.
inline double replay_media_s(const Options& opts) {
  return opts.smoke ? 6 : 300;
}

/// Encode `media_s` seconds with `video`, then segment/mux, RTMP-chunk
/// (server write, client read) and reconstruct the result. Each step runs
/// three times; the median is reported.
LayerCosts replay_layers(const media::VideoConfig& video, std::uint64_t seed,
                         double media_s, Spans& spans);

}  // namespace psc::suite
