#include "layers.h"

#include <vector>

#include "analysis/reconstruct.h"
#include "analysis/stats.h"
#include "hls/segmenter.h"
#include "media/encoder.h"
#include "net/capture.h"
#include "rtmp/session.h"

namespace psc::suite {

namespace {

constexpr int kRepeats = 3;

/// Runs `fn` kRepeats times inside spans named `name`; median seconds.
template <typename Fn>
double timed(Spans& spans, const char* name, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < kRepeats; ++i) {
    auto scope = spans.scope(name);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return analysis::median(t);
}

}  // namespace

LayerCosts replay_layers(const media::VideoConfig& video, std::uint64_t seed,
                         double media_s, Spans& spans) {
  auto scope = spans.scope("layer_replay");
  LayerCosts c;
  const int frames = static_cast<int>(media_s * video.fps);

  // media: content model -> rate control -> H.264 access units.
  std::vector<media::MediaSample> samples;
  media::Sps sps;
  media::Pps pps;
  const double encode_s = timed(spans, "media.encode", [&] {
    media::VideoEncoder enc(video, media::ContentModelConfig{}, 100.0,
                            Rng(seed));
    sps = enc.sps();
    pps = enc.pps();
    samples.clear();
    samples.reserve(static_cast<std::size_t>(frames));
    for (int i = 0; i < frames; ++i) {
      if (auto s = enc.next_frame()) samples.push_back(std::move(*s));
    }
  });
  std::size_t media_bytes = 0;
  for (const media::MediaSample& s : samples) media_bytes += s.data.size();
  if (media_bytes == 0) return c;
  c.encode_ns_per_byte = encode_s * 1e9 / static_cast<double>(media_bytes);
  c.encode_s_per_media_s = encode_s / media_s;

  // mpegts (through the HLS segmenter, its only caller in the pipeline).
  std::vector<hls::Segment> segments;
  const double mux_s = timed(spans, "mpegts.mux", [&] {
    hls::Segmenter seg;
    segments.clear();
    for (const media::MediaSample& s : samples) {
      if (auto done = seg.push(s)) segments.push_back(std::move(*done));
    }
    if (auto done = seg.flush()) segments.push_back(std::move(*done));
  });
  std::size_t ts_bytes = 0;
  for (const hls::Segment& s : segments) ts_bytes += s.ts_data.size();
  c.mux_ns_per_byte = mux_s * 1e9 / static_cast<double>(ts_bytes);
  c.mux_s_per_segment = mux_s / static_cast<double>(segments.size());

  // rtmp: the origin's ServerSession chunks FLV-tagged samples toward a
  // viewer; the viewer's ClientSession reassembles them.
  net::Capture rtmp_capture;
  std::vector<Bytes> wire;
  std::size_t wire_bytes = 0;
  std::vector<double> writes;
  std::vector<double> reads;
  std::size_t delivered = 0;
  rtmp::ClientSession::Callbacks callbacks;
  callbacks.on_sample = [&](media::MediaSample) { ++delivered; };
  for (int rep = 0; rep < kRepeats; ++rep) {
    delivered = 0;
    rtmp::ClientSession client("live", "replay", 1, callbacks);
    rtmp::ServerSession server(2);
    net::Capture cap;
    for (int i = 0; i < 16 && !server.playing(); ++i) {
      if (client.has_output()) (void)server.on_input(client.take_output());
      if (server.has_output()) {
        Bytes b = server.take_output();
        cap.record_copy(time_at(0), b);
        (void)client.on_input(b);
      }
    }
    server.send_avc_config(sps, pps);
    wire.clear();
    wire.push_back(server.take_output());
    {
      auto s = spans.scope("rtmp.chunk_write");
      const double t0 = now_s();
      for (const media::MediaSample& smp : samples) {
        server.send_sample(smp);
        wire.push_back(server.take_output());
      }
      writes.push_back(now_s() - t0);
    }
    {
      auto s = spans.scope("rtmp.chunk_read");
      const double t0 = now_s();
      for (const Bytes& b : wire) (void)client.on_input(b);
      reads.push_back(now_s() - t0);
    }
    wire_bytes = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      wire_bytes += wire[i].size();
      const double at = 100.0 + (i == 0 ? 0.0 : to_s(samples[i - 1].dts)) +
                        0.2;
      cap.record(time_at(at), std::move(wire[i]));
    }
    rtmp_capture = std::move(cap);
  }
  c.chunk_write_ns_per_byte =
      analysis::median(writes) * 1e9 / static_cast<double>(wire_bytes);
  c.chunk_read_ns_per_byte =
      analysis::median(reads) * 1e9 / static_cast<double>(wire_bytes);
  if (delivered != samples.size()) {
    c.problem = "rtmp replay delivered " + std::to_string(delivered) +
                " of " + std::to_string(samples.size()) + " samples";
  }

  // analysis: offline reconstruction of both capture kinds.
  std::size_t frames_recovered = 0;
  const double rtmp_rec_s = timed(spans, "analysis.reconstruct_rtmp", [&] {
    auto a = analysis::reconstruct_rtmp(rtmp_capture);
    frames_recovered = a.ok() ? a.value().frames.size() : 0;
  });
  if (frames_recovered != samples.size()) {
    c.problem = "rtmp reconstruction recovered " +
                std::to_string(frames_recovered) + " of " +
                std::to_string(samples.size()) + " frames";
  }
  c.reconstruct_rtmp_ns_per_byte =
      rtmp_rec_s * 1e9 / static_cast<double>(rtmp_capture.total_bytes());
  net::Capture hls_capture;
  for (const hls::Segment& s : segments) {
    hls_capture.record(time_at(100.0 + to_s(s.start_dts)), s.ts_data);
  }
  const double hls_rec_s = timed(spans, "analysis.reconstruct_hls", [&] {
    (void)analysis::reconstruct_hls(hls_capture);
  });
  c.reconstruct_hls_ns_per_byte =
      hls_rec_s * 1e9 / static_cast<double>(hls_capture.total_bytes());
  return c;
}

}  // namespace psc::suite
