// Protocol-layer microbenchmarks (google-benchmark): throughput of the
// wire-format building blocks the simulation rests on. The custom main
// peels the shared bench flags (--metrics-out= / --trace-out=) off argv
// before handing the rest to google-benchmark, and ends with the same
// consolidated BENCH line as every other binary.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench_common.h"
#include "heap_count.h"

#include "amf/amf0.h"
#include "analysis/reconstruct.h"
#include "hls/edge_log.h"
#include "hls/playlist.h"
#include "hls/segmenter.h"
#include "json/json.h"
#include "media/aac.h"
#include "media/encoder.h"
#include "media/filler.h"
#include "mpegts/mpegts.h"
#include "rtmp/chunk.h"
#include "rtmp/session.h"

using namespace psc;

namespace {

using bench::heap_allocs;

/// 20 s of one broadcast (video + audio, DTS order), the per-sample
/// writers' input.
const std::vector<media::MediaSample>& broadcast_samples() {
  static const std::vector<media::MediaSample> samples = [] {
    media::BroadcastSource src(media::VideoConfig{}, media::AudioConfig{},
                               media::ContentModelConfig{}, 0.0, Rng(4));
    std::vector<media::MediaSample> out;
    for (int i = 0; i < 1460; ++i) out.push_back(src.next_sample());
    return out;
  }();
  return samples;
}

/// Reports a per-sample writer's cost: the heap allocations made inside
/// the timed loop per sample, and wall time per output byte.
void report_per_sample(benchmark::State& state, std::uint64_t allocs,
                       std::uint64_t bytes) {
  state.counters["allocs_per_sample"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  // An inverted byte rate: seconds per byte (printed as e.g. 470ps).
  state.counters["time_per_byte"] = benchmark::Counter(
      static_cast<double>(bytes),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

media::MediaSample make_video_sample(std::size_t size) {
  media::MediaSample s;
  s.kind = media::SampleKind::Video;
  s.dts = seconds(1.0);
  s.pts = seconds(1.033);
  s.keyframe = true;
  s.data.assign(size, 0x5C);
  return s;
}

void BM_RtmpChunkWrite(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  rtmp::ChunkWriter writer(4096);
  rtmp::Message msg;
  msg.type = rtmp::MessageType::Video;
  msg.stream_id = 1;
  msg.payload.assign(size, 0xAB);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    ByteWriter out;
    msg.timestamp_ms += 33;
    writer.write(out, rtmp::kCsidVideo, msg);
    bytes += out.size();
    benchmark::DoNotOptimize(out.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RtmpChunkWrite)->Arg(1500)->Arg(16384);

void BM_RtmpChunkParse(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  rtmp::ChunkWriter writer(4096);
  ByteWriter out;
  rtmp::Message msg;
  msg.type = rtmp::MessageType::Video;
  msg.stream_id = 1;
  msg.payload.assign(size, 0xAB);
  for (int i = 0; i < 64; ++i) {
    msg.timestamp_ms += 33;
    writer.write(out, rtmp::kCsidVideo, msg);
  }
  const Bytes wire = out.take();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    rtmp::ChunkReader reader;
    benchmark::DoNotOptimize(reader.push(wire).ok());
    benchmark::DoNotOptimize(reader.take_messages());
    bytes += wire.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RtmpChunkParse)->Arg(1500)->Arg(16384);

void BM_TsMux(benchmark::State& state) {
  mpegts::TsMuxer mux;
  const media::MediaSample sample = make_video_sample(4096);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const Bytes pkts = mux.mux_sample(sample);
    bytes += pkts.size();
    benchmark::DoNotOptimize(pkts.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TsMux);

// One sample of a broadcast through the origin's RTMP writer to one
// player: FLV tag, AVCC re-framing and chunking fused, then the output
// handed off as the link would take it. Bytes are wire bytes.
void BM_RtmpSendSample(benchmark::State& state) {
  const auto& samples = broadcast_samples();
  rtmp::ClientSession client("live", "bench", 1, {});
  rtmp::ServerSession server(2);
  for (int i = 0; i < 16 && !server.playing(); ++i) {
    if (client.has_output()) (void)server.on_input(client.take_output());
    if (server.has_output()) (void)client.on_input(server.take_output());
  }
  for (const media::MediaSample& s : samples) {  // warm the scratch lists
    server.send_sample(s);
    (void)server.take_output();
  }
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  const std::uint64_t before = heap_allocs();
  for (auto _ : state) {
    server.send_sample(samples[i++ % samples.size()]);
    const Bytes out = server.take_output();
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  report_per_sample(state, heap_allocs() - before, bytes);
}
BENCHMARK(BM_RtmpSendSample);

// One sample of a broadcast through the player's RTMP reader: chunk
// reassembly, FLV tag parse and the sample handed to the callback. The
// origin's wire bytes are written up front; bytes are wire bytes.
void BM_RtmpReceiveSample(benchmark::State& state) {
  const auto& samples = broadcast_samples();
  // The sessions are deterministic, so a new player with the same seed
  // that is fed the origin's recorded bytes replays the same exchange:
  // `setup` takes it to Playing and one pass of samples warms its reader,
  // then the timed loop feeds a second pass.
  rtmp::ClientSession client("live", "bench", 1, {});
  rtmp::ServerSession server(2);
  Bytes setup;
  for (int i = 0; i < 16 && !client.playing(); ++i) {
    if (client.has_output()) (void)server.on_input(client.take_output());
    if (server.has_output()) {
      const Bytes b = server.take_output();
      setup.insert(setup.end(), b.begin(), b.end());
      (void)client.on_input(b);
    }
  }
  std::vector<Bytes> warm;
  std::vector<Bytes> wire;
  for (std::vector<Bytes>* pass : {&warm, &wire}) {
    for (const media::MediaSample& s : samples) {
      server.send_sample(s);
      pass->push_back(server.take_output());
    }
  }
  rtmp::ClientSession::Callbacks cbs;
  cbs.on_sample = [](media::MediaSample s) {
    benchmark::DoNotOptimize(s.data.data());
  };
  const auto fresh_player = [&] {
    auto p = std::make_unique<rtmp::ClientSession>("live", "bench", 1, cbs);
    (void)p->on_input(setup);
    for (const Bytes& b : warm) (void)p->on_input(b);
    (void)p->take_output();
    return p;
  };
  std::unique_ptr<rtmp::ClientSession> player = fresh_player();
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    if (i == wire.size()) {
      state.PauseTiming();
      player = fresh_player();
      i = 0;
      state.ResumeTiming();
    }
    const std::uint64_t before = heap_allocs();
    (void)player->on_input(wire[i]);
    allocs += heap_allocs() - before;
    bytes += wire[i++].size();
  }
  report_per_sample(state, allocs, bytes);
}
BENCHMARK(BM_RtmpReceiveSample);

// One sample of a broadcast into the segmenter's open TS buffer (PES
// header plus 188-byte packets). Bytes are TS bytes.
void BM_TsMuxSample(benchmark::State& state) {
  const auto& samples = broadcast_samples();
  mpegts::TsMuxer mux;
  ByteWriter out;
  for (const media::MediaSample& s : samples) {  // size the buffer
    out.clear();
    mux.mux_sample_into(out, s);
  }
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  const std::uint64_t before = heap_allocs();
  for (auto _ : state) {
    out.clear();
    mux.mux_sample_into(out, samples[i++ % samples.size()]);
    bytes += out.size();
    benchmark::DoNotOptimize(out.bytes().data());
    benchmark::ClobberMemory();
  }
  report_per_sample(state, heap_allocs() - before, bytes);
}
BENCHMARK(BM_TsMuxSample);

// One AAC frame: VBR size draw, ADTS header and filler payload.
void BM_AdtsFrame(benchmark::State& state) {
  media::AacEncoder enc(media::AudioConfig{}, 6);
  std::uint64_t bytes = 0;
  const std::uint64_t before = heap_allocs();
  for (auto _ : state) {
    const media::MediaSample s = enc.next_frame();
    bytes += s.data.size();
    benchmark::DoNotOptimize(s.data.data());
  }
  report_per_sample(state, heap_allocs() - before, bytes);
}
BENCHMARK(BM_AdtsFrame);

void BM_TsDemux(benchmark::State& state) {
  mpegts::TsMuxer mux;
  Bytes wire = mux.psi();
  for (int i = 0; i < 32; ++i) {
    const Bytes pkts = mux.mux_sample(make_video_sample(4096));
    wire.insert(wire.end(), pkts.begin(), pkts.end());
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    mpegts::TsDemuxer demux;
    benchmark::DoNotOptimize(demux.push(wire).ok());
    demux.flush();
    benchmark::DoNotOptimize(demux.take_samples());
    bytes += wire.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TsDemux);

void BM_H264EncodeFrame(benchmark::State& state) {
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(1));
  std::uint64_t frames = 0;
  for (auto _ : state) {
    auto s = enc.next_frame();
    benchmark::DoNotOptimize(s);
    ++frames;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_H264EncodeFrame);

// The filler of a 4 KiB slice: generated and escaped on every call (arg 0,
// a table with no budget) or copied from a warm FillerTable (arg 1).
void BM_SliceFiller(benchmark::State& state) {
  constexpr std::uint64_t kSeeds = 64;
  media::FillerTable table(state.range(0) != 0 ? std::size_t{1} << 20 : 0,
                           kSeeds);
  Bytes out;
  std::uint64_t seed = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    table.append(out, seed++ % kSeeds, 4096);
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SliceFiller)->Arg(0)->Arg(1);

void BM_SliceHeaderParse(benchmark::State& state) {
  media::Sps sps;
  media::Pps pps;
  media::SliceHeader hdr;
  hdr.qp = 30;
  const media::NalUnit nal = media::make_slice_nal(hdr, sps, pps, 1200, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::parse_slice_header(nal, sps, pps));
  }
}
BENCHMARK(BM_SliceHeaderParse);

/// A viewer's two captures of the same 60 s of one broadcast: RTMP
/// (handshake and control messages, then each sample's chunks as one
/// packet, 200 ms after its DTS) and HLS (each 3.6 s segment as one
/// packet).
struct MinuteCaptures {
  net::Capture rtmp;
  net::Capture hls;
};

const MinuteCaptures& minute_captures() {
  static const MinuteCaptures caps = [] {
    MinuteCaptures c;
    media::BroadcastSource src(media::VideoConfig{}, media::AudioConfig{},
                               media::ContentModelConfig{}, 0.0, Rng(8));
    rtmp::ClientSession client("live", "bench", 1, {});
    rtmp::ServerSession server(2);
    for (int i = 0; i < 16 && !client.playing(); ++i) {
      if (client.has_output()) (void)server.on_input(client.take_output());
      if (server.has_output()) {
        Bytes b = server.take_output();
        c.rtmp.record_copy(time_at(0.1), b);
        (void)client.on_input(b);
      }
    }
    server.send_avc_config(src.video().sps(), src.video().pps());
    c.rtmp.record(time_at(0.2), server.take_output());
    hls::Segmenter segmenter;
    for (;;) {
      const media::MediaSample s = src.next_sample();
      if (to_s(s.dts) >= 60.0) break;
      server.send_sample(s);
      c.rtmp.record(time_at(to_s(s.dts) + 0.2), server.take_output());
      if (auto seg = segmenter.push(s)) {
        c.hls.record(time_at(to_s(s.dts) + 1.0), seg->ts_data);
      }
    }
    if (auto seg = segmenter.flush()) c.hls.record(time_at(61.0), seg->ts_data);
    return c;
  }();
  return caps;
}

/// Reconstruct `cap` once per iteration; reports `ns_per_byte` of
/// captured bytes.
template <typename Reconstruct>
void run_reconstruct(benchmark::State& state, const net::Capture& cap,
                     Reconstruct reconstruct) {
  std::uint64_t bytes = 0;
  std::chrono::nanoseconds busy{0};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto a = reconstruct(cap);
    busy += std::chrono::steady_clock::now() - t0;
    if (!a.ok() || a.value().frames.empty()) {
      state.SkipWithError("reconstruction recovered no frames");
      return;
    }
    benchmark::DoNotOptimize(a.value().frames.data());
    bytes += cap.total_bytes();
  }
  state.counters["ns_per_byte"] =
      static_cast<double>(busy.count()) / static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void BM_ReconstructRtmp(benchmark::State& state) {
  run_reconstruct(state, minute_captures().rtmp, analysis::reconstruct_rtmp);
}
BENCHMARK(BM_ReconstructRtmp);

void BM_ReconstructHls(benchmark::State& state) {
  run_reconstruct(state, minute_captures().hls, analysis::reconstruct_hls);
}
BENCHMARK(BM_ReconstructHls);

void BM_JsonParse(benchmark::State& state) {
  json::Object inner;
  inner["id"] = "abcdefghijklm";
  inner["n_watching"] = 42;
  inner["ip_lat"] = 60.19;
  inner["status"] = "come chat";
  json::Array arr;
  for (int i = 0; i < 60; ++i) arr.push_back(json::Value(inner));
  json::Object root;
  root["broadcasts"] = json::Value(std::move(arr));
  const std::string doc = json::Value(std::move(root)).dump();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::parse(doc));
    bytes += doc.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonParse);

void BM_Amf0Roundtrip(benchmark::State& state) {
  amf::Object obj{{"app", amf::Value("live")},
                  {"tcUrl", amf::Value("rtmp://vidman.example/live")},
                  {"audioCodecs", amf::Value(3191.0)}};
  const std::vector<amf::Value> values = {amf::Value("connect"),
                                          amf::Value(1.0), amf::Value(obj)};
  for (auto _ : state) {
    const Bytes wire = amf::encode_all(values);
    benchmark::DoNotOptimize(amf::decode_all(wire));
  }
}
BENCHMARK(BM_Amf0Roundtrip);

void BM_M3u8Roundtrip(benchmark::State& state) {
  hls::EdgeLog log(0, seconds(3.6), 6);
  for (std::uint64_t i = 0; i < 10; ++i) {
    hls::Segment seg;
    seg.sequence = i;
    seg.duration = seconds(3.6);
    log.append(std::move(seg), TimePoint{});
  }
  const std::string text = hls::write_m3u8(log.live(TimePoint{}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::parse_m3u8(text));
  }
}
BENCHMARK(BM_M3u8Roundtrip);

void BM_EbspEscape(benchmark::State& state) {
  Bytes rbsp;
  std::uint64_t s = 1;
  for (int i = 0; i < 16384; ++i) {
    s = s * 6364136223846793005ull + 1;
    const auto b = static_cast<std::uint8_t>(s >> 33);
    rbsp.push_back(b % 5 == 0 ? 0 : b);
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const Bytes ebsp = media::escape_ebsp(rbsp);
    benchmark::DoNotOptimize(ebsp.data());
    bytes += rbsp.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EbspEscape);

}  // namespace

int main(int argc, char** argv) {
  psc::bench::Reporter reporter("micro_protocols", argc, argv);
  const psc::bench::WallTimer timer;
  std::vector<char*> bm_args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && psc::bench::Reporter::owns_flag(argv[i])) continue;
    bm_args.push_back(argv[i]);
  }
  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  reporter.finish(timer.elapsed_s());
  return 0;
}
