// Protocol-layer microbenchmarks (google-benchmark): throughput of the
// wire-format building blocks the simulation rests on. The custom main
// peels the shared bench flags (--metrics-out= / --trace-out=) off argv
// before handing the rest to google-benchmark, and ends with the same
// consolidated BENCH line as every other binary.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "amf/amf0.h"
#include "analysis/reconstruct.h"
#include "hls/playlist.h"
#include "json/json.h"
#include "media/encoder.h"
#include "media/filler.h"
#include "mpegts/mpegts.h"
#include "rtmp/chunk.h"

using namespace psc;

namespace {

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
  hls::LivePlaylistWindow window(6, seconds(3.6));
  for (int i = 0; i < 10; ++i) {
    window.add_segment("seg_" + std::to_string(i) + ".ts", seconds(3.6));
  }
  const std::string text = hls::write_m3u8(window.snapshot());
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
