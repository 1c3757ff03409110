// Steady-state heap budget of the per-sample media writers. The simulator
// writes every sample's wire bytes once per hop; an allocation that
// creeps back into one of these writers costs one malloc per sample per
// viewer. Counted by the operator new replacements of bench/heap_count.h,
// which this file brings into its own binary, psc_alloc_tests (see
// tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <vector>

#include "heap_count.h"
#include "media/aac.h"
#include "media/encoder.h"
#include "mpegts/mpegts.h"
#include "rtmp/session.h"

namespace psc {
namespace {

using bench::heap_allocs;

std::vector<media::MediaSample> stream(int n) {
  media::BroadcastSource src(media::VideoConfig{}, media::AudioConfig{},
                             media::ContentModelConfig{}, 0.0, Rng(3));
  std::vector<media::MediaSample> out;
  for (int i = 0; i < n; ++i) out.push_back(src.next_sample());
  return out;
}

TEST(AllocBudget, TsMuxAllocatesNothingPerSample) {
  const std::vector<media::MediaSample> samples = stream(400);
  mpegts::TsMuxer mux;
  ByteWriter out;
  // Warm-up: the output reaches its largest sample and the continuity
  // table learns every PID.
  for (const media::MediaSample& s : samples) {
    out.clear();
    mux.mux_sample_into(out, s);
  }
  const std::uint64_t before = heap_allocs();
  for (const media::MediaSample& s : samples) {
    out.clear();
    mux.mux_sample_into(out, s);
  }
  EXPECT_EQ(heap_allocs() - before, 0u);
}

TEST(AllocBudget, AdtsFrameIsOneAllocation) {
  media::AacEncoder enc(media::AudioConfig{}, 5);
  (void)enc.next_frame();
  constexpr int kFrames = 200;
  const std::uint64_t before = heap_allocs();
  for (int i = 0; i < kFrames; ++i) {
    const media::MediaSample s = enc.next_frame();
    ASSERT_GT(s.data.size(), 7u);
  }
  EXPECT_EQ(heap_allocs() - before, static_cast<std::uint64_t>(kFrames));
}

TEST(AllocBudget, RtmpSendIsAtMostOneAllocationPerSample) {
  const std::vector<media::MediaSample> samples = stream(400);
  rtmp::ClientSession client("live", "budget", 1, {});
  rtmp::ServerSession server(2);
  for (int i = 0; i < 16 && !server.playing(); ++i) {
    if (client.has_output()) (void)server.on_input(client.take_output());
    if (server.has_output()) (void)client.on_input(server.take_output());
  }
  ASSERT_TRUE(server.playing());
  // Warm-up: the writer's scratch lists reach their steady size.
  for (const media::MediaSample& s : samples) {
    server.send_sample(s);
    (void)server.take_output();
  }
  // One allocation per sample is the output buffer handed to the link.
  std::uint64_t bytes = 0;
  const std::uint64_t before = heap_allocs();
  for (const media::MediaSample& s : samples) {
    server.send_sample(s);
    bytes += server.take_output().size();
  }
  EXPECT_LE(heap_allocs() - before, samples.size());
  EXPECT_GT(bytes, 0u);
}

TEST(AllocBudget, RtmpReceiveIsAtMostOneAllocationPerSample) {
  const std::vector<media::MediaSample> samples = stream(400);
  std::size_t received = 0;
  rtmp::ClientSession::Callbacks cbs;
  cbs.on_sample = [&received](media::MediaSample) { ++received; };
  rtmp::ClientSession client("live", "budget", 1, std::move(cbs));
  rtmp::ServerSession server(2);
  for (int i = 0; i < 16 && !client.playing(); ++i) {
    if (client.has_output()) (void)server.on_input(client.take_output());
    if (server.has_output()) (void)client.on_input(server.take_output());
  }
  ASSERT_TRUE(client.playing());
  // Warm-up: the reader's chunk-stream table and message queues reach
  // their steady size.
  for (const media::MediaSample& s : samples) {
    server.send_sample(s);
    ASSERT_TRUE(client.on_input(server.take_output()).ok());
  }
  // One allocation per sample is the message's reassembly buffer, which
  // becomes the delivered sample's data. Only on_input is counted.
  std::uint64_t allocs = 0;
  received = 0;
  for (const media::MediaSample& s : samples) {
    server.send_sample(s);
    const Bytes wire = server.take_output();
    const std::uint64_t before = heap_allocs();
    ASSERT_TRUE(client.on_input(wire).ok());
    allocs += heap_allocs() - before;
  }
  EXPECT_EQ(received, samples.size());
  EXPECT_LE(allocs, samples.size());
}

}  // namespace
}  // namespace psc
