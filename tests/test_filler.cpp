// Slice filler tests: the shared FillerTable must hand out exactly the
// bytes of a one-step reference generator escaped by escape_ebsp, however
// requests are ordered, split across threads or cut short by the budget.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "media/encoder.h"
#include "media/filler.h"
#include "media/h264.h"

namespace psc::media {
namespace {

/// The filler stream as first specified: one LCG step per byte.
Bytes reference_rbsp(std::uint64_t seed, std::size_t n) {
  Bytes out(n);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::uint8_t& b : out) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto v = static_cast<std::uint8_t>(state >> 33);
    b = (v & 0x0F) == 0 ? 0x00 : v;
  }
  return out;
}

Bytes reference_escaped(std::uint64_t seed, std::size_t n) {
  return escape_ebsp(reference_rbsp(seed, n));
}

Bytes from_table(FillerTable& t, std::uint64_t seed, std::size_t n) {
  Bytes out;
  t.append(out, seed, n);
  return out;
}

TEST(FillerCursor, FillMatchesReference) {
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 1000u, 6001u}) {
    FillerCursor c(77);
    Bytes got(n);
    c.fill(got.data(), n);
    EXPECT_EQ(got, reference_rbsp(77, n)) << "n=" << n;
  }
}

TEST(FillerCursor, ResumesAcrossCalls) {
  // Escape state and LCG state both carry over a split at any point.
  const Bytes want = reference_escaped(5, 20000);
  for (std::size_t split : {1u, 2u, 63u, 6000u, 6001u, 13333u}) {
    FillerCursor c(5);
    Bytes got;
    c.append_escaped(got, split);
    c.append_escaped(got, 20000 - split);
    EXPECT_EQ(got, want) << "split=" << split;
  }
}

TEST(FillerTable, MatchesReferenceInAnyRequestOrder) {
  FillerTable table(std::size_t{1} << 20, 16);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t seed = rng() % 16;
    const std::size_t n = rng() % 3 == 0 ? rng() % 40000 : rng() % 700;
    ASSERT_EQ(from_table(table, seed, n), reference_escaped(seed, n))
        << "seed=" << seed << " n=" << n;
  }
  EXPECT_EQ(table.stats().direct_bytes, 0u);
  EXPECT_GT(table.stats().chunks, 16u);
}

TEST(FillerTable, GeneratesEachByteOnce) {
  FillerTable table(std::size_t{1} << 20, 4);
  from_table(table, 2, 100);  // chunk [0, 128)
  from_table(table, 2, 50);   // covered
  from_table(table, 2, 128);  // covered
  EXPECT_EQ(table.stats().chunks, 1u);
  from_table(table, 2, 1000);  // chunk [128, 1024)
  EXPECT_EQ(from_table(table, 2, 1024), reference_escaped(2, 1024));
  EXPECT_EQ(table.stats().chunks, 2u);
  EXPECT_EQ(table.stats().direct_bytes, 0u);
}

TEST(FillerTable, ZeroBudgetHoldsNothing) {
  FillerTable table(0, 8);
  EXPECT_EQ(from_table(table, 3, 5000), reference_escaped(3, 5000));
  EXPECT_EQ(table.stats().chunks, 0u);
  EXPECT_EQ(table.stats().bytes, 0u);
  EXPECT_EQ(table.stats().direct_bytes, 5000u);
}

TEST(FillerTable, BudgetBoundsHeldBytes) {
  const std::size_t budget = 16 << 10;
  FillerTable table(budget, 64);
  std::mt19937_64 rng(9);
  std::uint64_t asked = 0;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t seed = rng() % 64;
    const std::size_t n = rng() % 3000;
    asked += n;
    ASSERT_EQ(from_table(table, seed, n), reference_escaped(seed, n));
  }
  const FillerTable::Stats s = table.stats();
  EXPECT_LE(s.bytes, budget);
  EXPECT_GT(s.chunks, 0u);
  EXPECT_GT(s.direct_bytes, 0u);
  EXPECT_LT(s.direct_bytes, asked);
}

TEST(FillerTable, SeedsOutOfRangeAreGeneratedDirectly) {
  FillerTable table(std::size_t{1} << 20, 4);
  EXPECT_EQ(from_table(table, 4, 900), reference_escaped(4, 900));
  const std::uint64_t far = std::uint64_t{1} << 40;
  EXPECT_EQ(from_table(table, far, 900), reference_escaped(far, 900));
  EXPECT_EQ(table.stats().chunks, 0u);
  EXPECT_EQ(table.stats().direct_bytes, 1800u);
}

TEST(FillerTable, ConcurrentRequestsSeeOneStream) {
  FillerTable table(std::size_t{4} << 20, 8);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&table, &mismatches, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 300; ++i) {
        const std::uint64_t seed = rng() % 8;
        const std::size_t n = rng() % 9000;
        if (from_table(table, seed, n) != reference_escaped(seed, n)) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
  EXPECT_EQ(table.stats().direct_bytes, 0u);
}

TEST(Slice, AnnexBSliceMatchesMaterialisedNal) {
  // The encoder's table-backed route against make_slice_nal + annexb_wrap.
  const Sps sps;
  const Pps pps;
  const SliceHeader headers[] = {{FrameType::I, true, 0, 22},
                                 {FrameType::P, false, 7, 30},
                                 {FrameType::B, false, 8, 44}};
  for (const SliceHeader& hdr : headers) {
    for (std::size_t payload : {0u, 3u, 40u, 1337u, 70000u}) {
      for (std::uint64_t seed : {0u, 35u, 20000u}) {
        Bytes fused;
        append_annexb_slice(fused, hdr, sps, pps, payload, seed);
        EXPECT_EQ(fused,
                  annexb_wrap({make_slice_nal(hdr, sps, pps, payload, seed)}))
            << "payload=" << payload << " seed=" << seed;
      }
    }
  }
}

std::uint64_t fnv1a(std::uint64_t h, const Bytes& b) {
  for (std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t encoder_digest(VideoEncoder enc, int frames) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < frames;) {
    if (auto s = enc.next_frame()) {
      h = fnv1a(h, s->data);
      ++i;
    }
  }
  return h;
}

TEST(VideoEncoder, OutputBytesArePinned) {
  // Digests of the encoder output before the filler table existed: the
  // table may change how fast bytes are made, never which bytes.
  EXPECT_EQ(encoder_digest(VideoEncoder(VideoConfig{}, ContentModelConfig{},
                                        0.0, Rng(9)),
                           300),
            0x572fc69b67d70d98ull);
  VideoConfig big;
  big.gop = GopPattern::IOnly;
  big.target_bitrate = 4e6;
  ContentModelConfig sports;
  sports.content_class = ContentClass::Sports;
  EXPECT_EQ(encoder_digest(VideoEncoder(big, sports, 0.0, Rng(10)), 60),
            0x783a1127e55dbdb1ull);
}

}  // namespace
}  // namespace psc::media
