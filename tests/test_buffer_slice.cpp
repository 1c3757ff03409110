// util::BufferSlice / util::BufferArena: ownership, aliasing and pool
// recycling semantics the zero-copy media path depends on.
#include "util/buffer.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/bytes.h"

namespace psc {
namespace {

using util::BufferArena;
using util::BufferSlice;

Bytes seq_bytes(std::size_t n, std::uint8_t base = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(base + i);
  }
  return b;
}

TEST(BufferSlice, AdoptedVectorIsReadableAndRefCounted) {
  BufferSlice s(seq_bytes(16));
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[15], 15);
  EXPECT_EQ(s.use_count(), 1u);
  BufferSlice t = s;
  EXPECT_EQ(s.use_count(), 2u);
  EXPECT_EQ(t.data(), s.data());  // shared, not copied
  t.reset();
  EXPECT_EQ(s.use_count(), 1u);
}

TEST(BufferSlice, EmptyAndMovedFromAreInert) {
  BufferSlice e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.use_count(), 0u);
  BufferSlice s(seq_bytes(4));
  BufferSlice m = std::move(s);
  EXPECT_EQ(s.use_count(), 0u);  // NOLINT: deliberate use-after-move probe
  EXPECT_EQ(m.size(), 4u);
}

TEST(BufferSlice, SubsliceAliasesParentBlock) {
  BufferSlice s(seq_bytes(32));
  BufferSlice sub = s.subslice(8, 16);
  EXPECT_EQ(sub.size(), 16u);
  EXPECT_EQ(sub[0], 8);
  EXPECT_EQ(sub.data(), s.data() + 8);  // same block, no copy
  EXPECT_EQ(s.use_count(), 2u);

  // The parent can be dropped; the sub-slice keeps the block alive.
  s.reset();
  EXPECT_EQ(sub.use_count(), 1u);
  EXPECT_EQ(sub[15], 23);

  // Out-of-range requests clamp instead of overflowing.
  EXPECT_EQ(sub.subslice(100, 5).size(), 0u);
  EXPECT_EQ(sub.subslice(10, 100).size(), 6u);
}

TEST(BufferSlice, CopyOfDetachesFromSource) {
  Bytes src = seq_bytes(8);
  BufferSlice s = BufferSlice::copy_of(src);
  src[0] = 0xFF;
  EXPECT_EQ(s[0], 0);  // deep copy: source mutation invisible
}

TEST(BufferArena, BufferRecyclesAfterLastRefDrops) {
  BufferArena arena;
  {
    Bytes b = arena.obtain(512);
    b.resize(512);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(i);
    }
    BufferSlice s1 = arena.adopt(std::move(b));
    BufferSlice s2 = s1;
    EXPECT_EQ(arena.stats().outstanding, 1u);
    s1.reset();
    EXPECT_EQ(arena.stats().outstanding, 1u);  // s2 still holds it
    s2.reset();
  }
  EXPECT_EQ(arena.stats().outstanding, 0u);
  EXPECT_EQ(arena.stats().blocks_released, 1u);

  // Next obtain/adopt must hit both pools, not the allocator.
  const auto before = arena.stats();
  Bytes again = arena.obtain(16);
  BufferSlice s3 = arena.adopt(std::move(again));
  const auto after = arena.stats();
  EXPECT_EQ(after.buffers_allocated, before.buffers_allocated);
  EXPECT_EQ(after.blocks_allocated, before.blocks_allocated);
  EXPECT_EQ(after.buffers_reused, before.buffers_reused + 1);
  EXPECT_EQ(after.blocks_reused, before.blocks_reused + 1);
}

TEST(BufferArena, SteadyStateLoopAllocatesOnce) {
  BufferArena arena;
  // Segmenter-style loop: obtain, fill, adopt, ship, drop — the second
  // and later iterations must be allocation-free.
  for (int i = 0; i < 50; ++i) {
    Bytes b = arena.obtain(0);
    EXPECT_TRUE(b.empty());  // pooled buffers come back cleared
    b.resize(1024, static_cast<std::uint8_t>(i));
    BufferSlice seg = arena.adopt(std::move(b));
    EXPECT_EQ(seg.size(), 1024u);
    EXPECT_EQ(seg[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(arena.stats().buffers_allocated, 1u);
  EXPECT_EQ(arena.stats().blocks_allocated, 1u);
  EXPECT_EQ(arena.stats().buffers_reused, 49u);
  EXPECT_EQ(arena.stats().slices_adopted, 50u);
}

void expect_same_stats(const BufferArena::Stats& a,
                       const BufferArena::Stats& b) {
  EXPECT_EQ(a.buffers_allocated, b.buffers_allocated);
  EXPECT_EQ(a.buffers_reused, b.buffers_reused);
  EXPECT_EQ(a.blocks_allocated, b.blocks_allocated);
  EXPECT_EQ(a.blocks_reused, b.blocks_reused);
  EXPECT_EQ(a.slices_adopted, b.slices_adopted);
  EXPECT_EQ(a.blocks_released, b.blocks_released);
  EXPECT_EQ(a.outstanding, b.outstanding);
  EXPECT_EQ(a.outstanding_peak, b.outstanding_peak);
  EXPECT_EQ(a.slice_retains, b.slice_retains);
}

/// Four 4 KiB segments adopted, three dropped back into the pool; the
/// first stays live and is returned.
BufferSlice pool_three(BufferArena& arena) {
  std::vector<BufferSlice> segs;
  for (int i = 0; i < 4; ++i) {
    Bytes b = arena.obtain(0);
    b.resize(4096, static_cast<std::uint8_t>(0x40 + i));
    segs.push_back(arena.adopt(std::move(b)));
  }
  return segs.front();
}

TEST(BufferArena, ReleasedPoolKeepsEntriesAndCounters) {
  BufferArena arena;
  BufferArena twin;  // the same traffic, never released
  const BufferSlice live = pool_three(arena);
  const BufferSlice twin_live = pool_three(twin);

  const BufferArena::Stats before = arena.stats();
  const std::uint64_t process_before =
      BufferArena::process_pooled_bytes_released();
  const std::size_t freed = arena.release_pooled_storage();
  EXPECT_GE(freed, 3u * 4096);
  EXPECT_GE(BufferArena::process_pooled_bytes_released(),
            process_before + freed);
  expect_same_stats(arena.stats(), before);
  EXPECT_EQ(arena.release_pooled_storage(), 0u);  // nothing left to free

  // The live slice's bytes are untouched.
  ASSERT_EQ(live.size(), 4096u);
  for (std::size_t i = 0; i < live.size(); ++i) ASSERT_EQ(live[i], 0x40);

  // The next obtain() is a pool hit with no storage behind it.
  Bytes b = arena.obtain(0);
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(arena.stats().buffers_reused, before.buffers_reused + 1);
  EXPECT_EQ(arena.stats().buffers_allocated, before.buffers_allocated);
  Bytes tb = twin.obtain(0);
  EXPECT_GE(tb.capacity(), 4096u);

  // Later adopt/release cycles count exactly as in the twin.
  for (Bytes* buf : {&b, &tb}) buf->resize(4096, 0x11);
  BufferSlice s = arena.adopt(std::move(b));
  BufferSlice ts = twin.adopt(std::move(tb));
  s.reset();
  ts.reset();
  for (BufferArena* a : {&arena, &twin}) {
    for (int i = 0; i < 6; ++i) {
      Bytes more = a->obtain(i % 2 == 0 ? 0 : 2048);
      more.resize(1000, 0x22);
      BufferSlice seg = a->adopt(std::move(more));
      BufferSlice copy = seg;
    }
  }
  expect_same_stats(arena.stats(), twin.stats());
  EXPECT_EQ(live[4095], 0x40);
  EXPECT_EQ(twin_live[0], 0x40);
}

TEST(BufferArena, AliasedSubslicesHoldTheBlockAcrossArenaDeath) {
  BufferSlice tail;
  {
    BufferArena arena;
    BufferSlice seg = arena.adopt(seq_bytes(64));
    tail = seg.subslice(32, 32);
  }
  // The arena is gone; the slice must still read valid data and release
  // cleanly through the allocator fallback.
  EXPECT_EQ(tail.size(), 32u);
  EXPECT_EQ(tail[0], 32);
  tail.reset();
}

TEST(BufferArena, CrossThreadReleaseIsSafe) {
  BufferArena arena;
  // Shard handoff shape: slices created on one thread, dropped on others.
  std::vector<BufferSlice> shared;
  for (int i = 0; i < 8; ++i) shared.push_back(arena.adopt(seq_bytes(128)));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, t] {
      for (std::size_t i = t; i < shared.size(); i += 4) {
        BufferSlice local = shared[i];  // retain
        EXPECT_EQ(local.size(), 128u);
        local.reset();
      }
    });
  }
  for (auto& th : threads) th.join();
  shared.clear();
  EXPECT_EQ(arena.stats().outstanding, 0u);
  EXPECT_GE(arena.stats().slice_retains, 8u);
}

TEST(BufferSlice, EqualityComparesContents) {
  BufferSlice a(seq_bytes(8));
  BufferSlice b(seq_bytes(8));
  BufferSlice c(seq_bytes(9));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a == seq_bytes(8));
}

}  // namespace
}  // namespace psc
