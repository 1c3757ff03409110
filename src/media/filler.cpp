#include "media/filler.h"

#include <algorithm>

namespace psc::media {

namespace {

// Filler LCG: jump the recurrence four steps at a time —
// state_{n+k} = A^k * state_n + C_k with precomputed (A^k, C_k) — so the
// serial multiply chain (~5 cycles/byte one-step) becomes four
// independent multiplies per iteration. The emitted byte stream is
// exactly the one-step sequence.
constexpr std::uint64_t kFillA = 6364136223846793005ull;
constexpr std::uint64_t kFillC = 1442695040888963407ull;
constexpr std::uint64_t kFillA2 = kFillA * kFillA;
constexpr std::uint64_t kFillC2 = kFillA * kFillC + kFillC;
constexpr std::uint64_t kFillA3 = kFillA2 * kFillA;
constexpr std::uint64_t kFillC3 = kFillA * kFillC2 + kFillC;
constexpr std::uint64_t kFillA4 = kFillA3 * kFillA;
constexpr std::uint64_t kFillC4 = kFillA * kFillC3 + kFillC;

/// Map one LCG state to a filler byte. Zero runs are injected (every
/// low-nibble-zero draw) so emulation prevention gets exercised.
inline std::uint8_t fill_emit(std::uint64_t s) {
  const auto b = static_cast<std::uint8_t>(s >> 33);
  return static_cast<std::uint8_t>((b & 0x0F) == 0 ? 0x00 : b);
}

/// Chunks end on a multiple of this many bytes, so a request a little
/// longer than an earlier one often finds its bytes already covered.
/// Larger grains waste budget on bytes no request reaches.
constexpr std::size_t kGrain = 64;

/// Feed the next n bytes of the stream at `state` to emit(byte), in order.
/// Callers keep their own state in locals: byte stores through a pointer
/// may alias any member, which would force a reload per byte.
template <typename Emit>
inline void generate(std::uint64_t& state, std::size_t n, Emit&& emit) {
  std::uint64_t s = state;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t s1 = s * kFillA + kFillC;
    const std::uint64_t s2 = s * kFillA2 + kFillC2;
    const std::uint64_t s3 = s * kFillA3 + kFillC3;
    const std::uint64_t s4 = s * kFillA4 + kFillC4;
    emit(fill_emit(s1));
    emit(fill_emit(s2));
    emit(fill_emit(s3));
    emit(fill_emit(s4));
    s = s4;
  }
  for (; i < n; ++i) {
    s = s * kFillA + kFillC;
    emit(fill_emit(s));
  }
  state = s;
}

/// Out of line, so that the per-byte loop calling it stays small enough
/// to be inlined whole.
[[gnu::noinline]] void record_escape(std::vector<std::uint32_t>& escapes,
                                     std::size_t at) {
  escapes.push_back(static_cast<std::uint32_t>(at));
}

}  // namespace

FillerCursor::FillerCursor(std::uint64_t seed)
    : state(seed * 0x9E3779B97F4A7C15ull + 1) {}

void FillerCursor::fill(std::uint8_t* p, std::size_t n) {
  generate(state, n, [&p](std::uint8_t b) { *p++ = b; });
}

void FillerCursor::append_escaped(Bytes& out, std::size_t n,
                                  std::vector<std::uint32_t>* escapes) {
  // Generate and escape in one pass through a stack buffer, so growing
  // `out` stays a bulk append. The filler's zero density (~1/16 bytes)
  // makes this per-byte loop beat memchr-style run skipping; escapes fire
  // once per few thousand bytes, and add at most one byte per three.
  constexpr std::size_t kStep = 6000;
  std::uint8_t buf[kStep + kStep / 3 + 8];
  std::uint64_t s = state;
  std::size_t z = zeros;
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kStep, n - done);
    std::uint8_t* p = buf;
    std::size_t inserted = 0;  // escape bytes in buf so far
    generate(s, m, [&](std::uint8_t b) {
      if (z >= 2 && b <= 0x03) [[unlikely]] {
        if (escapes != nullptr) {
          record_escape(*escapes, done + static_cast<std::size_t>(p - buf) -
                                      inserted);
        }
        *p++ = 0x03;
        ++inserted;
        z = 0;
      }
      *p++ = b;
      z = b == 0x00 ? z + 1 : 0;
    });
    out.insert(out.end(), buf, p);
    done += m;
  }
  state = s;
  zeros = z;
}

struct FillerTable::Chunk {
  std::size_t end = 0;                 // RBSP offset this chunk reaches
  FillerCursor after{0};               // generator state at `end`
  std::vector<std::uint32_t> escapes;  // chunk-relative, ascending
  Bytes bytes;                         // escaped form
  std::atomic<Chunk*> next{nullptr};

  std::size_t heap_bytes() const {
    return sizeof(Chunk) + bytes.capacity() +
           escapes.capacity() * sizeof(std::uint32_t);
  }
};

FillerTable::FillerTable(std::size_t budget_bytes, std::size_t seeds)
    : budget_(budget_bytes),
      seeds_(seeds),
      heads_(std::make_unique<std::atomic<Chunk*>[]>(seeds)) {}

FillerTable::~FillerTable() {
  for (std::size_t s = 0; s < seeds_; ++s) {
    Chunk* c = heads_[s].load(std::memory_order_relaxed);
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }
}

FillerTable& FillerTable::process() {
  static FillerTable table(kProcessBudgetBytes, kProcessSeeds);
  return table;
}

FillerTable::Chunk* FillerTable::extend(std::atomic<Chunk*>& link,
                                        const FillerCursor& at,
                                        std::size_t pos, std::size_t n) {
  const std::size_t end = (n + kGrain - 1) / kGrain * kGrain;
  // A chunk takes at least its unescaped size: skip the build when even
  // that does not fit.
  if (bytes_.load(std::memory_order_relaxed) + sizeof(Chunk) + (end - pos) >
      budget_) {
    return nullptr;
  }
  auto chunk = std::make_unique<Chunk>();
  chunk->end = end;
  chunk->after = at;
  chunk->bytes.reserve(end - pos + (end - pos) / 64 + 16);
  chunk->after.append_escaped(chunk->bytes, end - pos, &chunk->escapes);
  chunk->bytes.shrink_to_fit();
  chunk->escapes.shrink_to_fit();

  const std::uint64_t size = chunk->heap_bytes();
  std::uint64_t held = bytes_.load(std::memory_order_relaxed);
  do {
    if (held + size > budget_) return nullptr;
  } while (!bytes_.compare_exchange_weak(held, held + size,
                                         std::memory_order_relaxed));
  Chunk* expected = nullptr;
  if (link.compare_exchange_strong(expected, chunk.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    chunks_.fetch_add(1, std::memory_order_relaxed);
    return chunk.release();
  }
  // Another thread published a chunk here first. It holds the same
  // stream, so use it.
  bytes_.fetch_sub(size, std::memory_order_relaxed);
  lost_races_.fetch_add(1, std::memory_order_relaxed);
  return expected;
}

void FillerTable::append(Bytes& out, std::uint64_t seed, std::size_t n) {
  FillerCursor at(seed);
  std::size_t pos = 0;  // bytes [0, pos) of the stream appended so far
  if (seed < seeds_) {
    std::atomic<Chunk*>* link = &heads_[seed];
    while (pos < n) {
      Chunk* c = link->load(std::memory_order_acquire);
      if (c == nullptr) c = extend(*link, at, pos, n);
      if (c == nullptr) break;
      // This chunk starts at pos; copy its escaped form up to byte n.
      const std::size_t take = std::min(n, c->end) - pos;
      const auto escaped = static_cast<std::size_t>(
          std::lower_bound(c->escapes.begin(), c->escapes.end(), take) -
          c->escapes.begin());
      out.insert(out.end(), c->bytes.begin(),
                 c->bytes.begin() + static_cast<std::ptrdiff_t>(take + escaped));
      pos += take;
      at = c->after;
      link = &c->next;
    }
  }
  if (pos < n) {
    direct_bytes_.fetch_add(n - pos, std::memory_order_relaxed);
    at.append_escaped(out, n - pos);
  }
}

FillerTable::Stats FillerTable::stats() const {
  Stats s;
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.direct_bytes = direct_bytes_.load(std::memory_order_relaxed);
  s.lost_races = lost_races_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace psc::media
