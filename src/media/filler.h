// Slice filler: the deterministic pseudo-random "slice data" that pads
// every encoded H.264 slice to its rate-controlled size, and the
// process-wide table that generates each filler stream once.
//
// A filler stream is a pure function of its seed: an LCG byte sequence
// with injected zero runs, so that emulation prevention gets exercised.
// Escaping is a streaming transform, so the escaped (EBSP) form of the
// first n bytes is a prefix of the escaped form of any longer run. The
// encoder seeds each slice with its display index. Every broadcast in a
// process therefore asks for the same few thousand streams, each at a
// different length. FillerTable keeps the escaped prefix of each stream it
// has served, so a slice becomes a copy instead of a generate-and-escape
// pass. Bytes are identical with or without the table; the table only
// changes how fast they come out.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.h"

namespace psc::media {

/// Resumable generator for one filler stream: the LCG state after the
/// last byte produced, plus the emulation-prevention zero count.
struct FillerCursor {
  explicit FillerCursor(std::uint64_t seed);

  /// Write the next n raw (RBSP) filler bytes to p.
  void fill(std::uint8_t* p, std::size_t n);

  /// Append the escaped form of the next n filler bytes to `out`. With
  /// `escapes`, also record the index (counted from this call's first
  /// byte) of every byte that got an emulation-prevention byte before it.
  void append_escaped(Bytes& out, std::size_t n,
                      std::vector<std::uint32_t>* escapes = nullptr);

  std::uint64_t state;
  std::size_t zeros = 0;  // consecutive 0x00 bytes emitted so far
};

/// The escaped filler prefixes served so far, shared by every thread.
///
/// Each seed below `seeds` owns a chain of immutable chunks. Chunk k holds
/// the escaped bytes of RBSP range [end of chunk k-1, its end), the indices
/// that took an escape byte, and the cursor at its end. A request for n
/// bytes copies the covered prefix and appends one chunk to reach n. A
/// chunk is published with one compare-and-swap and never changes after
/// that, so readers take no lock. Once the byte budget is spent the table
/// stops growing, and the uncovered tail is generated from the last
/// chunk's cursor, as are seeds out of range. The output is the same in
/// every case.
class FillerTable {
 public:
  struct Stats {
    std::uint64_t chunks = 0;        // chunks held
    std::uint64_t bytes = 0;         // heap bytes held (budgeted)
    std::uint64_t direct_bytes = 0;  // bytes generated past the table
    std::uint64_t lost_races = 0;    // chunks built but discarded
  };

  /// Budget of process(). A paper-scale Fig. 3 campaign fills it early
  /// with the prefixes most slices use, and then copies over 98% of its
  /// 10 GB of filler from it.
  static constexpr std::size_t kProcessBudgetBytes = std::size_t{8} << 20;
  /// Seeds process() covers: about nine minutes of 30 fps video.
  static constexpr std::size_t kProcessSeeds = std::size_t{1} << 14;

  FillerTable(std::size_t budget_bytes, std::size_t seeds);
  ~FillerTable();
  FillerTable(const FillerTable&) = delete;
  FillerTable& operator=(const FillerTable&) = delete;

  /// The process-wide table the encoder uses.
  static FillerTable& process();

  /// Append the escaped form of filler bytes [0, n) of stream `seed` to
  /// `out`, starting from a clean escape state (no zero bytes before).
  void append(Bytes& out, std::uint64_t seed, std::size_t n);

  Stats stats() const;

 private:
  struct Chunk;

  /// Publish a chunk after `link` covering RBSP bytes [pos, >= n) from
  /// cursor `at`. Returns the chunk now at `link`, or nullptr when the
  /// budget does not allow a new one.
  Chunk* extend(std::atomic<Chunk*>& link, const FillerCursor& at,
                std::size_t pos, std::size_t n);

  std::size_t budget_;
  std::size_t seeds_;
  std::unique_ptr<std::atomic<Chunk*>[]> heads_;
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> direct_bytes_{0};
  std::atomic<std::uint64_t> lost_races_{0};
};

}  // namespace psc::media
