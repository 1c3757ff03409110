// Arena-backed, ref-counted immutable byte buffers.
//
// The media path produces each segment / RTMP chunk batch exactly once and
// then fans it out to many consumers (origin backlog, edge cache, link
// queues, client capture, reconstructor). BufferSlice gives every hop a
// cheap view — shared ownership of one block plus an (offset, length)
// window — so wall-clock and allocator pressure scale with *segments*,
// not *viewers × segment bytes*.
//
// A BufferArena recycles both the block headers and the underlying vector
// capacity: a segment buffer released by the last viewer is handed back to
// the muxer for the next segment instead of going through the allocator.
// Arenas are owned per Study shard, so recycling is deterministic and the
// counters below fold into the metric registry byte-identically across
// thread counts.
//
// Thread-safety: the refcount is atomic and the arena pools are
// mutex-guarded, so slices may be dropped from any thread; everything else
// about a slice is immutable after construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace psc::util {

class BufferArena;

namespace detail {

struct ArenaCore;

struct BufferBlock {
  std::atomic<std::uint32_t> refs{1};
  std::shared_ptr<ArenaCore> core;  // null = plain heap block
  Bytes data;
};

void release_block(BufferBlock* b);

/// Shared state between an arena and its outstanding blocks. It outlives
/// the BufferArena handle itself, so a block released after the arena is
/// gone falls back to the allocator instead of touching freed memory.
struct ArenaCore {
  std::mutex mu;
  bool closed = false;
  std::vector<BufferBlock*> free_blocks;  // empty headers awaiting reuse
  std::vector<Bytes> free_buffers;        // capacity-retaining vector pool

  // --- accounting (guarded by mu except `retains`) ---
  std::uint64_t buffers_allocated = 0;  // fresh vector allocations
  std::uint64_t buffers_reused = 0;     // pool hits (see Stats)
  std::uint64_t blocks_allocated = 0;   // fresh header allocations
  std::uint64_t blocks_reused = 0;
  std::uint64_t slices_adopted = 0;
  std::uint64_t blocks_released = 0;  // last ref dropped
  std::uint64_t outstanding = 0;
  std::uint64_t outstanding_peak = 0;
  // Refcount churn on arena-backed blocks: one tick per slice copy.
  std::atomic<std::uint64_t> retains{0};

  ~ArenaCore() {
    for (BufferBlock* b : free_blocks) delete b;
  }
};

}  // namespace detail

/// Immutable shared view of a byte range. Copying a slice bumps a
/// refcount; the underlying block is freed (or returned to its arena)
/// when the last slice referencing it is dropped.
class BufferSlice {
 public:
  BufferSlice() = default;

  /// Adopt an owned vector (no arena). Implicit so call sites that used
  /// to hand a Bytes by value keep working; the vector is moved, never
  /// copied.
  BufferSlice(Bytes&& data)  // NOLINT: intentional implicit adoption
      : BufferSlice(data.empty() ? nullptr : adopt_block(std::move(data))) {}

  /// Deep-copy a view into a fresh block.
  static BufferSlice copy_of(BytesView data) {
    return BufferSlice(Bytes(data.begin(), data.end()));
  }

  BufferSlice(const BufferSlice& other) noexcept
      : b_(other.b_), off_(other.off_), len_(other.len_) {
    if (b_ != nullptr) {
      b_->refs.fetch_add(1, std::memory_order_relaxed);
      if (b_->core) {
        b_->core->retains.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  BufferSlice(BufferSlice&& other) noexcept
      : b_(other.b_), off_(other.off_), len_(other.len_) {
    other.b_ = nullptr;
    other.off_ = other.len_ = 0;
  }
  BufferSlice& operator=(const BufferSlice& other) noexcept {
    BufferSlice tmp(other);
    swap(tmp);
    return *this;
  }
  BufferSlice& operator=(BufferSlice&& other) noexcept {
    if (this != &other) {
      reset();
      b_ = other.b_;
      off_ = other.off_;
      len_ = other.len_;
      other.b_ = nullptr;
      other.off_ = other.len_ = 0;
    }
    return *this;
  }
  ~BufferSlice() { reset(); }

  void swap(BufferSlice& other) noexcept {
    std::swap(b_, other.b_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

  void reset() {
    if (b_ != nullptr &&
        b_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      detail::release_block(b_);
    }
    b_ = nullptr;
    off_ = len_ = 0;
  }

  const std::uint8_t* data() const {
    return b_ == nullptr ? nullptr : b_->data.data() + off_;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  BytesView view() const { return BytesView(data(), len_); }
  operator BytesView() const { return view(); }  // NOLINT: by design

  /// Aliasing sub-view sharing the same block (refcount bump, no copy).
  BufferSlice subslice(std::size_t off, std::size_t len) const {
    if (off > len_) off = len_;
    if (len > len_ - off) len = len_ - off;
    BufferSlice s(*this);
    s.off_ += off;
    s.len_ = len;
    return s;
  }

  /// Materialise an owned vector (for callers that genuinely need one).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Number of slices currently sharing this block (diagnostic).
  std::uint32_t use_count() const {
    return b_ == nullptr ? 0 : b_->refs.load(std::memory_order_relaxed);
  }

 private:
  friend class BufferArena;
  explicit BufferSlice(detail::BufferBlock* b)
      : b_(b), off_(0), len_(b == nullptr ? 0 : b->data.size()) {}

  static detail::BufferBlock* adopt_block(Bytes&& data);

  detail::BufferBlock* b_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

inline bool operator==(const BufferSlice& a, const BufferSlice& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
inline bool operator==(const BufferSlice& a, const Bytes& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
inline bool operator==(const Bytes& a, const BufferSlice& b) { return b == a; }

/// Block/buffer recycler for one deterministic domain (a Study shard).
/// obtain() hands out capacity-retaining vectors for writers; adopt()
/// wraps the finished buffer in a slice whose release feeds both pools.
class BufferArena {
 public:
  BufferArena() : core_(std::make_shared<detail::ArenaCore>()) {}
  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;
  ~BufferArena();

  /// A cleared vector, reusing pooled capacity when available.
  Bytes obtain(std::size_t reserve_hint = 0);

  /// Wrap `data` in a ref-counted slice whose block recycles through
  /// this arena when the last reference drops.
  BufferSlice adopt(Bytes&& data);

  /// Free the storage of every pooled buffer but keep the pool entries.
  /// A parked owner (a shard waiting at an epoch barrier) hands its
  /// memory back this way, while every later obtain()/adopt()/release
  /// takes the same pool branch as before: stats() and all it feeds do
  /// not move. An entry freed here is handed out by obtain() with
  /// capacity 0 (or `reserve_hint`) and grows through the allocator.
  /// Returns the bytes freed; they also count into
  /// process_pooled_bytes_released().
  std::size_t release_pooled_storage();

  /// Bytes freed by release_pooled_storage() in every arena of this
  /// process so far.
  static std::uint64_t process_pooled_bytes_released();

  struct Stats {
    std::uint64_t buffers_allocated = 0;
    /// Pool hits. After release_pooled_storage() a hit no longer implies
    /// an avoided allocation: the entry may carry no storage.
    std::uint64_t buffers_reused = 0;
    std::uint64_t blocks_allocated = 0;
    std::uint64_t blocks_reused = 0;
    std::uint64_t slices_adopted = 0;
    std::uint64_t blocks_released = 0;
    std::uint64_t outstanding = 0;
    std::uint64_t outstanding_peak = 0;
    std::uint64_t slice_retains = 0;
    /// Fresh allocator hits attributable to the arena.
    std::uint64_t allocations() const {
      return buffers_allocated + blocks_allocated;
    }
  };
  Stats stats() const;

 private:
  std::shared_ptr<detail::ArenaCore> core_;
};

}  // namespace psc::util
