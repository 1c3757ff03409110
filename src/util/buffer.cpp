#include "util/buffer.h"

namespace psc::util {

namespace detail {

namespace {

// Pool bounds: enough to cover a shard's steady-state working set (open
// segments, in-flight link transfers, capture tails) without letting a
// burst pin memory forever. Oversized one-off buffers are not pooled.
constexpr std::size_t kMaxFreeBlocks = 4096;
constexpr std::size_t kMaxFreeBuffers = 1024;
constexpr std::size_t kMaxPooledCapacity = std::size_t{8} << 20;  // 8 MiB

std::atomic<std::uint64_t> g_pooled_bytes_released{0};

}  // namespace

void release_block(BufferBlock* b) {
  // Detach the core first: if the block outlived its arena we simply
  // delete, and the shared_ptr keeps ArenaCore alive through the lock.
  std::shared_ptr<ArenaCore> core = std::move(b->core);
  if (!core) {
    delete b;
    return;
  }
  std::lock_guard<std::mutex> lock(core->mu);
  ++core->blocks_released;
  --core->outstanding;
  if (core->closed) {
    delete b;
    return;
  }
  if (core->free_buffers.size() < kMaxFreeBuffers &&
      b->data.capacity() > 0 && b->data.capacity() <= kMaxPooledCapacity) {
    b->data.clear();
    core->free_buffers.push_back(std::move(b->data));
  }
  b->data = Bytes();
  if (core->free_blocks.size() < kMaxFreeBlocks) {
    b->refs.store(1, std::memory_order_relaxed);
    core->free_blocks.push_back(b);
  } else {
    delete b;
  }
}

}  // namespace detail

detail::BufferBlock* BufferSlice::adopt_block(Bytes&& data) {
  auto* b = new detail::BufferBlock;
  b->data = std::move(data);
  return b;
}

BufferArena::~BufferArena() {
  std::lock_guard<std::mutex> lock(core_->mu);
  core_->closed = true;
  for (detail::BufferBlock* b : core_->free_blocks) delete b;
  core_->free_blocks.clear();
  core_->free_buffers.clear();
}

Bytes BufferArena::obtain(std::size_t reserve_hint) {
  detail::ArenaCore& c = *core_;
  std::lock_guard<std::mutex> lock(c.mu);
  if (!c.free_buffers.empty()) {
    Bytes out = std::move(c.free_buffers.back());
    c.free_buffers.pop_back();
    ++c.buffers_reused;
    if (out.capacity() < reserve_hint) out.reserve(reserve_hint);
    return out;
  }
  ++c.buffers_allocated;
  Bytes out;
  if (reserve_hint > 0) out.reserve(reserve_hint);
  return out;
}

BufferSlice BufferArena::adopt(Bytes&& data) {
  detail::ArenaCore& c = *core_;
  detail::BufferBlock* b = nullptr;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    ++c.slices_adopted;
    if (!c.free_blocks.empty()) {
      b = c.free_blocks.back();
      c.free_blocks.pop_back();
      ++c.blocks_reused;
    } else {
      ++c.blocks_allocated;
    }
    ++c.outstanding;
    if (c.outstanding > c.outstanding_peak) {
      c.outstanding_peak = c.outstanding;
    }
  }
  if (b == nullptr) {
    b = new detail::BufferBlock;
  }
  b->data = std::move(data);
  b->core = core_;
  return BufferSlice(b);
}

std::size_t BufferArena::release_pooled_storage() {
  std::size_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    for (Bytes& b : core_->free_buffers) {
      freed += b.capacity();
      Bytes().swap(b);
    }
  }
  detail::g_pooled_bytes_released.fetch_add(freed,
                                            std::memory_order_relaxed);
  return freed;
}

std::uint64_t BufferArena::process_pooled_bytes_released() {
  return detail::g_pooled_bytes_released.load(std::memory_order_relaxed);
}

BufferArena::Stats BufferArena::stats() const {
  detail::ArenaCore& c = *core_;
  std::lock_guard<std::mutex> lock(c.mu);
  Stats s;
  s.buffers_allocated = c.buffers_allocated;
  s.buffers_reused = c.buffers_reused;
  s.blocks_allocated = c.blocks_allocated;
  s.blocks_reused = c.blocks_reused;
  s.slices_adopted = c.slices_adopted;
  s.blocks_released = c.blocks_released;
  s.outstanding = c.outstanding;
  s.outstanding_peak = c.outstanding_peak;
  s.slice_retains = c.retains.load(std::memory_order_relaxed);
  return s;
}

}  // namespace psc::util
