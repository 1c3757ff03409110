#include "net/capture.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace psc::net {

namespace {

std::atomic<std::uint64_t> g_bytes_not_kept{0};

}  // namespace

void Capture::throw_no_bytes() {
  throw std::logic_error("Capture: a records-only capture keeps no bytes");
}

void Capture::set_keep_bytes(bool keep) {
  if (!packets_.empty()) {
    throw std::logic_error("Capture: set_keep_bytes after recording");
  }
  keep_bytes_ = keep;
}

Bytes Capture::payload() const {
  if (!keep_bytes_) throw_no_bytes();
  Bytes out;
  out.reserve(static_cast<std::size_t>(total_));
  for (const util::BufferSlice& c : chunks_) {
    out.insert(out.end(), c.begin(), c.end());
  }
  return out;
}

void Capture::clear() {
  if (!keep_bytes_) {
    g_bytes_not_kept.fetch_add(total_, std::memory_order_relaxed);
  }
  packets_.clear();
  packets_.shrink_to_fit();
  chunks_.clear();
  chunks_.shrink_to_fit();
  total_ = 0;
}

std::uint64_t Capture::process_bytes_not_kept() {
  return g_bytes_not_kept.load(std::memory_order_relaxed);
}

TimePoint Capture::time_of_byte(std::size_t offset) const {
  // Binary search over packet offsets.
  auto it = std::upper_bound(
      packets_.begin(), packets_.end(), offset,
      [](std::size_t off, const Packet& p) { return off < p.offset; });
  if (it == packets_.begin()) {
    return packets_.empty() ? TimePoint{} : packets_.front().time;
  }
  --it;
  return it->time;
}

}  // namespace psc::net
