// tcpdump stand-in: a per-direction trace of (arrival time, byte count)
// records plus the reassembled payload stream.
//
// The paper's pipeline captured all video/audio traffic with tcpdump and
// later reconstructed the TCP streams with wireshark; analysis code here
// consumes Capture objects the same way — it never looks at sender-side
// ground truth.
//
// A capture keeps bytes by default: each record holds a ref-counted
// BufferSlice, so recording a delivered network buffer shares it instead
// of copying. Consumers, the reconstruction in analysis/ and pcap export
// included, read packet by packet through packet_data(); payload()
// flattens a copy of the whole stream on each call.
//
// A records-only capture (set_keep_bytes(false)) keeps each record's
// {time, offset, size} and total_bytes() but drops the slice, so a
// session holds no media buffers. Its packet_data() and payload() throw;
// reconstruction from it returns an error. A tap (set_tap) sees every
// record's bytes as they are recorded, kept or not: campaigns reconstruct
// analysed sessions that way, from records-only captures.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/units.h"

namespace psc::net {

class Capture {
 public:
  struct Packet {
    TimePoint time{};
    std::size_t offset = 0;  // byte offset into payload()
    std::size_t size = 0;
  };

  /// Keep each record's bytes (the default) or only its time, offset and
  /// size. Throws std::logic_error once anything is recorded.
  void set_keep_bytes(bool keep);
  bool keeps_bytes() const { return keep_bytes_; }

  /// Called with each record's time and bytes as it is recorded, before
  /// any later record. Replaces the previous tap; an empty one detaches.
  using Tap = std::function<void(TimePoint, BytesView)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Record by view: the bytes are copied (callers without a slice).
  void record_copy(TimePoint t, BytesView data) {
    note(t, data);
    if (keep_bytes_) chunks_.push_back(util::BufferSlice::copy_of(data));
  }
  /// Record by slice: shares the buffer, no copy (an owning Bytes
  /// converts implicitly).
  void record(TimePoint t, util::BufferSlice data) {
    note(t, data.view());
    if (keep_bytes_) chunks_.push_back(std::move(data));
  }

  const std::vector<Packet>& packets() const { return packets_; }
  /// Bytes of packet `i` without flattening. Throws std::logic_error on a
  /// records-only capture.
  BytesView packet_data(std::size_t i) const {
    if (!keep_bytes_) throw_no_bytes();
    return chunks_[i].view();
  }
  /// The reassembled contiguous stream, copied out. Throws
  /// std::logic_error on a records-only capture.
  Bytes payload() const;
  std::uint64_t total_bytes() const { return total_; }

  /// Arrival time of the packet containing payload byte `offset`
  /// (the paper computes delivery latency as "time of receiving the
  /// packet containing the NTP timestamp").
  TimePoint time_of_byte(std::size_t offset) const;

  /// Drop recorded data and the tap (a retired session frees its trace
  /// memory once analysis has consumed it). A records-only capture adds
  /// what it recorded to process_bytes_not_kept() here.
  void clear();

  /// Bytes that records-only captures of this process recorded without
  /// keeping, counted as each is cleared.
  static std::uint64_t process_bytes_not_kept();

  bool empty() const { return packets_.empty(); }
  TimePoint first_time() const {
    return packets_.empty() ? TimePoint{} : packets_.front().time;
  }
  TimePoint last_time() const {
    return packets_.empty() ? TimePoint{} : packets_.back().time;
  }

 private:
  [[noreturn]] static void throw_no_bytes();
  void note(TimePoint t, BytesView data) {
    packets_.push_back(Packet{t, total_, data.size()});
    total_ += data.size();
    if (tap_) tap_(t, data);
  }

  std::vector<Packet> packets_;
  std::vector<util::BufferSlice> chunks_;  // aligned with packets_ if kept
  std::uint64_t total_ = 0;
  bool keep_bytes_ = true;
  Tap tap_;
};

}  // namespace psc::net
