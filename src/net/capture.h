// tcpdump stand-in: a per-direction trace of (arrival time, byte count)
// records plus the reassembled payload stream.
//
// The paper's pipeline captured all video/audio traffic with tcpdump and
// later reconstructed the TCP streams with wireshark; analysis code here
// consumes Capture objects the same way — it never looks at sender-side
// ground truth.
//
// Storage is chunked: each record keeps a ref-counted BufferSlice, so
// recording a delivered network buffer shares it instead of copying.
// Consumers, the reconstruction in analysis/ included, read packet by
// packet through packet_data(). payload() flattens the chunks into one
// contiguous buffer and caches it for the capture's lifetime; it now
// serves only pcap export, which writes the stream out whole.
#pragma once

#include <cstdint>
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

  /// Record by view: the bytes are copied (callers without a slice).
  void record_copy(TimePoint t, BytesView data) {
    record(t, util::BufferSlice::copy_of(data));
  }
  /// Record by slice: shares the buffer, no copy (an owning Bytes
  /// converts implicitly).
  void record(TimePoint t, util::BufferSlice data) {
    packets_.push_back(Packet{t, total_, data.size()});
    total_ += data.size();
    chunks_.push_back(std::move(data));
  }

  const std::vector<Packet>& packets() const { return packets_; }
  /// Bytes of packet `i` without flattening.
  BytesView packet_data(std::size_t i) const { return chunks_[i].view(); }
  /// The reassembled contiguous stream; materialised on first call.
  const Bytes& payload() const;
  std::uint64_t total_bytes() const { return total_; }

  /// Arrival time of the packet containing payload byte `offset`
  /// (the paper computes delivery latency as "time of receiving the
  /// packet containing the NTP timestamp").
  TimePoint time_of_byte(std::size_t offset) const;

  /// Drop recorded data (a retired session frees its trace memory once
  /// analysis has consumed it).
  void clear() {
    packets_.clear();
    packets_.shrink_to_fit();
    chunks_.clear();
    chunks_.shrink_to_fit();
    payload_.clear();
    payload_.shrink_to_fit();
    total_ = 0;
  }

  bool empty() const { return packets_.empty(); }
  TimePoint first_time() const {
    return packets_.empty() ? TimePoint{} : packets_.front().time;
  }
  TimePoint last_time() const {
    return packets_.empty() ? TimePoint{} : packets_.back().time;
  }

 private:
  std::vector<Packet> packets_;
  std::vector<util::BufferSlice> chunks_;  // aligned with packets_
  std::uint64_t total_ = 0;
  mutable Bytes payload_;  // lazy flatten cache; valid when size()==total_
};

}  // namespace psc::net
