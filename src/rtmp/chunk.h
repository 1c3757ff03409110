// RTMP chunk stream layer: splits messages into chunks with fmt 0-3
// headers and reassembles them, handling extended timestamps and dynamic
// chunk-size changes (Adobe RTMP specification, section 5.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "rtmp/message.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::rtmp {

/// Largest chunk size either side may negotiate (RTMP spec §5.4.1: valid
/// sizes are 1 to 16777215).
constexpr std::uint32_t kMaxChunkSize = 0xFFFFFF;

/// Serialises messages into the chunk stream. Tracks per-chunk-stream
/// header state so it can use compressed header formats (1/2/3) whenever
/// the previous message on the same chunk stream allows it.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::uint32_t chunk_size = kDefaultChunkSize)
      : chunk_size_(chunk_size) {}

  /// Serialise one message onto `out`.
  void write(ByteWriter& out, std::uint32_t csid, const Message& msg);
  /// Serialise one message whose payload is the concatenation of
  /// `payload` (a gather list, so a caller can frame a payload from
  /// pieces without first joining them). `out` grows at most once.
  void write(ByteWriter& out, std::uint32_t csid, MessageType type,
             std::uint32_t timestamp_ms, std::uint32_t stream_id,
             std::span<const BytesView> payload);

  /// Change the outgoing chunk size (the caller must also send a
  /// SetChunkSize control message). Clamped to the spec's valid range
  /// [1, 0xFFFFFF] — a zero size would never make progress splitting a
  /// non-empty payload.
  void set_chunk_size(std::uint32_t size) {
    chunk_size_ = std::clamp<std::uint32_t>(size, 1, kMaxChunkSize);
  }
  std::uint32_t chunk_size() const { return chunk_size_; }

 private:
  struct PrevHeader {
    std::uint32_t timestamp = 0;
    std::uint32_t length = 0;
    MessageType type = MessageType::CommandAmf0;
    std::uint32_t stream_id = 0;
    std::uint32_t last_delta = 0;
    bool has_delta = false;
  };

  void write_basic_header(ByteWriter& out, int fmt, std::uint32_t csid) const;

  std::uint32_t chunk_size_;
  std::map<std::uint32_t, PrevHeader> prev_;
};

/// Incremental chunk stream parser: feed arbitrary byte slices; complete
/// messages come out in order. Handles interleaved chunk streams and
/// inbound SetChunkSize messages transparently.
class ChunkReader {
 public:
  /// Append bytes; parses as many complete chunks as possible.
  /// Complete messages are appended to the internal queue.
  Status push(BytesView data);

  /// Messages completed so far, in arrival order (moves them out). A
  /// convenience for tests and fuzz targets; src/ consumes messages
  /// through drain().
  std::vector<Message> take_messages();

  /// Hand each message completed so far to `fn(Message&)`, in arrival
  /// order. The queue's storage is recycled, so a steady reader
  /// allocates nothing here; `fn` may push() more bytes.
  template <typename Fn>
  void drain(Fn&& fn) {
    std::vector<Message> batch = std::move(spare_);
    batch.swap(messages_);
    for (Message& m : batch) fn(m);
    batch.clear();
    spare_ = std::move(batch);
  }

  std::uint32_t chunk_size() const { return chunk_size_; }
  std::uint64_t bytes_consumed() const { return consumed_; }

  /// Release all internal buffers (retirement path).
  void discard() {
    Bytes{}.swap(buffer_);
    streams_.clear();
    messages_.clear();
    std::vector<Message>{}.swap(spare_);
  }

 private:
  struct StreamState {
    std::uint32_t timestamp = 0;
    std::uint32_t timestamp_delta = 0;
    std::uint32_t length = 0;
    MessageType type = MessageType::CommandAmf0;
    std::uint32_t stream_id = 0;
    bool ext_timestamp = false;
    Bytes assembly;
  };

  /// Try to parse one chunk from in[cursor...]. Returns false if more
  /// bytes are needed (cursor unchanged).
  Result<bool> parse_one(BytesView in, std::size_t& cursor);

  Bytes buffer_;  // an incomplete chunk left over from earlier pushes
  std::uint32_t chunk_size_ = kDefaultChunkSize;
  std::map<std::uint32_t, StreamState> streams_;
  std::vector<Message> messages_;
  std::vector<Message> spare_;  // drain()'s second queue
  std::uint64_t consumed_ = 0;
};

}  // namespace psc::rtmp
