#include "rtmp/chunk.h"

#include <algorithm>
#include <cassert>

namespace psc::rtmp {

namespace {

constexpr std::uint32_t kExtTimestampSentinel = 0xFFFFFF;

std::size_t basic_header_size(std::uint32_t csid) {
  return csid <= 63 ? 1 : csid <= 319 ? 2 : 3;
}

}  // namespace

void ChunkWriter::write_basic_header(ByteWriter& out, int fmt,
                                     std::uint32_t csid) const {
  assert(csid >= 2);
  if (csid <= 63) {
    out.u8(static_cast<std::uint8_t>((fmt << 6) | csid));
  } else if (csid <= 319) {
    out.u8(static_cast<std::uint8_t>(fmt << 6));
    out.u8(static_cast<std::uint8_t>(csid - 64));
  } else {
    out.u8(static_cast<std::uint8_t>((fmt << 6) | 1));
    const std::uint32_t v = csid - 64;
    out.u8(static_cast<std::uint8_t>(v & 0xFF));
    out.u8(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  }
}

void ChunkWriter::write(ByteWriter& out, std::uint32_t csid,
                        const Message& msg) {
  const BytesView payload(msg.payload);
  write(out, csid, msg.type, msg.timestamp_ms, msg.stream_id, {&payload, 1});
}

void ChunkWriter::write(ByteWriter& out, std::uint32_t csid, MessageType type,
                        std::uint32_t timestamp_ms, std::uint32_t stream_id,
                        std::span<const BytesView> payload) {
  std::size_t length = 0;
  for (const BytesView piece : payload) length += piece.size();

  auto it = prev_.find(csid);
  int fmt = 0;
  std::uint32_t delta = 0;
  if (it != prev_.end() && timestamp_ms >= it->second.timestamp &&
      stream_id == it->second.stream_id) {
    delta = timestamp_ms - it->second.timestamp;
    if (length == it->second.length && type == it->second.type) {
      // fmt 3 message starts are legal but interact poorly with extended
      // timestamps across implementations; fmt 2 costs 3 bytes and is
      // unambiguous, so this writer stops there.
      fmt = 2;
    } else {
      fmt = 1;
    }
  }

  const std::uint32_t hdr_ts = fmt == 0 ? timestamp_ms : delta;
  const bool ext_ts = hdr_ts >= kExtTimestampSentinel;

  // Size the whole message up front: the first chunk's header, one
  // continuation header per further chunk (fmt 3, repeating an extended
  // timestamp), and the payload.
  static constexpr std::size_t kMsgHdrSize[] = {11, 7, 3};
  const std::size_t basic = basic_header_size(csid);
  const std::size_t chunks =
      length == 0 ? 1 : (length + chunk_size_ - 1) / chunk_size_;
  const std::size_t cont_header = basic + (ext_ts ? 4 : 0);
  out.reserve_more(basic + kMsgHdrSize[fmt] + (ext_ts ? 4 : 0) +
                   (chunks - 1) * cont_header + length);

  write_basic_header(out, fmt, csid);
  if (fmt <= 2) out.u24be(ext_ts ? kExtTimestampSentinel : hdr_ts);
  if (fmt <= 1) {
    out.u24be(static_cast<std::uint32_t>(length));
    out.u8(static_cast<std::uint8_t>(type));
  }
  if (fmt == 0) out.u32le(stream_id);  // message stream id is little-endian
  if (ext_ts) out.u32be(hdr_ts);

  // Copy the pieces, starting a continuation chunk (always fmt 3) each
  // time chunk_size_ payload bytes have gone out and more remain.
  std::size_t room = chunk_size_;
  for (BytesView piece : payload) {
    while (!piece.empty()) {
      if (room == 0) {
        write_basic_header(out, 3, csid);
        if (ext_ts) out.u32be(hdr_ts);
        room = chunk_size_;
      }
      const std::size_t n = std::min(room, piece.size());
      out.raw(piece.first(n));
      piece = piece.subspan(n);
      room -= n;
    }
  }

  PrevHeader& ph = it != prev_.end() ? it->second : prev_[csid];
  ph.timestamp = timestamp_ms;
  ph.length = static_cast<std::uint32_t>(length);
  ph.type = type;
  ph.stream_id = stream_id;
  if (fmt != 0) {
    ph.last_delta = delta;
    ph.has_delta = true;
  } else {
    ph.has_delta = false;
  }
}

Status ChunkReader::push(BytesView data) {
  // With nothing buffered, parse straight from the caller's bytes and
  // keep only an incomplete tail; otherwise append and parse the buffer.
  const bool buffered = !buffer_.empty();
  if (buffered) buffer_.insert(buffer_.end(), data.begin(), data.end());
  const BytesView in = buffered ? BytesView(buffer_) : data;
  std::size_t cursor = 0;
  Status status;
  for (;;) {
    auto progressed = parse_one(in, cursor);
    if (!progressed) {
      status = progressed.error();
      break;
    }
    if (!progressed.value()) break;
  }
  // Keep the unparsed tail (on an error, the chunk that failed: a later
  // push re-parses it and fails the same way).
  if (buffered) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(cursor));
  } else {
    buffer_.assign(in.begin() + static_cast<std::ptrdiff_t>(cursor),
                   in.end());
  }
  return status;
}

Result<bool> ChunkReader::parse_one(BytesView in, std::size_t& cursor) {
  const BytesView avail = in.subspan(cursor);
  if (avail.empty()) return false;

  // Basic header.
  std::size_t pos = 0;
  const int fmt = avail[0] >> 6;
  std::uint32_t csid = avail[0] & 0x3F;
  pos = 1;
  if (csid == 0) {
    if (avail.size() < 2) return false;
    csid = 64 + avail[1];
    pos = 2;
  } else if (csid == 1) {
    if (avail.size() < 3) return false;
    csid = 64 + avail[1] + (static_cast<std::uint32_t>(avail[2]) << 8);
    pos = 3;
  }

  static constexpr std::size_t kMsgHdrSize[] = {11, 7, 3, 0};
  const std::size_t hdr_size = kMsgHdrSize[fmt];
  if (avail.size() < pos + hdr_size) return false;

  StreamState& st = streams_[csid];
  const bool continuation = !st.assembly.empty();
  if (continuation && fmt != 3) {
    return make_error("rtmp_chunk",
                      "non-fmt3 header in the middle of a message");
  }

  // Decode the header into locals only: a chunk whose payload has not
  // fully arrived returns false below and is RE-PARSED from the same
  // cursor on the next push(), so nothing may touch `st` until the whole
  // chunk is known to be available. (Mutating early double-applied
  // timestamp deltas whenever a chunk straddled a push boundary.)
  std::uint32_t ts_field = 0;
  std::uint32_t length = st.length;
  MessageType type = st.type;
  std::uint32_t stream_id = st.stream_id;
  if (fmt <= 2) {
    ts_field = (static_cast<std::uint32_t>(avail[pos]) << 16) |
               (static_cast<std::uint32_t>(avail[pos + 1]) << 8) |
               avail[pos + 2];
  }
  if (fmt <= 1) {
    length = (static_cast<std::uint32_t>(avail[pos + 3]) << 16) |
             (static_cast<std::uint32_t>(avail[pos + 4]) << 8) |
             avail[pos + 5];
    type = static_cast<MessageType>(avail[pos + 6]);
  }
  if (fmt == 0) {
    stream_id = static_cast<std::uint32_t>(avail[pos + 7]) |
                (static_cast<std::uint32_t>(avail[pos + 8]) << 8) |
                (static_cast<std::uint32_t>(avail[pos + 9]) << 16) |
                (static_cast<std::uint32_t>(avail[pos + 10]) << 24);
  }
  pos += hdr_size;

  // Extended timestamp.
  bool ext = false;
  if (fmt <= 2) {
    ext = ts_field == 0xFFFFFF;
  } else {
    ext = st.ext_timestamp && !continuation;
  }
  std::uint32_t full_ts = ts_field;
  if (ext) {
    if (avail.size() < pos + 4) return false;
    full_ts = (static_cast<std::uint32_t>(avail[pos]) << 24) |
              (static_cast<std::uint32_t>(avail[pos + 1]) << 16) |
              (static_cast<std::uint32_t>(avail[pos + 2]) << 8) |
              avail[pos + 3];
    pos += 4;
  } else if (st.ext_timestamp && continuation) {
    // Continuation chunks of an extended-timestamp message repeat the
    // 4-byte extended timestamp in this implementation's writer.
    if (avail.size() < pos + 4) return false;
    pos += 4;
  }

  const std::size_t already = st.assembly.size();
  const std::size_t want =
      std::min<std::size_t>(chunk_size_, length - already);
  if (avail.size() < pos + want) return false;

  // The whole chunk is in the buffer — commit to the stream state.
  st.length = length;
  st.type = type;
  st.stream_id = stream_id;
  if (fmt <= 2) st.ext_timestamp = ext;
  if (!continuation) {
    if (fmt == 0) {
      st.timestamp = full_ts;
      st.timestamp_delta = 0;
    } else {
      const std::uint32_t delta = (fmt == 3) ? st.timestamp_delta : full_ts;
      st.timestamp_delta = delta;
      st.timestamp += delta;
    }
  }
  if (!continuation) {
    // One allocation per message: its declared length, capped by the
    // bytes that have actually arrived so a peer's claim alone reserves
    // nothing.
    st.assembly.reserve(std::min<std::size_t>(length, avail.size() - pos));
  }
  st.assembly.insert(st.assembly.end(), avail.begin() + pos,
                     avail.begin() + pos + want);
  pos += want;
  cursor += pos;
  consumed_ += pos;

  if (st.assembly.size() == st.length) {
    Message msg;
    msg.type = st.type;
    msg.timestamp_ms = st.timestamp;
    msg.stream_id = st.stream_id;
    msg.payload = std::move(st.assembly);
    st.assembly.clear();
    // Inbound chunk-size changes apply to subsequent chunks.
    if (msg.type == MessageType::SetChunkSize && msg.payload.size() >= 4) {
      ByteReader r(msg.payload);
      const std::uint32_t requested = r.u32be().value() & 0x7FFFFFFF;
      // A zero chunk size would make every subsequent chunk carry zero
      // payload bytes: messages could never complete and a peer could
      // stream headers forever. The spec's valid range is [1, 0xFFFFFF].
      if (requested == 0) {
        return make_error("rtmp_chunk", "SetChunkSize of 0 is invalid");
      }
      chunk_size_ = std::min<std::uint32_t>(requested, kMaxChunkSize);
    }
    messages_.push_back(std::move(msg));
  }
  return true;
}

std::vector<Message> ChunkReader::take_messages() {
  std::vector<Message> out = std::move(messages_);
  messages_.clear();
  return out;
}

}  // namespace psc::rtmp
