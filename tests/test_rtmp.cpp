// RTMP chunk stream and session state machine tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "media/encoder.h"
#include "rtmp/chunk.h"
#include "rtmp/handshake.h"
#include "rtmp/session.h"
#include "testing/fuzz_target.h"
#include "util/rng.h"

namespace psc::rtmp {
namespace {

Message make_msg(MessageType type, std::uint32_t ts, std::uint32_t sid,
                 std::size_t size, std::uint8_t fill) {
  Message m;
  m.type = type;
  m.timestamp_ms = ts;
  m.stream_id = sid;
  m.payload.assign(size, fill);
  return m;
}

TEST(Chunk, SmallMessageRoundtrip) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  const Message in = make_msg(MessageType::CommandAmf0, 0, 0, 50, 0x11);
  writer.write(out, kCsidCommand, in);
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].payload, in.payload);
  EXPECT_EQ(msgs[0].type, in.type);
  EXPECT_EQ(msgs[0].timestamp_ms, 0u);
}

TEST(Chunk, LargeMessageSplitsIntoChunks) {
  ChunkWriter writer;  // default 128-byte chunks
  ChunkReader reader;
  ByteWriter out;
  const Message in = make_msg(MessageType::Video, 1000, 1, 1000, 0x22);
  writer.write(out, kCsidVideo, in);
  // 1000 bytes / 128 = 8 chunks; headers add bytes.
  EXPECT_GT(out.size(), 1000u + 8u);
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].payload.size(), 1000u);
  EXPECT_EQ(msgs[0].timestamp_ms, 1000u);
  EXPECT_EQ(msgs[0].stream_id, 1u);
}

TEST(Chunk, HeaderCompressionAcrossMessages) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  // Same-size same-type messages with constant delta: fmt 0, 1/2, 2...
  for (int i = 0; i < 5; ++i) {
    writer.write(out, kCsidAudio,
                 make_msg(MessageType::Audio, 100 * i, 1, 64, 0x33));
  }
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(msgs[static_cast<std::size_t>(i)].timestamp_ms,
              static_cast<std::uint32_t>(100 * i));
  }
  // Compressed: average bytes per message well under full 12-byte header
  // + payload.
  EXPECT_LT(out.size(), 5 * (12 + 64));
}

TEST(Chunk, ByteAtATimeDelivery) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  writer.write(out, kCsidCommand,
               make_msg(MessageType::CommandAmf0, 5, 0, 300, 0x44));
  for (std::uint8_t b : out.bytes()) {
    ASSERT_TRUE(reader.push(BytesView(&b, 1)).ok());
  }
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].payload.size(), 300u);
}

TEST(Chunk, InterleavedChunkStreams) {
  ChunkWriter writer;
  writer.set_chunk_size(128);
  ChunkReader reader;
  // Write two large messages whose chunks interleave manually: serialize
  // separately then interleave at chunk boundaries is complex; instead
  // verify two streams alternating whole messages.
  ByteWriter out;
  writer.write(out, kCsidAudio, make_msg(MessageType::Audio, 10, 1, 90, 1));
  writer.write(out, kCsidVideo, make_msg(MessageType::Video, 12, 1, 90, 2));
  writer.write(out, kCsidAudio, make_msg(MessageType::Audio, 20, 1, 90, 3));
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].type, MessageType::Audio);
  EXPECT_EQ(msgs[1].type, MessageType::Video);
  EXPECT_EQ(msgs[2].timestamp_ms, 20u);
}

TEST(Chunk, ExtendedTimestamp) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  const std::uint32_t big_ts = 0x01000000;  // > 0xFFFFFF
  writer.write(out, kCsidVideo,
               make_msg(MessageType::Video, big_ts, 1, 40, 0x55));
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].timestamp_ms, big_ts);
}

TEST(Chunk, ExtendedTimestampMultiChunk) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  writer.write(out, kCsidVideo,
               make_msg(MessageType::Video, 0xFFFFFF + 5, 1, 500, 0x66));
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].payload.size(), 500u);
  EXPECT_EQ(msgs[0].timestamp_ms, 0xFFFFFFu + 5);
}

TEST(Chunk, SetChunkSizeMidStreamApplies) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  // Announce a larger chunk size, then use it.
  Message scs;
  scs.type = MessageType::SetChunkSize;
  ByteWriter p;
  p.u32be(4096);
  scs.payload = p.take();
  writer.write(out, kCsidProtocol, scs);
  writer.set_chunk_size(4096);
  writer.write(out, kCsidVideo,
               make_msg(MessageType::Video, 1, 1, 3000, 0x77));
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(reader.chunk_size(), 4096u);
  EXPECT_EQ(msgs[1].payload.size(), 3000u);
}

TEST(Chunk, TimestampDeltaAccumulates) {
  ChunkWriter writer;
  ChunkReader reader;
  ByteWriter out;
  writer.write(out, kCsidAudio, make_msg(MessageType::Audio, 0, 1, 10, 0));
  writer.write(out, kCsidAudio, make_msg(MessageType::Audio, 23, 1, 10, 0));
  writer.write(out, kCsidAudio, make_msg(MessageType::Audio, 46, 1, 10, 0));
  ASSERT_TRUE(reader.push(out.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[2].timestamp_ms, 46u);
}


TEST(Chunk, InterleavedMidMessageChunks) {
  // Hand-craft the wire: a 300-byte video message on csid 6 is split
  // into 128-byte chunks, with a complete audio message on csid 4
  // interleaved between them — the interleaving real RTMP servers do.
  ByteWriter wire;
  Bytes video(300);
  for (std::size_t i = 0; i < video.size(); ++i) {
    video[i] = static_cast<std::uint8_t>(i);
  }
  const Bytes audio(40, 0xA5);

  // fmt0 on csid 6: timestamp 100, length 300, type 9, stream 1.
  wire.u8(0x06);
  wire.u24be(100);
  wire.u24be(300);
  wire.u8(9);
  wire.u32le(1);
  wire.raw(BytesView(video).subspan(0, 128));
  // Interleaved: fmt0 on csid 4, complete 40-byte audio message.
  wire.u8(0x04);
  wire.u24be(101);
  wire.u24be(40);
  wire.u8(8);
  wire.u32le(1);
  wire.raw(audio);
  // fmt3 continuations of the video message on csid 6.
  wire.u8(0xC6);
  wire.raw(BytesView(video).subspan(128, 128));
  wire.u8(0xC6);
  wire.raw(BytesView(video).subspan(256, 44));

  ChunkReader reader;
  ASSERT_TRUE(reader.push(wire.bytes()).ok());
  auto msgs = reader.take_messages();
  ASSERT_EQ(msgs.size(), 2u);
  // The audio message completes first (its final byte arrives earlier).
  EXPECT_EQ(msgs[0].type, MessageType::Audio);
  EXPECT_EQ(msgs[0].payload, audio);
  EXPECT_EQ(msgs[1].type, MessageType::Video);
  EXPECT_EQ(msgs[1].payload, video);
  EXPECT_EQ(msgs[1].timestamp_ms, 100u);
}

// ---- Reassembly budget ----

/// Feed `wire` in slices of `step` bytes (0 = random 1..4096, seeded) and
/// return the first error, or "" when every push succeeds.
std::string first_error(ChunkReader& reader, BytesView wire,
                        std::size_t step) {
  Rng rng(17);
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min(
        wire.size() - off,
        step != 0 ? step : static_cast<std::size_t>(rng.uniform_int(1, 4096)));
    const Status st = reader.push(wire.subspan(off, n));
    if (!st) return st.error().to_string();
    off += n;
  }
  return "";
}

TEST(ChunkBudget, ChunkStreamFloodFailsAtTheStreamCap) {
  // The unbounded-reassembly probe, scaled down: at a 64 KiB chunk size,
  // the first 64 KiB chunk of a 128 KiB message on each of 200 chunk
  // streams. Without a cap the reader holds every partial message.
  const Bytes wire = testing::rtmp_chunk_stream_flood(200, 64 << 10, 128 << 10);
  ChunkReader reader;
  const std::string err = first_error(reader, wire, wire.size());
  EXPECT_EQ(err, "rtmp_chunk: more than 16 chunk streams hold a partial "
                 "message");
  // The SetChunkSize message completed; no flood message did, and the
  // reader stopped after the 16 streams it admitted.
  EXPECT_EQ(reader.take_messages().size(), 1u);
  EXPECT_EQ(reader.chunk_size(), 64u << 10);
  EXPECT_LT(reader.bytes_consumed(), 17u * (64u << 10));
}

TEST(ChunkBudget, PartialBytesCapFailsBeforeTheStreamCap) {
  // 1 MiB messages: the ninth partial one would hold 9 MiB > 8 MiB.
  const Bytes wire = testing::rtmp_chunk_stream_flood(12, 64 << 10, 1 << 20);
  ChunkReader reader;
  EXPECT_EQ(first_error(reader, wire, wire.size()),
            "rtmp_chunk: partial messages declare more than 8388608 bytes");
  EXPECT_LT(reader.bytes_consumed(), 9u * (64u << 10));
}

TEST(ChunkBudget, DeclaredLengthCapPerType) {
  // The original probe's 16 MB message fails on its first chunk header.
  const Bytes huge = testing::rtmp_chunk_stream_flood(1, 64 << 10, 16000000);
  ChunkReader reader;
  EXPECT_EQ(first_error(reader, huge, huge.size()),
            "rtmp_chunk: type 9 message declares 16000000 bytes, over its "
            "cap of 4194304");
  // Each type class at its cap passes and one byte over fails.
  for (MessageType type : {MessageType::UserControl, MessageType::Audio,
                           MessageType::Video, MessageType::DataAmf0,
                           MessageType::CommandAmf0}) {
    for (std::uint32_t extra : {0u, 1u}) {
      const std::uint32_t length = max_message_length(type) + extra;
      ChunkWriter writer(64 << 10);
      ByteWriter w;
      writer.write(w, kCsidCommand, make_msg(type, 0, 1, length, 0x11));
      ChunkReader r;
      // The header states the writer's chunk size, not the reader's:
      // tell the reader first.
      ChunkWriter control;
      ByteWriter scs;
      Message set = make_msg(MessageType::SetChunkSize, 0, 0, 0, 0);
      ByteWriter size;
      size.u32be(64 << 10);
      set.payload = size.take();
      control.write(scs, kCsidProtocol, set);
      ASSERT_TRUE(r.push(scs.bytes()).ok());
      const Status st = r.push(w.bytes());
      EXPECT_EQ(st.ok(), extra == 0) << static_cast<int>(type);
      if (!st) {
        EXPECT_EQ(st.error().code, "rtmp_chunk");
      }
    }
  }
}

TEST(ChunkBudget, SameTerminalErrorAtEveryPushGranularity) {
  const Bytes floods[] = {
      testing::rtmp_chunk_stream_flood(200, 64 << 10, 128 << 10),
      testing::rtmp_chunk_stream_flood(12, 64 << 10, 1 << 20),
      testing::rtmp_chunk_stream_flood(40, 4096, 8192),
  };
  for (const Bytes& wire : floods) {
    ChunkReader whole;
    const std::string want = first_error(whole, wire, wire.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t step : {1u, 7u, 0u}) {
      ChunkReader reader;
      EXPECT_EQ(first_error(reader, wire, step), want) << step;
      EXPECT_EQ(reader.bytes_consumed(), whole.bytes_consumed()) << step;
      // Terminal: any later push fails the same way.
      const Bytes more(64, 0xC3);
      const Status again = reader.push(more);
      ASSERT_FALSE(again.ok());
      EXPECT_EQ(again.error().to_string(), want);
    }
  }
}

TEST(ChunkBudget, CompletedMessagesReturnTheirBudget) {
  // 100 multi-chunk messages, each on its own chunk stream and each
  // finished before the next starts: never more than one partial, though
  // their declared lengths sum past the 8 MiB partial-bytes cap.
  ChunkWriter writer;
  ByteWriter w;
  for (std::uint32_t i = 0; i < 100; ++i) {
    writer.write(w, 3 + i, make_msg(MessageType::Video, i, 1, 100000, 0x22));
  }
  ChunkReader reader;
  ASSERT_TRUE(reader.push(w.bytes()).ok());
  EXPECT_EQ(reader.take_messages().size(), 100u);
}

TEST(Handshake, HelloRoundtrip) {
  const Bytes hello = make_hello(1234, 42);
  ASSERT_EQ(hello.size(), 1 + kHandshakeBlobSize);
  auto parsed = parse_hello(hello);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().version, kRtmpVersion);
  EXPECT_EQ(parsed.value().time_ms, 1234u);
  EXPECT_TRUE(echo_matches(make_echo(parsed.value().blob),
                           parsed.value().blob));
}

TEST(Handshake, WrongVersionRejected) {
  Bytes hello = make_hello(0, 1);
  hello[0] = 6;
  EXPECT_FALSE(parse_hello(hello).ok());
}

TEST(Handshake, EchoMismatchDetected) {
  const Bytes a = make_hello(0, 1);
  const Bytes b = make_hello(0, 2);
  EXPECT_FALSE(echo_matches(BytesView(a).subspan(1),
                            BytesView(b).subspan(1)));
}

/// In-memory loopback: shuttle bytes between client and server sessions
/// until both go quiet.
void pump(ClientSession& client, ServerSession& server) {
  for (int i = 0; i < 32; ++i) {
    bool any = false;
    if (client.has_output()) {
      ASSERT_TRUE(server.on_input(client.take_output()).ok());
      any = true;
    }
    if (server.has_output()) {
      ASSERT_TRUE(client.on_input(server.take_output()).ok());
      any = true;
    }
    if (!any) break;
  }
}

TEST(Session, FullConnectPlayFlow) {
  std::vector<std::string> statuses;
  ClientSession::Callbacks cbs;
  cbs.on_status = [&](const std::string& code) { statuses.push_back(code); };
  ClientSession client("live", "abc1234567890", 7, std::move(cbs));
  ServerSession server(9);
  pump(client, server);
  EXPECT_TRUE(client.playing());
  EXPECT_TRUE(server.playing());
  EXPECT_EQ(server.app(), "live");
  EXPECT_EQ(server.stream_name(), "abc1234567890");
  ASSERT_FALSE(statuses.empty());
  EXPECT_EQ(statuses.back(), "NetStream.Play.Start");
}

TEST(Session, MediaDeliveryEndToEnd) {
  std::vector<media::MediaSample> received;
  media::AvcDecoderConfig config;
  bool got_config = false;
  ClientSession::Callbacks cbs;
  cbs.on_sample = [&](media::MediaSample s) { received.push_back(std::move(s)); };
  cbs.on_avc_config = [&](const media::AvcDecoderConfig& c) {
    config = c;
    got_config = true;
  };
  ClientSession client("live", "xyz", 1, std::move(cbs));
  ServerSession server(2);
  pump(client, server);
  ASSERT_TRUE(server.playing());

  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(3));
  server.send_avc_config(enc.sps(), enc.pps());
  int sent = 0;
  for (int i = 0; i < 60; ++i) {
    auto s = enc.next_frame();
    if (!s) continue;
    // Server transmits Annex-B -> AVCC conversion internally.
    server.send_sample(*s);
    ++sent;
  }
  pump(client, server);
  EXPECT_TRUE(got_config);
  EXPECT_EQ(config.sps.width, 320);
  ASSERT_EQ(static_cast<int>(received.size()), sent);
  // Received samples carry AVCC NAL data parseable back to slices.
  auto nals = media::split_avcc(received.back().data);
  ASSERT_TRUE(nals.ok());
  EXPECT_FALSE(nals.value().empty());
}

TEST(Session, AudioDelivery) {
  std::vector<media::MediaSample> received;
  ClientSession::Callbacks cbs;
  cbs.on_sample = [&](media::MediaSample s) { received.push_back(std::move(s)); };
  ClientSession client("live", "a", 1, std::move(cbs));
  ServerSession server(2);
  pump(client, server);
  media::AacEncoder aac(media::AudioConfig{}, 5);
  for (int i = 0; i < 10; ++i) server.send_sample(aac.next_frame());
  pump(client, server);
  ASSERT_EQ(received.size(), 10u);
  EXPECT_EQ(received[0].kind, media::SampleKind::Audio);
  auto info = media::parse_adts_header(received[0].data);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().sample_rate, 44100);
}

/// What a fresh session of the role under test did when fed recorded
/// peer bytes: the first error (if any), the bytes fed up to it, what the
/// session emitted and whether its stream came up.
struct Replay {
  Status status;
  std::size_t fed = 0;
  Bytes output;
  bool established = false;
};

/// One row of the handshake table. `make_role()` and `make_peer()` build
/// fresh sessions; `up(session)` says whether its stream is established
/// (playing() or publishing()). A reference run records every byte the
/// peer delivers to the role and every byte the role emits; the row then
/// replays the recorded bytes to fresh role sessions, corrupted and split
/// in different ways. The sessions are deterministic, so a replay that
/// succeeds must emit exactly what the reference run emitted.
template <typename MakeRole, typename MakePeer, typename Up>
void check_handshake(const char* echo_error, MakeRole make_role,
                     MakePeer make_peer, Up up) {
  // C0+C1 (or S0+S1), then C2 (or S2); chunk-stream bytes follow.
  constexpr std::size_t kHandshakeIn = 1 + 2 * kHandshakeBlobSize;
  Bytes input;
  Bytes output;
  {
    auto role = make_role();
    auto peer = make_peer();
    for (int i = 0; i < 32; ++i) {
      bool any = false;
      if (role.has_output()) {
        const Bytes b = role.take_output();
        output.insert(output.end(), b.begin(), b.end());
        ASSERT_TRUE(peer.on_input(b).ok());
        any = true;
      }
      if (peer.has_output()) {
        const Bytes b = peer.take_output();
        input.insert(input.end(), b.begin(), b.end());
        ASSERT_TRUE(role.on_input(b).ok());
        any = true;
      }
      if (!any) break;
    }
    ASSERT_TRUE(up(role));
    ASSERT_GT(input.size(), kHandshakeIn);
  }

  // Deliveries of `step` bytes (0: all at once); `first` overrides the
  // size of the first one. Stops at the first error.
  const auto replay = [&](BytesView in, std::size_t step,
                          std::size_t first) {
    auto role = make_role();
    Replay r;
    while (r.status.ok() && r.fed < in.size()) {
      std::size_t n = r.fed == 0 && first > 0 ? first : step;
      if (n == 0 || n > in.size() - r.fed) n = in.size() - r.fed;
      r.status = role.on_input(in.subspan(r.fed, n));
      r.fed += n;
    }
    while (role.has_output()) {
      const Bytes b = role.take_output();
      r.output.insert(r.output.end(), b.begin(), b.end());
    }
    r.established = up(role);
    return r;
  };

  // A bad version byte fails as soon as the hello is complete.
  Bytes bad_version = input;
  bad_version[0] = 9;
  const Replay v = replay(bad_version, 1, 0);
  ASSERT_FALSE(v.status.ok());
  EXPECT_EQ(v.status.error().code, "rtmp_version");
  EXPECT_EQ(v.fed, 1 + kHandshakeBlobSize);
  EXPECT_FALSE(v.established);

  // A corrupted echo fails on its last byte with the role's own text.
  Bytes bad_echo = input;
  bad_echo[1 + kHandshakeBlobSize + 700] ^= 0x5A;
  for (const std::size_t step : {std::size_t{1}, std::size_t{0}}) {
    const Replay e = replay(bad_echo, step, 0);
    ASSERT_FALSE(e.status.ok());
    EXPECT_EQ(e.status.error().code, "rtmp_handshake");
    EXPECT_EQ(e.status.error().message, echo_error);
    EXPECT_EQ(e.fed, step == 1 ? kHandshakeIn : bad_echo.size());
    EXPECT_FALSE(e.established);
  }

  // However the same bytes are split, the session says the same thing
  // and reaches the same state: one byte at a time, all at once, and
  // with the last handshake byte in the delivery that starts the chunk
  // stream.
  const struct {
    const char* split;
    std::size_t step;
    std::size_t first;
  } splits[] = {{"one byte at a time", 1, 0},
                {"all at once", 0, 0},
                {"handshake tail with chunks", 0, kHandshakeIn - 1}};
  for (const auto& s : splits) {
    SCOPED_TRACE(s.split);
    const Replay ok = replay(input, s.step, s.first);
    EXPECT_TRUE(ok.status.ok());
    EXPECT_EQ(ok.output, output);
    EXPECT_TRUE(ok.established);
  }
}

TEST(Session, GarbageHandshakeRejected) {
  const auto server = [] { return ServerSession(9); };
  const auto player = [] { return ClientSession("live", "hs", 7, {}); };
  const auto publisher = [] { return PublisherSession("live", "hs", 7); };
  const auto playing = [](const auto& s) { return s.playing(); };
  const auto publishing = [](const auto& s) { return s.publishing(); };
  {
    SCOPED_TRACE("server, player peer");
    check_handshake("C2 does not echo S1", server, player, playing);
  }
  {
    SCOPED_TRACE("server, publisher peer");
    check_handshake("C2 does not echo S1", server, publisher, publishing);
  }
  {
    SCOPED_TRACE("player");
    check_handshake("S2 does not echo C1", player, server, playing);
  }
  {
    SCOPED_TRACE("publisher");
    check_handshake("S2 does not echo C1", publisher, server, publishing);
  }
}

bool contains(const Bytes& haystack, const std::string& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

TEST(Session, RefusedPublishGetsBadNameAndNoMedia) {
  PublisherSession pub("live", "takenkey", 1);
  ServerSession server(2);
  std::vector<std::string> asked;
  int configs = 0;
  int samples = 0;
  ServerSession::PublishCallbacks cbs;
  cbs.on_publish_start = [&](const std::string& key) {
    asked.push_back(key);
    return false;
  };
  cbs.on_avc_config = [&](const media::AvcDecoderConfig&) { ++configs; };
  cbs.on_sample = [&](media::MediaSample) { ++samples; };
  server.set_publish_callbacks(std::move(cbs));
  Bytes replies;
  const auto shuttle = [&] {
    for (int i = 0; i < 32; ++i) {
      bool any = false;
      if (pub.has_output()) {
        ASSERT_TRUE(server.on_input(pub.take_output()).ok());
        any = true;
      }
      if (server.has_output()) {
        const Bytes out = server.take_output();
        replies.insert(replies.end(), out.begin(), out.end());
        ASSERT_TRUE(pub.on_input(out).ok());
        any = true;
      }
      if (!any) break;
    }
  };
  shuttle();
  EXPECT_EQ(asked, std::vector<std::string>{"takenkey"});
  EXPECT_FALSE(server.publishing());
  EXPECT_FALSE(pub.publishing());
  EXPECT_TRUE(contains(replies, "NetStream.Publish.BadName"));
  EXPECT_TRUE(contains(replies, "error"));
  EXPECT_FALSE(contains(replies, "NetStream.Publish.Start"));

  // Media from the refused peer is never decoded.
  media::VideoEncoder enc(media::VideoConfig{}, media::ContentModelConfig{},
                          0.0, Rng(3));
  pub.send_avc_config(enc.sps(), enc.pps());
  for (int i = 0; i < 10; ++i) {
    if (auto s = enc.next_frame()) pub.send_sample(*s);
  }
  shuttle();
  EXPECT_EQ(configs, 0);
  EXPECT_EQ(samples, 0);
}

TEST(Session, TimestampsCarryDts) {
  std::vector<media::MediaSample> received;
  ClientSession::Callbacks cbs;
  cbs.on_sample = [&](media::MediaSample s) { received.push_back(std::move(s)); };
  ClientSession client("live", "a", 1, std::move(cbs));
  ServerSession server(2);
  pump(client, server);
  media::MediaSample s;
  s.kind = media::SampleKind::Video;
  s.dts = seconds(2.5);
  s.pts = seconds(2.533);
  s.keyframe = true;
  media::Sps sps;
  media::Pps pps;
  s.data = media::annexb_wrap(
      {media::make_slice_nal(media::SliceHeader{}, sps, pps, 100, 1)});
  server.send_sample(s);
  pump(client, server);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_NEAR(to_s(received[0].dts), 2.5, 1e-3);
  EXPECT_NEAR(to_s(received[0].pts), 2.533, 2e-3);
  EXPECT_TRUE(received[0].keyframe);
}

}  // namespace
}  // namespace psc::rtmp
