// RTMP client/server session state machines (sans-io).
//
// Both sides consume raw bytes via on_input() and produce raw bytes via
// take_output(); the network simulator shuttles the bytes with whatever
// bandwidth/latency it models. The server side is what a Periscope
// "vidman" EC2 origin speaks; the client side is the phone app.
//
// Flow: handshake -> connect -> createStream -> play -> StreamBegin +
// onStatus(NetStream.Play.Start) -> FLV-tagged audio/video messages.
//
// The connection logic is written once, in Endpoint; ServerSession,
// ClientSession and PublisherSession are role layers over it that decide
// which commands to send and what to do with the ones that arrive.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "amf/amf0.h"
#include "flv/flv.h"
#include "media/h264.h"
#include "media/types.h"
#include "rtmp/chunk.h"
#include "rtmp/handshake.h"
#include "rtmp/message.h"

namespace psc::rtmp {

/// Writes media samples as FLV-tagged RTMP messages straight into a chunk
/// stream: the tag header, each NAL's AVCC length prefix and the NAL
/// bytes of the sample's Annex-B buffer go out between the chunk headers
/// with one copy and no intermediate buffer. The output is byte-identical
/// to ChunkWriter::write of flv::make_video_tag(annexb_to_avcc(data)) or
/// flv::make_audio_tag(data). Kept per session: its scratch lists are
/// reused, so a steady stream allocates nothing here.
class MediaMessageWriter {
 public:
  /// Append `sample` to `out` as one message on `stream_id`. A video
  /// sample whose Annex-B framing does not parse is dropped whole:
  /// nothing is written and false is returned.
  bool write(ChunkWriter& chunks, ByteWriter& out, std::uint32_t stream_id,
             const media::MediaSample& sample);

 private:
  std::vector<BytesView> nals_;
  Bytes prefixes_;  // 4-byte AVCC length of each NAL
  std::vector<BytesView> pieces_;
};

/// The connection logic every RTMP session shares, in the client or the
/// server role: the simple handshake (C0/C1/C2 against S0/S1/S2), the
/// chunk reader and writer with the output buffer, and the command and
/// protocol control writers (RTMP §5.4, §7.1). Each session owns one and
/// speaks through it; the FLV media decode that the server and the
/// player share sits beside it in session.cpp.
class Endpoint {
 public:
  enum class Role { Client, Server };

  /// `seed` draws this side's C1/S1 blob. A client sends C0+C1 at once;
  /// a server sends S0+S1 when the peer's C0+C1 has arrived.
  Endpoint(Role role, std::uint64_t seed);

  /// Feed bytes from the peer. Handshake bytes are consumed here; when
  /// the peer's echo checks out, `layer.on_established()` runs once.
  /// After that every complete message goes to `layer.on_command(values)`
  /// (an AMF0 command that decodes to at least one value) or to
  /// `layer.on_media(msg)` (Audio/Video); other messages (Acknowledgement,
  /// UserControl, ...) are accepted silently. Defined in session.cpp for
  /// the three sessions there: the calls are direct, not type-erased.
  template <typename Layer>
  Status on_input(BytesView data, Layer& layer);

  Bytes take_output() { return out_.take(); }
  bool has_output() const { return !out_.bytes().empty(); }

  /// One AMF0 command message on the command chunk stream.
  void command(const std::vector<amf::Value>& values,
               std::uint32_t stream_id = 0);
  /// Protocol control messages. set_chunk_size also applies the size to
  /// every later message this side writes; set_peer_bandwidth sends the
  /// dynamic limit type.
  void set_chunk_size(std::uint32_t size);
  void window_ack_size(std::uint32_t size);
  void set_peer_bandwidth(std::uint32_t size);
  /// User Control StreamBegin for `stream_id`.
  void stream_begin(std::uint32_t stream_id);
  /// The AVC sequence header as a video message on `stream_id`.
  void avc_config(std::uint32_t stream_id, const media::Sps& sps,
                  const media::Pps& pps);
  /// One media sample as an FLV-tagged message on `stream_id`.
  void sample(std::uint32_t stream_id, const media::MediaSample& sample) {
    media_.write(writer_, out_, stream_id, sample);
  }

  /// Drop buffered I/O (retirement path).
  void discard() {
    out_ = ByteWriter{};
    Bytes{}.swap(inbuf_);
    Bytes{}.swap(hello_);
    reader_.discard();
  }

 private:
  enum class Handshake { WaitHello, WaitEcho, Done };

  /// Buffer handshake bytes and advance: answer the peer's hello with
  /// this side's (server) and its echo, then check the peer's echo.
  Status handshake(BytesView data);
  void send_hello();
  void write(std::uint32_t csid, MessageType type, std::uint32_t stream_id,
             BytesView payload);

  Role role_;
  std::uint64_t seed_;
  Handshake handshake_ = Handshake::WaitHello;
  Bytes inbuf_;  // handshake bytes not yet consumed
  Bytes hello_;  // the C0+C1 (S0+S1) this side sent
  ChunkReader reader_;
  ChunkWriter writer_;
  MediaMessageWriter media_;
  ByteWriter out_;
};

/// Server side of one connection — a viewer (play) or a broadcaster
/// (publish). Periscope phones publish their stream over exactly this
/// flow: connect -> releaseStream/FCPublish -> createStream -> publish ->
/// FLV-tagged audio/video messages upstream.
class ServerSession {
 public:
  struct PublishCallbacks {
    /// The AVC sequence header arrived from a publisher.
    std::function<void(const media::AvcDecoderConfig&)> on_avc_config;
    /// A published media sample arrived (AVCC video / ADTS audio).
    std::function<void(media::MediaSample)> on_sample;
    /// A publish of this stream key arrived. Return false to refuse it:
    /// the peer gets onStatus NetStream.Publish.BadName, publishing()
    /// stays false and its media is never decoded. Unset accepts.
    std::function<bool(const std::string&)> on_publish_start;
  };

  explicit ServerSession(std::uint64_t seed);

  /// Feed bytes received from the client.
  Status on_input(BytesView data);
  /// Drain bytes to send to the client.
  Bytes take_output() { return conn_.take_output(); }
  bool has_output() const { return conn_.has_output(); }

  /// True once the client's `play` was accepted.
  bool playing() const { return playing_; }
  /// True once a client's `publish` was accepted.
  bool publishing() const { return publishing_; }
  const std::string& stream_name() const { return stream_name_; }
  const std::string& app() const { return app_; }

  /// Install publish-side callbacks (media arriving FROM the peer).
  void set_publish_callbacks(PublishCallbacks cbs) {
    publish_cbs_ = std::move(cbs);
  }

  /// Send the AVC sequence header (call once when playback starts).
  void send_avc_config(const media::Sps& sps, const media::Pps& pps);

  /// Push one encoded sample to the viewer as an FLV-tagged RTMP message.
  void send_sample(const media::MediaSample& sample);

  /// Drop buffered I/O (retirement path: the session object outlives its
  /// usefulness only to keep late simulation callbacks safe).
  void discard_buffers() { conn_.discard(); }

 private:
  friend class Endpoint;
  void on_established() {}
  void on_command(const std::vector<amf::Value>& v);
  void on_media(Message& msg);
  /// onStatus(`level`, `code`) on the media stream.
  void send_status(const char* level, const char* code,
                   const char* description);

  Endpoint conn_;
  bool playing_ = false;
  bool publishing_ = false;
  std::string app_;
  std::string stream_name_;
  PublishCallbacks publish_cbs_;
};

/// Client side of a broadcasting connection: connects and publishes a
/// stream — what the Periscope app's capture pipeline does toward the
/// vidman origin. Media goes out as FLV-tagged RTMP messages.
class PublisherSession {
 public:
  PublisherSession(std::string app, std::string stream_key,
                   std::uint64_t seed);

  Status on_input(BytesView data);
  Bytes take_output() { return conn_.take_output(); }
  bool has_output() const { return conn_.has_output(); }

  /// True once the server accepted `publish`.
  bool publishing() const { return publishing_; }

  /// Send the AVC sequence header (call once after publishing()).
  void send_avc_config(const media::Sps& sps, const media::Pps& pps);
  /// Push one encoded sample upstream.
  void send_sample(const media::MediaSample& sample);

 private:
  enum class State { Connecting, CreatingStream, Publishing };

  friend class Endpoint;
  void on_established();
  void on_command(const std::vector<amf::Value>& v);
  void on_media(Message&) {}

  Endpoint conn_;
  std::string app_;
  std::string stream_key_;
  State state_ = State::Connecting;
  bool publishing_ = false;
  double next_txn_ = 2.0;
  std::uint32_t media_stream_id_ = 1;
};

/// Client side: connects, plays a stream, surfaces media via callbacks.
class ClientSession {
 public:
  struct Callbacks {
    /// AVC sequence header received.
    std::function<void(const media::AvcDecoderConfig&)> on_avc_config;
    /// A media sample arrived. data is AVCC NALs (video) / ADTS (audio);
    /// pts/dts from the RTMP timestamp + FLV composition time.
    std::function<void(media::MediaSample)> on_sample;
    /// onStatus code strings, e.g. "NetStream.Play.Start".
    std::function<void(const std::string&)> on_status;
  };

  ClientSession(std::string app, std::string stream_name, std::uint64_t seed,
                Callbacks callbacks);

  Status on_input(BytesView data);
  Bytes take_output() { return conn_.take_output(); }
  bool has_output() const { return conn_.has_output(); }

  bool playing() const { return playing_; }

  /// Drop buffered I/O (retirement path).
  void discard_buffers() { conn_.discard(); }

 private:
  enum class State { Connecting, CreatingStream, Playing };

  friend class Endpoint;
  void on_established();
  void on_command(const std::vector<amf::Value>& v);
  void on_media(Message& msg);

  Endpoint conn_;
  std::string app_;
  std::string stream_name_;
  Callbacks cb_;
  State state_ = State::Connecting;
  bool playing_ = false;
  double next_txn_ = 2.0;
};

}  // namespace psc::rtmp
