// RTMP client/server session state machines (sans-io).
//
// Both sides consume raw bytes via on_input() and produce raw bytes via
// take_output(); the network simulator shuttles the bytes with whatever
// bandwidth/latency it models. The server side is what a Periscope
// "vidman" EC2 origin speaks; the client side is the phone app.
//
// Flow: handshake -> connect -> createStream -> play -> StreamBegin +
// onStatus(NetStream.Play.Start) -> FLV-tagged audio/video messages.
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
    /// publish accepted for this stream key.
    std::function<void(const std::string&)> on_publish_start;
  };

  explicit ServerSession(std::uint64_t seed);

  /// Feed bytes received from the client.
  Status on_input(BytesView data);
  /// Drain bytes to send to the client.
  Bytes take_output();
  bool has_output() const { return !out_.bytes().empty(); }

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
  void discard_buffers() {
    out_ = ByteWriter{};
    Bytes{}.swap(inbuf_);
    Bytes{}.swap(my_blob_);
    reader_.discard();
  }

 private:
  enum class State { WaitHello, WaitEcho, Command };

  void handle_command(const Message& msg);
  void handle_published_media(Message& msg);
  void send_message(std::uint32_t csid, MessageType type,
                    std::uint32_t timestamp_ms, std::uint32_t stream_id,
                    Bytes payload);

  State state_ = State::WaitHello;
  Bytes inbuf_;  // handshake buffering
  Bytes my_blob_;
  ChunkReader reader_;
  ChunkWriter writer_;
  MediaMessageWriter media_;
  ByteWriter out_;
  std::uint64_t seed_;
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
  Bytes take_output();
  bool has_output() const { return !out_.bytes().empty(); }

  /// True once the server accepted `publish`.
  bool publishing() const { return publishing_; }

  /// Send the AVC sequence header (call once after publishing()).
  void send_avc_config(const media::Sps& sps, const media::Pps& pps);
  /// Push one encoded sample upstream.
  void send_sample(const media::MediaSample& sample);

 private:
  enum class State { WaitHello, WaitEcho, Connecting, CreatingStream,
                     Publishing };

  void handle_message(const Message& msg);
  void send_command(std::vector<amf::Value> values);

  State state_ = State::WaitHello;
  Bytes inbuf_;
  Bytes my_blob_;
  ChunkReader reader_;
  ChunkWriter writer_;
  MediaMessageWriter media_;
  ByteWriter out_;
  std::string app_;
  std::string stream_key_;
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
  Bytes take_output();
  bool has_output() const { return !out_.bytes().empty(); }

  bool playing() const { return playing_; }

  /// Drop buffered I/O (retirement path).
  void discard_buffers() {
    out_ = ByteWriter{};
    Bytes{}.swap(inbuf_);
    Bytes{}.swap(my_blob_);
    reader_.discard();
  }

 private:
  enum class State { WaitHello, WaitEcho, Connecting, CreatingStream,
                     Playing };

  void handle_message(Message& msg);
  void send_command(std::vector<amf::Value> values);

  State state_ = State::WaitHello;
  Bytes inbuf_;
  Bytes my_blob_;
  ChunkReader reader_;
  ChunkWriter writer_;
  ByteWriter out_;
  std::string app_;
  std::string stream_name_;
  Callbacks cb_;
  bool playing_ = false;
  double next_txn_ = 2.0;
  std::uint32_t media_stream_id_ = 0;
};

}  // namespace psc::rtmp
