// HLS playlist and segmenter tests.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "hls/edge_log.h"
#include "hls/playlist.h"
#include "hls/segmenter.h"
#include "media/encoder.h"

namespace psc::hls {
namespace {

TEST(Playlist, WriteParseRoundtrip) {
  MediaPlaylist pl;
  pl.target_duration = seconds(4);
  pl.media_sequence = 17;
  pl.segments = {{"seg_17.ts", seconds(3.6), 17},
                 {"seg_18.ts", seconds(3.6), 18},
                 {"seg_19.ts", seconds(2.4), 19}};
  auto parsed = parse_m3u8(write_m3u8(pl));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().media_sequence, 17u);
  ASSERT_EQ(parsed.value().segments.size(), 3u);
  EXPECT_EQ(parsed.value().segments[0].uri, "seg_17.ts");
  EXPECT_EQ(parsed.value().segments[2].sequence, 19u);
  EXPECT_NEAR(to_s(parsed.value().segments[2].duration), 2.4, 1e-3);
  EXPECT_FALSE(parsed.value().ended);
}

TEST(Playlist, EndlistMarksVod) {
  MediaPlaylist pl;
  pl.ended = true;
  pl.segments = {{"a.ts", seconds(3.6), 0}};
  auto parsed = parse_m3u8(write_m3u8(pl));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ended);
}

TEST(Playlist, DiscontinuitySequenceDoesNotMarkASegment) {
  // #EXT-X-DISCONTINUITY-SEQUENCE numbers the discontinuities before the
  // window; only the exact #EXT-X-DISCONTINUITY tag marks a segment.
  auto parsed = parse_m3u8(
      "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXT-X-MEDIA-SEQUENCE:5\n"
      "#EXT-X-DISCONTINUITY-SEQUENCE:2\n#EXTINF:3.600,\nseg_5.ts\n"
      "#EXT-X-DISCONTINUITY\n#EXTINF:3.600,\nseg_6.ts\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().segments.size(), 2u);
  EXPECT_FALSE(parsed.value().segments[0].discontinuity);
  EXPECT_TRUE(parsed.value().segments[1].discontinuity);
}

TEST(Playlist, DiscontinuitySequenceRoundtrip) {
  MediaPlaylist pl;
  pl.media_sequence = 9;
  pl.discontinuity_sequence = 3;
  pl.segments = {{"seg_9.ts", seconds(3.6), 9},
                 {"seg_10.ts", seconds(3.6), 10, /*discontinuity=*/true}};
  const std::string text = write_m3u8(pl);
  // The tag precedes the first segment (RFC 8216 §4.3.3.3).
  EXPECT_LT(text.find("#EXT-X-DISCONTINUITY-SEQUENCE:3\n"),
            text.find("#EXTINF"));
  auto parsed = parse_m3u8(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().discontinuity_sequence, 3u);
  EXPECT_EQ(write_m3u8(parsed.value()), text);
  // Zero is the default and is not written.
  pl.discontinuity_sequence = 0;
  EXPECT_EQ(write_m3u8(pl).find("DISCONTINUITY-SEQUENCE"),
            std::string::npos);
  EXPECT_FALSE(parse_m3u8("#EXTM3U\n#EXT-X-DISCONTINUITY-SEQUENCE:-1\n")
                   .ok());
  EXPECT_FALSE(parse_m3u8("#EXTM3U\n#EXT-X-DISCONTINUITY-SEQUENCE:x\n")
                   .ok());
}

TEST(Playlist, MissingHeaderRejected) {
  EXPECT_FALSE(parse_m3u8("#EXT-X-VERSION:3\n").ok());
}

TEST(Playlist, UriWithoutExtinfRejected) {
  EXPECT_FALSE(parse_m3u8("#EXTM3U\nseg.ts\n").ok());
}

TEST(Playlist, TargetDurationCeiled) {
  MediaPlaylist pl;
  pl.target_duration = seconds(3.6);
  const std::string text = write_m3u8(pl);
  EXPECT_NE(text.find("#EXT-X-TARGETDURATION:4"), std::string::npos);
}

Segment edge_segment(std::uint64_t sequence) {
  Segment seg;
  seg.sequence = sequence;
  seg.duration = seconds(3.6);
  return seg;
}

TEST(LiveWindow, SlidesAndAdvancesSequence) {
  EdgeLog log(0, seconds(3.6), 3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.append(edge_segment(i), time_at(0));
  }
  const MediaPlaylist pl = log.live(time_at(0));
  ASSERT_EQ(pl.segments.size(), 3u);
  EXPECT_EQ(pl.media_sequence, 2u);  // 0 and 1 fell off
  EXPECT_EQ(pl.segments[0].uri, "seg_2.ts");
  EXPECT_EQ(pl.segments[2].sequence, 4u);
}

TEST(LiveWindow, EmptySnapshot) {
  EdgeLog log(0, seconds(3.6), 3);
  EXPECT_TRUE(log.live(time_at(0)).segments.empty());
}

TEST(HlsEdgeLog, FindsBySequenceOnceServable) {
  EdgeLog log(0, seconds(3.6), 6);
  for (std::uint64_t i = 0; i < 5; ++i) {
    log.append(edge_segment(i), time_at(1.0 + static_cast<double>(i)));
  }
  const EdgeSegment* two = log.find(2, time_at(3));
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->segment.sequence, 2u);
  EXPECT_EQ(log.find(3, time_at(3)), nullptr);  // still in flight
  EXPECT_NE(log.find(3, time_at(4)), nullptr);
  EXPECT_EQ(log.find(5, time_at(99)), nullptr);  // never cut
  // The live window only shows what is servable; VOD lists every segment.
  const MediaPlaylist live = log.live(time_at(3.5));
  ASSERT_EQ(live.segments.size(), 3u);
  EXPECT_EQ(live.segments.back().uri, "seg_2.ts");
  EXPECT_EQ(log.vod().segments.size(), 5u);
  EXPECT_TRUE(log.vod().ended);
  EXPECT_FALSE(live.ended);

  log.retain_last(2);
  EXPECT_EQ(log.find(2, time_at(99)), nullptr);  // trimmed
  ASSERT_NE(log.find(3, time_at(99)), nullptr);
  EXPECT_EQ(log.vod().media_sequence, 3u);
  EXPECT_EQ(log.live(time_at(4.5)).media_sequence, 3u);
  EXPECT_EQ(log.live(time_at(4.5)).segments.size(), 1u);
}

TEST(HlsEdgeLog, LadderRenditionUris) {
  EdgeLog log(2, seconds(3.6), 6);
  log.append(edge_segment(7), time_at(0));
  const MediaPlaylist pl = log.live(time_at(0));
  ASSERT_EQ(pl.segments.size(), 1u);
  EXPECT_EQ(pl.segments[0].uri, "r2/seg_7.ts");
  EXPECT_EQ(pl.media_sequence, 7u);
}

TEST(HlsEdgeLog, ReopenClearsEndAndMarksDiscontinuity) {
  EdgeLog log(0, seconds(3.6), 6);
  log.reopen();  // nothing before it: no discontinuity
  log.append(edge_segment(0), time_at(0));
  log.append(edge_segment(1), time_at(0));
  log.end_stream();
  EXPECT_TRUE(log.live(time_at(0)).ended);
  log.reopen();
  EXPECT_FALSE(log.ended());
  log.append(edge_segment(2), time_at(0));
  log.append(edge_segment(3), time_at(0));
  const MediaPlaylist pl = log.live(time_at(0));
  EXPECT_FALSE(pl.ended);
  ASSERT_EQ(pl.segments.size(), 4u);
  for (const SegmentRef& seg : pl.segments) {
    EXPECT_EQ(seg.discontinuity, seg.sequence == 2) << seg.uri;
  }
  EXPECT_NE(write_m3u8(pl).find("#EXT-X-DISCONTINUITY\n#EXTINF:3.600,\n"
                                "seg_2.ts\n"),
            std::string::npos);
}

TEST(HlsEdgeLog, DiscontinuitySequenceCountsDiscontinuitiesLeftBehind) {
  EdgeLog log(0, seconds(3.6), 2);
  log.append(edge_segment(0), time_at(0));
  log.reopen();
  log.append(edge_segment(1), time_at(0));  // follows a discontinuity
  // Segment 1 is still listed: its own tag carries the discontinuity.
  EXPECT_EQ(log.live(time_at(0)).discontinuity_sequence, 0u);
  log.append(edge_segment(2), time_at(0));
  EXPECT_EQ(log.live(time_at(0)).discontinuity_sequence, 0u);
  log.append(edge_segment(3), time_at(0));  // window: 2, 3
  EXPECT_EQ(log.live(time_at(0)).discontinuity_sequence, 1u);
  log.retain_last(1);  // segment 1 leaves the log too
  EXPECT_EQ(log.live(time_at(0)).discontinuity_sequence, 1u);
  EXPECT_EQ(log.vod().discontinuity_sequence, 1u);
}

/// A segment holding `bytes` bytes of TS.
Segment segment_with_bytes(std::uint64_t sequence, std::size_t bytes) {
  Segment seg = edge_segment(sequence);
  seg.duration = seconds(3.0 + 0.1 * static_cast<double>(sequence));
  seg.start_dts = seconds(3.6 * static_cast<double>(sequence));
  seg.ts_data = Bytes(bytes, static_cast<std::uint8_t>(sequence));
  return seg;
}

/// Segments 0..7 at t = 1..8 s, segment 2 after a discontinuity; a
/// window of three.
EdgeLog eviction_log() {
  EdgeLog log(1, seconds(3.6), 3);
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (i == 2) log.reopen();
    log.append(segment_with_bytes(i, 100 + i),
               time_at(1.0 + static_cast<double>(i)));
  }
  return log;
}

TEST(HlsEdgeLog, EvictKeepsLiveAndVodPlaylistsIdentical) {
  EdgeLog log = eviction_log();
  std::vector<std::string> live_before;
  for (double t = 0; t <= 9; t += 0.5) {
    live_before.push_back(write_m3u8(log.live(time_at(t))));
  }
  const std::string vod_before = write_m3u8(log.vod());

  // At t = 8 the window is 5..7; below a mark of 6, segments 0..4 go.
  EXPECT_EQ(log.evict(6, time_at(8)), 100u + 101 + 102 + 103 + 104);
  EXPECT_EQ(log.evicted_below(), 5u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(log[i].segment.ts_data.empty(), i < 5) << i;
    EXPECT_EQ(log[i].segment.sequence, i);
    EXPECT_EQ(log[i].segment.start_dts,
              seconds(3.6 * static_cast<double>(i)));
    EXPECT_EQ(log[i].available_at, time_at(1.0 + static_cast<double>(i)));
    EXPECT_EQ(log[i].discontinuity, i == 2);
  }
  std::size_t k = 0;
  for (double t = 0; t <= 9; t += 0.5, ++k) {
    EXPECT_EQ(write_m3u8(log.live(time_at(t))), live_before[k]) << t;
  }
  EXPECT_EQ(write_m3u8(log.vod()), vod_before);
}

TEST(HlsEdgeLog, EvictStopsAtTheMarkAndTheLiveWindow) {
  EdgeLog log = eviction_log();
  // Nothing has left the window at t = 3 (segments 0..2 are servable).
  EXPECT_EQ(log.evict(8, time_at(3)), 0u);
  // The mark holds segment 2 although the window at t = 8 starts at 5.
  EXPECT_EQ(log.evict(2, time_at(8)), 100u + 101);
  EXPECT_EQ(log.evicted_below(), 2u);
  // A lower mark later does not bring bytes back or evict again.
  EXPECT_EQ(log.evict(1, time_at(8)), 0u);
  EXPECT_EQ(log.evicted_below(), 2u);
  // A mark past every segment still stops at the window.
  EXPECT_EQ(log.evict(UINT64_MAX, time_at(8)), 102u + 103 + 104);
  EXPECT_EQ(log.evicted_below(), 5u);
  EXPECT_EQ(log.window_first_sequence(time_at(8)), 5u);
  // clear() forgets eviction with the segments.
  log.clear();
  EXPECT_EQ(log.evicted_below(), 0u);
}

TEST(HlsEdgeLog, EvictedSegmentGetThrows) {
  EdgeLog log = eviction_log();
  log.evict(6, time_at(8));
  EXPECT_THROW(log.find(0, time_at(8)), std::logic_error);
  EXPECT_THROW(log.find(4, time_at(99)), std::logic_error);
  const EdgeSegment* five = log.find(5, time_at(8));
  ASSERT_NE(five, nullptr);
  EXPECT_EQ(five->segment.ts_data.size(), 105u);
  EXPECT_EQ(log.find(8, time_at(99)), nullptr);  // never cut
  // Trimming the evicted head leaves lookups consistent.
  log.retain_last(5);
  EXPECT_EQ(log.evicted_below(), 5u);
  EXPECT_EQ(log.find(2, time_at(99)), nullptr);  // trimmed
  EXPECT_THROW(log.find(4, time_at(99)), std::logic_error);
  EXPECT_NE(log.find(5, time_at(99)), nullptr);
}

TEST(HlsEdgeUri, FormatsAndParsesSegmentUris) {
  EXPECT_EQ(segment_uri(0, 17), "seg_17.ts");
  EXPECT_EQ(segment_uri(2, 5), "r2/seg_5.ts");
  EXPECT_EQ(rendition_uri(0, "playlist.m3u8"), "playlist.m3u8");
  EXPECT_EQ(rendition_uri(1, "playlist.m3u8"), "r1/playlist.m3u8");
  EXPECT_EQ(parse_segment_leaf("seg_17.ts"), 17u);
  EXPECT_EQ(parse_segment_leaf("seg_0.ts"), 0u);
  EXPECT_EQ(parse_segment_leaf("seg_18446744073709551615.ts"),
            18446744073709551615ull);
  for (const char* bad :
       {"seg_017.ts", "seg_.ts", "seg_1.tsx", "seg_-1.ts", "seg_+1.ts",
        "seg_ 1.ts", "seg_1.ts/", "r1/seg_1.ts", "seg_1", "seg_.t",
        "seg_18446744073709551616.ts", "playlist.m3u8"}) {
    EXPECT_FALSE(parse_segment_leaf(bad).has_value()) << bad;
  }
}

TEST(HlsEdgeUri, SplitsRequestPaths) {
  const auto split = [](std::string_view path) {
    const auto p = split_edge_path(path);
    return p ? std::string(p->stream) + "|" + std::to_string(p->rendition) +
                   "|" + std::string(p->leaf)
             : std::string("none");
  };
  EXPECT_EQ(split("/hls/abc/playlist.m3u8"), "abc|0|playlist.m3u8");
  EXPECT_EQ(split("/hls/abc/r2/seg_3.ts"), "abc|2|seg_3.ts");
  EXPECT_EQ(split("/hls/abc/r12/vod.m3u8"), "abc|12|vod.m3u8");
  // Not a rendition prefix: the leaf keeps it and names nothing.
  EXPECT_EQ(split("/hls/abc/r0/seg_3.ts"), "abc|0|r0/seg_3.ts");
  EXPECT_EQ(split("/hls/abc/r1x/seg_3.ts"), "abc|0|r1x/seg_3.ts");
  EXPECT_EQ(split("/hls/abc/r1"), "abc|0|r1");
  EXPECT_EQ(split("/hls//media.m3u8"), "|0|media.m3u8");
  EXPECT_EQ(split("/hls/abc"), "none");
  EXPECT_EQ(split("/other/abc/playlist.m3u8"), "none");
}

media::MediaSample vframe(double dts_s, bool key, std::size_t size = 800) {
  media::MediaSample s;
  s.kind = media::SampleKind::Video;
  s.dts = seconds(dts_s);
  s.pts = seconds(dts_s + 1.0 / 30);
  s.keyframe = key;
  s.data.assign(size, 0x5A);
  return s;
}

TEST(Segmenter, CutsAtKeyframeAfterTarget) {
  Segmenter seg(seconds(3.6));
  std::vector<Segment> done;
  // 30 fps, keyframe every 36 frames (1.2 s GOP).
  for (int i = 0; i < 360; ++i) {
    auto out = seg.push(vframe(i / 30.0, i % 36 == 0));
    if (out) done.push_back(std::move(*out));
  }
  // 12 s of video -> segments at 3.6 s boundaries: ~3 completed.
  ASSERT_GE(done.size(), 2u);
  for (const Segment& s : done) {
    EXPECT_NEAR(to_s(s.duration), 3.6, 0.05);
    EXPECT_EQ(s.ts_data.size() % mpegts::kTsPacketSize, 0u);
  }
  EXPECT_EQ(done[0].sequence, 0u);
  EXPECT_EQ(done[1].sequence, 1u);
}

TEST(Segmenter, PaperSegmentIs108FramesAt30Fps) {
  // 3.6 s at 30 fps = 108 frames — the paper's modal segment.
  Segmenter seg(seconds(3.6));
  int frames_in_first = 0;
  for (int i = 0; i < 200; ++i) {
    auto out = seg.push(vframe(i / 30.0, i % 36 == 0));
    if (out) {
      frames_in_first = i;  // frames pushed before the cut
      break;
    }
  }
  EXPECT_EQ(frames_in_first, 108);
}

TEST(Segmenter, DropsLeadingNonKeyframes) {
  Segmenter seg(seconds(3.6));
  EXPECT_FALSE(seg.push(vframe(0.0, false)).has_value());
  EXPECT_FALSE(seg.push(vframe(0.033, false)).has_value());
  // First keyframe opens the segment; flush returns it.
  EXPECT_FALSE(seg.push(vframe(0.066, true)).has_value());
  auto out = seg.flush();
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(out->ts_data.size(), 0u);
  EXPECT_NEAR(to_s(out->start_dts), 0.066, 1e-9);
}

TEST(Segmenter, FlushEmptyReturnsNothing) {
  Segmenter seg;
  EXPECT_FALSE(seg.flush().has_value());
}

TEST(Segmenter, AudioRidesAlongInSegments) {
  Segmenter seg(seconds(3.6));
  media::MediaSample audio;
  audio.kind = media::SampleKind::Audio;
  audio.keyframe = true;
  audio.data.assign(100, 0xAA);
  std::vector<Segment> done;
  for (int i = 0; i < 240; ++i) {
    auto out = seg.push(vframe(i / 30.0, i % 36 == 0));
    if (out) done.push_back(std::move(*out));
    audio.dts = seconds(i / 30.0 + 0.01);
    audio.pts = audio.dts;
    auto out2 = seg.push(audio);
    if (out2) done.push_back(std::move(*out2));
  }
  ASSERT_GE(done.size(), 1u);
  // Demux a completed segment: must contain both PIDs.
  mpegts::TsDemuxer demux;
  ASSERT_TRUE(demux.push(done[0].ts_data).ok());
  demux.flush();
  int video = 0, audio_n = 0;
  for (const auto& s : demux.take_samples()) {
    (s.kind == media::SampleKind::Video ? video : audio_n)++;
  }
  EXPECT_GT(video, 100);
  EXPECT_GT(audio_n, 100);
}

TEST(Segmenter, SegmentsIndependentlyDemuxable) {
  // Each segment begins with PSI, so a demuxer that never saw earlier
  // segments can decode it (mid-stream join).
  Segmenter seg(seconds(3.6));
  std::vector<Segment> done;
  for (int i = 0; i < 360; ++i) {
    auto out = seg.push(vframe(i / 30.0, i % 36 == 0));
    if (out) done.push_back(std::move(*out));
  }
  ASSERT_GE(done.size(), 2u);
  mpegts::TsDemuxer demux;  // fresh, fed only the LAST segment
  ASSERT_TRUE(demux.push(done.back().ts_data).ok());
  demux.flush();
  EXPECT_GT(demux.take_samples().size(), 50u);
}

}  // namespace
}  // namespace psc::hls
