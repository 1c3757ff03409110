// net::Capture in both forms: one that keeps each record's bytes, and a
// records-only one that keeps {time, offset, size} and the byte total.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/reconstruct.h"
#include "net/capture.h"
#include "util/rng.h"

namespace psc {
namespace {

/// Record the same deliveries into `cap`: by slice, by view, and empty.
void record_sample(net::Capture& cap) {
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    Bytes data(static_cast<std::size_t>(rng.uniform_int(1, 3000)),
               static_cast<std::uint8_t>(i));
    const TimePoint t = time_at(10.0 + i * 0.04);
    if (i % 2 == 0) {
      cap.record(t, std::move(data));
    } else {
      cap.record_copy(t, data);
    }
  }
  cap.record(time_at(11.0), Bytes{});
}

net::Capture records_only() {
  net::Capture cap;
  cap.set_keep_bytes(false);
  return cap;
}

TEST(RecordsOnlyCapture, RecordsEqualAKeepingCapture) {
  net::Capture keep;
  net::Capture lean = records_only();
  record_sample(keep);
  record_sample(lean);
  EXPECT_TRUE(keep.keeps_bytes());
  EXPECT_FALSE(lean.keeps_bytes());
  ASSERT_EQ(lean.packets().size(), keep.packets().size());
  for (std::size_t i = 0; i < keep.packets().size(); ++i) {
    EXPECT_EQ(lean.packets()[i].time, keep.packets()[i].time) << i;
    EXPECT_EQ(lean.packets()[i].offset, keep.packets()[i].offset) << i;
    EXPECT_EQ(lean.packets()[i].size, keep.packets()[i].size) << i;
  }
  EXPECT_EQ(lean.total_bytes(), keep.total_bytes());
  EXPECT_EQ(lean.first_time(), keep.first_time());
  EXPECT_EQ(lean.last_time(), keep.last_time());
  for (std::size_t off = 0; off <= keep.total_bytes() + 10; off += 97) {
    EXPECT_EQ(lean.time_of_byte(off), keep.time_of_byte(off)) << off;
  }
}

TEST(RecordsOnlyCapture, ByteAccessorsThrow) {
  net::Capture lean = records_only();
  record_sample(lean);
  EXPECT_THROW((void)lean.packet_data(0), std::logic_error);
  EXPECT_THROW((void)lean.payload(), std::logic_error);
}

TEST(RecordsOnlyCapture, ReconstructionsReturnAnError) {
  net::Capture lean = records_only();
  // Long enough to pass the RTMP handshake-length check.
  lean.record(time_at(1), Bytes(8192, 0));
  EXPECT_FALSE(analysis::reconstruct_rtmp(lean).ok());
  EXPECT_FALSE(analysis::reconstruct_hls(lean).ok());
  // An empty records-only capture too: not an empty analysis.
  EXPECT_FALSE(analysis::reconstruct_hls(records_only()).ok());
}

TEST(RecordsOnlyCapture, SwitchingAfterRecordingThrows) {
  net::Capture cap;
  cap.record_copy(time_at(1), Bytes{1, 2, 3});
  EXPECT_THROW(cap.set_keep_bytes(false), std::logic_error);
  cap.clear();
  cap.set_keep_bytes(false);
  EXPECT_FALSE(cap.keeps_bytes());
}

TEST(RecordsOnlyCapture, ClearCountsTheBytesNotKept) {
  net::Capture keep;
  record_sample(keep);
  const std::uint64_t before = net::Capture::process_bytes_not_kept();
  keep.clear();
  EXPECT_EQ(net::Capture::process_bytes_not_kept(), before);

  net::Capture lean = records_only();
  record_sample(lean);
  const std::uint64_t total = lean.total_bytes();
  lean.clear();
  EXPECT_EQ(net::Capture::process_bytes_not_kept(), before + total);
  EXPECT_TRUE(lean.empty());
  EXPECT_EQ(lean.total_bytes(), 0u);
  lean.clear();  // nothing recorded since: counts nothing more
  EXPECT_EQ(net::Capture::process_bytes_not_kept(), before + total);
}

}  // namespace
}  // namespace psc
