// H.264 bitstream syntax tests: emulation prevention, SPS/PPS/slice
// round trips, NAL framing (Annex-B and AVCC), NTP SEI.
#include <gtest/gtest.h>

#include <algorithm>

#include "media/h264.h"

namespace psc::media {
namespace {

TEST(Ebsp, EscapesStartCodeLikeSequences) {
  const Bytes rbsp = {0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02};
  const Bytes ebsp = escape_ebsp(rbsp);
  // No 00 00 00/01/02 sequences may survive (00 00 03 is the legal
  // emulation-prevention pattern itself).
  for (std::size_t i = 0; i + 2 < ebsp.size(); ++i) {
    const bool bad =
        ebsp[i] == 0 && ebsp[i + 1] == 0 && ebsp[i + 2] <= 0x02;
    EXPECT_FALSE(bad) << "at offset " << i;
  }
  EXPECT_EQ(unescape_ebsp(ebsp), rbsp);
}

class EbspRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(EbspRoundtrip, RandomPayloadsSurvive) {
  std::uint64_t state = static_cast<std::uint64_t>(GetParam()) + 1;
  Bytes rbsp;
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ull + 1;
    // Skew towards zeros to provoke escaping.
    const auto b = static_cast<std::uint8_t>(state >> 33);
    rbsp.push_back(b % 5 == 0 ? 0x00 : b % 4);
  }
  EXPECT_EQ(unescape_ebsp(escape_ebsp(rbsp)), rbsp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EbspRoundtrip, ::testing::Range(0, 8));

struct SpsDims {
  int w, h;
};

class SpsRoundtrip : public ::testing::TestWithParam<SpsDims> {};

TEST_P(SpsRoundtrip, DimensionsSurvive) {
  Sps sps;
  sps.width = GetParam().w;
  sps.height = GetParam().h;
  auto parsed = parse_sps_rbsp(write_sps_rbsp(sps));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().width, sps.width);
  EXPECT_EQ(parsed.value().height, sps.height);
  EXPECT_EQ(parsed.value().profile_idc, 66);
  EXPECT_EQ(parsed.value().log2_max_frame_num, 8);
}

INSTANTIATE_TEST_SUITE_P(Dims, SpsRoundtrip,
                         ::testing::Values(SpsDims{320, 568},   // Periscope
                                           SpsDims{568, 320},   // landscape
                                           SpsDims{640, 480},
                                           SpsDims{1280, 720},
                                           SpsDims{176, 144},
                                           SpsDims{322, 242}));  // odd crop

TEST(Sps, HighProfileRejected) {
  Bytes rbsp = write_sps_rbsp(Sps{});
  rbsp[0] = 100;  // High profile
  auto parsed = parse_sps_rbsp(rbsp);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "unsupported");
}

class PpsRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(PpsRoundtrip, PicInitQpSurvives) {
  Pps pps;
  pps.pic_init_qp = GetParam();
  auto parsed = parse_pps_rbsp(write_pps_rbsp(pps));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().pic_init_qp, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Qps, PpsRoundtrip,
                         ::testing::Values(0, 10, 26, 35, 51));

struct SliceCase {
  FrameType type;
  bool idr;
  int qp;
  std::uint32_t frame_num;
};

class SliceRoundtrip : public ::testing::TestWithParam<SliceCase> {};

TEST_P(SliceRoundtrip, HeaderFieldsSurvive) {
  const SliceCase c = GetParam();
  Sps sps;
  Pps pps;
  SliceHeader hdr;
  hdr.type = c.type;
  hdr.idr = c.idr;
  hdr.qp = c.qp;
  hdr.frame_num = c.frame_num;
  const NalUnit nal = make_slice_nal(hdr, sps, pps, 600, 42);
  auto parsed = parse_slice_header(nal, sps, pps);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().type, c.type);
  EXPECT_EQ(parsed.value().idr, c.idr);
  EXPECT_EQ(parsed.value().qp, c.qp);
  EXPECT_EQ(parsed.value().frame_num, c.frame_num & 0xFF);
}

// gtest names each case by the raw bytes of its SliceCase, padding
// included. Static storage zero-fills that padding; temporaries built on
// the stack would leave it holding whatever was there, so the names would
// change from one run to the next.
const SliceCase kSliceCases[] = {
    {FrameType::I, true, 26, 0},    {FrameType::I, false, 40, 5},
    {FrameType::P, false, 18, 17},  {FrameType::P, false, 44, 255},
    {FrameType::B, false, 30, 100}, {FrameType::B, false, 51, 3},
};

INSTANTIATE_TEST_SUITE_P(Cases, SliceRoundtrip,
                         ::testing::ValuesIn(kSliceCases));

TEST(Slice, PayloadPaddedToRequestedSize) {
  Sps sps;
  Pps pps;
  SliceHeader hdr;
  const NalUnit nal = make_slice_nal(hdr, sps, pps, 5000, 1);
  EXPECT_GE(nal.rbsp.size(), 5000u);
  EXPECT_LT(nal.rbsp.size(), 5100u);
}

TEST(Slice, NalRefIdcConventions) {
  Sps sps;
  Pps pps;
  SliceHeader b_hdr{FrameType::B, false, 0, 30};
  EXPECT_EQ(make_slice_nal(b_hdr, sps, pps, 100, 1).nal_ref_idc, 0);
  SliceHeader i_hdr{FrameType::I, true, 0, 30};
  EXPECT_EQ(make_slice_nal(i_hdr, sps, pps, 100, 1).nal_ref_idc, 3);
  SliceHeader p_hdr{FrameType::P, false, 1, 30};
  EXPECT_EQ(make_slice_nal(p_hdr, sps, pps, 100, 1).nal_ref_idc, 2);
}

TEST(NalFraming, AnnexBRoundtrip) {
  Sps sps;
  Pps pps;
  std::vector<NalUnit> nals;
  nals.push_back(NalUnit{NalType::Sps, 3, write_sps_rbsp(sps)});
  nals.push_back(NalUnit{NalType::Pps, 3, write_pps_rbsp(pps)});
  nals.push_back(make_slice_nal(SliceHeader{}, sps, pps, 1200, 7));
  const Bytes annexb = annexb_wrap(nals);
  auto split = split_annexb(annexb);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split.value().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(split.value()[i].type, nals[i].type);
    EXPECT_EQ(split.value()[i].rbsp, nals[i].rbsp);
  }
}

TEST(NalFraming, AvccRoundtrip) {
  Sps sps;
  Pps pps;
  std::vector<NalUnit> nals;
  nals.push_back(make_ntp_sei(12345));
  nals.push_back(make_slice_nal(SliceHeader{}, sps, pps, 900, 3));
  const Bytes avcc = avcc_wrap(nals);
  auto split = split_avcc(avcc);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split.value().size(), 2u);
  EXPECT_EQ(split.value()[0].rbsp, nals[0].rbsp);
  EXPECT_EQ(split.value()[1].rbsp, nals[1].rbsp);
  // The views are the serialised NALs, in place.
  std::vector<BytesView> views;
  ASSERT_TRUE(avcc_nal_views(avcc, views).ok());
  ASSERT_EQ(views.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::ranges::equal(views[i], serialize_nal(nals[i]))) << i;
  }
}

TEST(NalFraming, AnnexBNoStartCodeFails) {
  const Bytes junk = {1, 2, 3, 4};
  EXPECT_FALSE(split_annexb(junk).ok());
}

TEST(NalFraming, AvccTruncatedFails) {
  ByteWriter w;
  w.u32be(100);  // claims 100 bytes, provides 2
  w.u8(0x65);
  w.u8(0x00);
  EXPECT_FALSE(split_avcc(w.bytes()).ok());
}

TEST(NalFraming, ForbiddenBitRejected) {
  ByteWriter w;
  w.u32be(0x00000001);
  w.u8(0xE5);  // forbidden_zero_bit set
  w.u8(0x00);
  EXPECT_FALSE(split_annexb(w.bytes()).ok());
}

TEST(AvcConfig, Roundtrip) {
  Sps sps;
  sps.width = 568;
  sps.height = 320;
  Pps pps;
  pps.pic_init_qp = 28;
  auto parsed = parse_avc_decoder_config(write_avc_decoder_config(sps, pps));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().sps.width, 568);
  EXPECT_EQ(parsed.value().sps.height, 320);
  EXPECT_EQ(parsed.value().pps.pic_init_qp, 28);
}

TEST(NtpSei, Roundtrip) {
  const std::uint64_t ntp = ntp_from_seconds(1234.5678);
  const NalUnit sei = make_ntp_sei(ntp);
  EXPECT_EQ(sei.type, NalType::Sei);
  auto parsed = parse_ntp_sei(sei);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ntp);
  EXPECT_NEAR(seconds_from_ntp(*parsed), 1234.5678, 1e-6);
}

TEST(NtpSei, NonSeiNalIgnored) {
  const NalUnit nal{NalType::Pps, 3, write_pps_rbsp(Pps{})};
  EXPECT_FALSE(parse_ntp_sei(nal).has_value());
}

TEST(NtpSei, SurvivesFramingRoundtrip) {
  const std::uint64_t ntp = ntp_from_seconds(99.25);
  auto split = split_annexb(annexb_wrap({make_ntp_sei(ntp)}));
  ASSERT_TRUE(split.ok());
  auto parsed = parse_ntp_sei(split.value()[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ntp);
}

TEST(NtpSei, SecondsConversionPrecision) {
  for (double s : {0.0, 1.5, 3600.25, 86400.125}) {
    EXPECT_NEAR(seconds_from_ntp(ntp_from_seconds(s)), s, 1e-6);
  }
}

}  // namespace
}  // namespace psc::media
