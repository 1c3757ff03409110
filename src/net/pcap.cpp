#include "net/pcap.h"

#include <cmath>
#include <cstdio>

namespace psc::net {

namespace {

constexpr std::uint32_t kMagic = 0xA1B2C3D4;
constexpr std::uint32_t kLinkTypeRaw = 101;  // raw IPv4
constexpr std::size_t kIpHeader = 20;
constexpr std::size_t kTcpHeader = 20;

void write_u16(ByteWriter& w, std::uint16_t v) { w.u16be(v); }

/// IPv4 header checksum.
std::uint16_t ip_checksum(BytesView header) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < header.size(); i += 2) {
    sum += (std::uint32_t{header[i]} << 8) | header[i + 1];
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

Bytes write_pcap(const Capture& cap, const PcapEndpoints& ep,
                 std::size_t mtu) {
  ByteWriter w;
  // Global header (big-endian writer; magic readable either way).
  w.u32be(kMagic);
  w.u16be(2);   // version major
  w.u16be(4);   // version minor
  w.u32be(0);   // thiszone
  w.u32be(0);   // sigfigs
  w.u32be(65535);
  w.u32be(kLinkTypeRaw);

  std::uint32_t seq = 1;
  for (std::size_t i = 0; i < cap.packets().size(); ++i) {
    const Capture::Packet& pkt = cap.packets()[i];
    const BytesView payload = cap.packet_data(i);
    for (std::size_t off = 0; off < payload.size(); off += mtu) {
      const std::size_t n = std::min(mtu, payload.size() - off);
      const double t = to_s(pkt.time);
      const auto secs = static_cast<std::uint32_t>(t);
      const auto usecs =
          static_cast<std::uint32_t>(std::lround((t - secs) * 1e6));
      const std::size_t caplen = kIpHeader + kTcpHeader + n;
      // Record header.
      w.u32be(secs);
      w.u32be(usecs >= 1000000 ? 999999 : usecs);
      w.u32be(static_cast<std::uint32_t>(caplen));
      w.u32be(static_cast<std::uint32_t>(caplen));
      // IPv4 header.
      ByteWriter ip;
      ip.u8(0x45);  // v4, IHL 5
      ip.u8(0);
      write_u16(ip, static_cast<std::uint16_t>(caplen));
      write_u16(ip, static_cast<std::uint16_t>(seq & 0xFFFF));  // id
      write_u16(ip, 0x4000);  // DF
      ip.u8(64);              // TTL
      ip.u8(6);               // TCP
      write_u16(ip, 0);       // checksum placeholder
      ip.u32be(ep.src_ip);
      ip.u32be(ep.dst_ip);
      Bytes ip_hdr = ip.take();
      const std::uint16_t csum = ip_checksum(ip_hdr);
      ip_hdr[10] = static_cast<std::uint8_t>(csum >> 8);
      ip_hdr[11] = static_cast<std::uint8_t>(csum);
      w.raw(ip_hdr);
      // TCP header (checksum omitted: 0 — wireshark flags it, fine for
      // synthesized traces).
      ByteWriter tcp;
      write_u16(tcp, ep.src_port);
      write_u16(tcp, ep.dst_port);
      tcp.u32be(seq);
      tcp.u32be(1);           // ack
      tcp.u8(0x50);           // data offset 5
      tcp.u8(0x18);           // PSH|ACK
      write_u16(tcp, 65535);  // window
      write_u16(tcp, 0);      // checksum
      write_u16(tcp, 0);      // urgent
      w.raw(tcp.bytes());
      w.raw(payload.subspan(off, n));
      seq += static_cast<std::uint32_t>(n);
    }
  }
  return w.take();
}

Result<Capture> read_pcap(BytesView file) {
  ByteReader r(file);
  auto magic = r.u32be();
  if (!magic || magic.value() != kMagic) {
    return make_error("pcap", "bad magic (only big-endian v2.4 supported)");
  }
  if (auto s = r.skip(16); !s) return s.error();
  auto linktype = r.u32be();
  if (!linktype || linktype.value() != kLinkTypeRaw) {
    return make_error("pcap", "unsupported link type");
  }
  Capture cap;
  while (!r.at_end()) {
    auto secs = r.u32be();
    if (!secs) return secs.error();
    auto usecs = r.u32be();
    if (!usecs) return usecs.error();
    auto caplen = r.u32be();
    if (!caplen) return caplen.error();
    if (auto orig = r.u32be(); !orig) return orig.error();
    auto frame = r.view(caplen.value());
    if (!frame) return frame.error();
    const BytesView f = frame.value();
    if (f.size() < kIpHeader + kTcpHeader) {
      return make_error("pcap", "frame shorter than IP+TCP headers");
    }
    if ((f[0] >> 4) != 4) return make_error("pcap", "not IPv4");
    const std::size_t ihl = static_cast<std::size_t>(f[0] & 0x0F) * 4;
    const std::size_t tcp_off =
        ihl + static_cast<std::size_t>((f[ihl + 12] >> 4)) * 4;
    if (tcp_off > f.size()) {
      return make_error("pcap", "TCP header overruns frame");
    }
    const double t =
        static_cast<double>(secs.value()) + usecs.value() / 1e6;
    cap.record_copy(time_at(t), f.subspan(tcp_off));
  }
  return cap;
}

Status write_pcap_file(const Capture& cap, const std::string& path,
                       const PcapEndpoints& endpoints) {
  const Bytes data = write_pcap(cap, endpoints);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Error{"io", "cannot open " + path};
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (written != data.size()) return Error{"io", "short write to " + path};
  return {};
}

Result<Capture> read_pcap_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return make_error("io", "cannot open " + path);
  Bytes data;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return read_pcap(data);
}

}  // namespace psc::net
