#include "net/pcap.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/bytes.hpp"

namespace repro::net {
namespace {

constexpr std::uint32_t kMagicNative = 0xa1b2c3d4;   // microsecond pcap
constexpr std::uint32_t kMagicSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::uint32_t kLinkTypeRaw = 101;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

std::uint32_t swap32(std::uint32_t v) noexcept {
  return ((v & 0x000000FF) << 24) | ((v & 0x0000FF00) << 8) |
         ((v & 0x00FF0000) >> 8) | ((v & 0xFF000000) >> 24);
}

bool read_exact(std::istream& in, std::uint8_t* out, std::size_t n) {
  return read_bytes(in, out, n);
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  std::vector<std::uint8_t> header;
  ByteWriter w(header);
  w.u32_le(kMagicNative);
  w.u16_le(2);   // version major
  w.u16_le(4);   // version minor
  w.u32_le(0);   // thiszone
  w.u32_le(0);   // sigfigs
  w.u32_le(snaplen_);
  w.u32_le(kLinkTypeRaw);
  write_bytes(out_, header.data(), header.size());
}

void PcapWriter::write_record(const PcapRecord& record) {
  const auto caplen = static_cast<std::uint32_t>(
      std::min<std::size_t>(record.data.size(), snaplen_));
  auto secs = static_cast<std::uint32_t>(record.timestamp);
  auto usecs = static_cast<std::uint32_t>(
      std::llround((record.timestamp - static_cast<double>(secs)) * 1e6));
  if (usecs >= 1000000) {  // rounded up to the next whole second
    ++secs;
    usecs -= 1000000;
  }
  std::vector<std::uint8_t> header;
  ByteWriter w(header);
  w.u32_le(secs);
  w.u32_le(usecs);
  w.u32_le(caplen);
  w.u32_le(static_cast<std::uint32_t>(record.data.size()));
  write_bytes(out_, header.data(), header.size());
  write_bytes(out_, record.data.data(), caplen);
  ++count_;
}

void PcapWriter::write_packet(const Packet& packet) {
  write_record(PcapRecord{packet.timestamp, packet.serialize()});
}

PcapReader::PcapReader(std::istream& in) : in_(in) {
  std::uint8_t raw[24];
  if (!read_exact(in_, raw, sizeof raw)) {
    throw std::runtime_error("PcapReader: truncated global header");
  }
  ByteReader r(std::span<const std::uint8_t>(raw, sizeof raw));
  const std::uint32_t magic = r.u32_le();
  if (magic == kMagicNative) {
    swapped_ = false;
  } else if (magic == kMagicSwapped) {
    swapped_ = true;
  } else {
    throw std::runtime_error("PcapReader: bad magic");
  }
  r.skip(16);  // version, thiszone, sigfigs, snaplen
  std::uint32_t lt = r.u32_le();
  if (swapped_) lt = swap32(lt);
  link_type_ = lt;
  if (link_type_ != kLinkTypeRaw && link_type_ != kLinkTypeEthernet) {
    throw std::runtime_error("PcapReader: unsupported link type " +
                             std::to_string(link_type_));
  }
}

bool PcapReader::next(PcapRecord& record) {
  std::uint8_t raw[16];
  if (!read_exact(in_, raw, sizeof raw)) return false;  // clean EOF
  ByteReader r(std::span<const std::uint8_t>(raw, sizeof raw));
  std::uint32_t secs = r.u32_le();
  std::uint32_t usecs = r.u32_le();
  std::uint32_t caplen = r.u32_le();
  r.skip(4);  // original length
  if (swapped_) {
    secs = swap32(secs);
    usecs = swap32(usecs);
    caplen = swap32(caplen);
  }
  record.timestamp = static_cast<double>(secs) + 1e-6 * usecs;
  record.data.resize(caplen);
  if (!read_exact(in_, record.data.data(), caplen)) {
    throw std::runtime_error("PcapReader: truncated record body");
  }
  return true;
}

bool PcapReader::next_packet(Packet& packet) {
  PcapRecord record;
  while (next(record)) {
    std::span<const std::uint8_t> datagram(record.data);
    if (link_type_ == kLinkTypeEthernet) {
      if (datagram.size() < 14) continue;
      const std::uint16_t ether_type =
          static_cast<std::uint16_t>((datagram[12] << 8) | datagram[13]);
      if (ether_type != kEtherTypeIpv4) continue;
      datagram = datagram.subspan(14);
    }
    try {
      packet = Packet::parse(datagram, record.timestamp);
      return true;
    } catch (const std::exception&) {
      continue;  // skip malformed frames, keep reading
    }
  }
  return false;
}

void write_pcap_file(const std::string& path,
                     const std::vector<Packet>& packets) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_pcap_file: cannot open " + path);
  PcapWriter writer(out);
  for (const auto& pkt : packets) writer.write_packet(pkt);
}

std::vector<Packet> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pcap_file: cannot open " + path);
  PcapReader reader(in);
  std::vector<Packet> packets;
  Packet pkt;
  while (reader.next_packet(pkt)) packets.push_back(pkt);
  return packets;
}

}  // namespace repro::net
