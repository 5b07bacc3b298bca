#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/bytes.hpp"

namespace repro::net {
namespace {

std::vector<Packet> sample_packets() {
  std::vector<Packet> packets;
  packets.push_back(make_tcp_packet(0x0A000001, 0x0D0D0D0D, 40000, 443, 100, 0.000001));
  packets.push_back(make_udp_packet(0x0A000001, 0x0D0D0D0D, 40001, 3478, 160, 0.25));
  packets.push_back(make_icmp_packet(0x0A000001, 0x08080808, 8, 0, 56, 1.5));
  return packets;
}

TEST(Pcap, StreamRoundTrip) {
  std::stringstream stream;
  {
    PcapWriter writer(stream);
    for (const auto& pkt : sample_packets()) writer.write_packet(pkt);
    // Microsecond rounding: .9999990 stays in second 0, while .9999996
    // rounds up to 1,000,000 us and must carry into the seconds field.
    writer.write_packet(
        make_udp_packet(0x0A000001, 0x0D0D0D0D, 40002, 53, 32, 0.9999990));
    writer.write_packet(
        make_udp_packet(0x0A000001, 0x0D0D0D0D, 40003, 53, 32, 0.9999996));
    EXPECT_EQ(writer.records_written(), 5u);
  }
  stream.seekg(0);
  PcapReader reader(stream);
  EXPECT_EQ(reader.link_type(), 101u);  // raw IP
  Packet pkt;
  ASSERT_TRUE(reader.next_packet(pkt));
  EXPECT_TRUE(pkt.tcp.has_value());
  EXPECT_NEAR(pkt.timestamp, 0.000001, 1e-9);
  ASSERT_TRUE(reader.next_packet(pkt));
  EXPECT_TRUE(pkt.udp.has_value());
  EXPECT_NEAR(pkt.timestamp, 0.25, 1e-6);
  ASSERT_TRUE(reader.next_packet(pkt));
  EXPECT_TRUE(pkt.icmp.has_value());
  ASSERT_TRUE(reader.next_packet(pkt));
  EXPECT_NEAR(pkt.timestamp, 0.999999, 1e-9);
  ASSERT_TRUE(reader.next_packet(pkt));
  EXPECT_NEAR(pkt.timestamp, 1.000000, 1e-9);
  EXPECT_FALSE(reader.next_packet(pkt));
}

TEST(Pcap, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_pcap_test.pcap").string();
  const auto original = sample_packets();
  write_pcap_file(path, original);
  const auto loaded = read_pcap_file(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].serialize(), original[i].serialize()) << "packet " << i;
  }
  std::remove(path.c_str());
}

TEST(Pcap, GlobalHeaderFormat) {
  std::stringstream stream;
  PcapWriter writer(stream);
  const std::string raw = stream.str();
  ASSERT_EQ(raw.size(), 24u);
  // Little-endian microsecond magic.
  EXPECT_EQ(static_cast<unsigned char>(raw[0]), 0xd4);
  EXPECT_EQ(static_cast<unsigned char>(raw[1]), 0xc3);
  EXPECT_EQ(static_cast<unsigned char>(raw[2]), 0xb2);
  EXPECT_EQ(static_cast<unsigned char>(raw[3]), 0xa1);
}

TEST(Pcap, ReaderRejectsBadMagic) {
  std::stringstream stream;
  stream << "this is definitely not a pcap file......";
  EXPECT_THROW(PcapReader reader(stream), std::runtime_error);
}

TEST(Pcap, ReaderRejectsTruncatedHeader) {
  std::stringstream stream;
  stream << "\xd4\xc3\xb2\xa1";
  EXPECT_THROW(PcapReader reader(stream), std::runtime_error);
}

TEST(Pcap, ReaderThrowsOnTruncatedRecordBody) {
  std::stringstream stream;
  {
    PcapWriter writer(stream);
    writer.write_packet(sample_packets()[0]);
  }
  std::string raw = stream.str();
  raw.resize(raw.size() - 10);  // chop the record body
  std::stringstream cut(raw);
  PcapReader reader(cut);
  PcapRecord record;
  EXPECT_THROW(reader.next(record), std::runtime_error);
}

TEST(Pcap, EthernetLinkTypeSkipsMacHeader) {
  // Hand-build an Ethernet-framed capture of one IPv4/UDP packet.
  std::vector<std::uint8_t> file;
  repro::ByteWriter w(file);
  w.u32_le(0xa1b2c3d4);
  w.u16_le(2);
  w.u16_le(4);
  w.u32_le(0);
  w.u32_le(0);
  w.u32_le(65535);
  w.u32_le(1);  // LINKTYPE_ETHERNET
  const auto datagram = make_udp_packet(1, 2, 3, 4, 8, 0.0).serialize();
  const std::size_t frame_len = 14 + datagram.size();
  w.u32_le(3);  // ts sec
  w.u32_le(0);  // ts usec
  w.u32_le(static_cast<std::uint32_t>(frame_len));
  w.u32_le(static_cast<std::uint32_t>(frame_len));
  for (int i = 0; i < 12; ++i) w.u8(0xAA);  // MACs
  w.u16_be(0x0800);                         // EtherType IPv4
  w.bytes(datagram);

  std::stringstream stream(std::string(file.begin(), file.end()));
  PcapReader reader(stream);
  EXPECT_EQ(reader.link_type(), 1u);
  Packet pkt;
  ASSERT_TRUE(reader.next_packet(pkt));
  ASSERT_TRUE(pkt.udp.has_value());
  EXPECT_EQ(pkt.udp->dst_port, 4);
  EXPECT_NEAR(pkt.timestamp, 3.0, 1e-9);
}

TEST(Pcap, NextPacketSkipsNonIpv4EthernetFrames) {
  std::vector<std::uint8_t> file;
  repro::ByteWriter w(file);
  w.u32_le(0xa1b2c3d4);
  w.u16_le(2);
  w.u16_le(4);
  w.u32_le(0);
  w.u32_le(0);
  w.u32_le(65535);
  w.u32_le(1);
  // One ARP frame (should be skipped)...
  w.u32_le(0);
  w.u32_le(0);
  w.u32_le(16);
  w.u32_le(16);
  for (int i = 0; i < 12; ++i) w.u8(0xBB);
  w.u16_be(0x0806);  // ARP
  w.u16_be(0x0001);
  // ...then an IPv4 frame.
  const auto datagram = make_tcp_packet(1, 2, 3, 4, 0, 0.0).serialize();
  w.u32_le(1);
  w.u32_le(0);
  w.u32_le(static_cast<std::uint32_t>(14 + datagram.size()));
  w.u32_le(static_cast<std::uint32_t>(14 + datagram.size()));
  for (int i = 0; i < 12; ++i) w.u8(0xCC);
  w.u16_be(0x0800);
  w.bytes(datagram);

  std::stringstream stream(std::string(file.begin(), file.end()));
  PcapReader reader(stream);
  Packet pkt;
  ASSERT_TRUE(reader.next_packet(pkt));
  EXPECT_TRUE(pkt.tcp.has_value());
  EXPECT_FALSE(reader.next_packet(pkt));
}

TEST(Pcap, ReadsByteSwappedCaptures) {
  // A capture written on a big-endian machine: every header field is
  // byte-swapped relative to this host's pcap writer.
  std::vector<std::uint8_t> file;
  repro::ByteWriter w(file);
  w.u32_be(0xa1b2c3d4);  // magic in big-endian order -> swapped for us
  w.u16_be(2);
  w.u16_be(4);
  w.u32_be(0);
  w.u32_be(0);
  w.u32_be(65535);
  w.u32_be(101);  // raw IP
  const auto datagram = make_udp_packet(1, 2, 7, 9, 4, 0.0).serialize();
  w.u32_be(5);  // ts sec
  w.u32_be(250000);
  w.u32_be(static_cast<std::uint32_t>(datagram.size()));
  w.u32_be(static_cast<std::uint32_t>(datagram.size()));
  w.bytes(datagram);

  std::stringstream stream(std::string(file.begin(), file.end()));
  PcapReader reader(stream);
  EXPECT_EQ(reader.link_type(), 101u);
  Packet pkt;
  ASSERT_TRUE(reader.next_packet(pkt));
  ASSERT_TRUE(pkt.udp.has_value());
  EXPECT_EQ(pkt.udp->dst_port, 9);
  EXPECT_NEAR(pkt.timestamp, 5.25, 1e-6);
}

TEST(Pcap, WriteFileFailsOnBadPath) {
  EXPECT_THROW(write_pcap_file("/nonexistent-dir/x.pcap", {}),
               std::runtime_error);
  EXPECT_THROW(read_pcap_file("/nonexistent-dir/x.pcap"), std::runtime_error);
}

}  // namespace
}  // namespace repro::net
