#include "net/headers.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "net/checksum.hpp"

namespace repro::net {
namespace {

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.dscp = 46;
  h.ecn = 1;
  h.total_length = 1500;
  h.identification = 0xBEEF;
  h.flag_dont_fragment = true;
  h.flag_more_fragments = true;
  h.fragment_offset = 0x1ABC & 0x1FFF;
  h.ttl = 57;
  h.protocol = IpProto::kUdp;
  h.src_addr = ipv4_from_string("192.168.1.2");
  h.dst_addr = ipv4_from_string("13.32.4.5");

  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  ASSERT_EQ(buf.size(), 20u);

  ByteReader r{std::span<const std::uint8_t>(buf)};
  const Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.version, 4);
  EXPECT_EQ(parsed.dscp, 46);
  EXPECT_EQ(parsed.ecn, 1);
  EXPECT_EQ(parsed.total_length, 1500);
  EXPECT_EQ(parsed.identification, 0xBEEF);
  EXPECT_TRUE(parsed.flag_dont_fragment);
  EXPECT_TRUE(parsed.flag_more_fragments);
  EXPECT_EQ(parsed.fragment_offset, 0x1ABC & 0x1FFF);
  EXPECT_EQ(parsed.ttl, 57);
  EXPECT_EQ(parsed.protocol, IpProto::kUdp);
  EXPECT_EQ(parsed.src_addr, h.src_addr);
  EXPECT_EQ(parsed.dst_addr, h.dst_addr);
}

TEST(Ipv4Header, ChecksumValidOnWire) {
  Ipv4Header h;
  h.total_length = 40;
  h.src_addr = 0x01020304;
  h.dst_addr = 0x05060708;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(internet_checksum(buf), 0x0000);
}

TEST(Ipv4Header, OptionsExtendHeaderLength) {
  Ipv4Header h;
  h.options = {1, 1, 1, 1, 7, 3, 0, 0};  // 8 bytes
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  ASSERT_EQ(buf.size(), 28u);
  EXPECT_EQ(buf[0] & 0x0F, 7);  // ihl = 28/4
  ByteReader r{std::span<const std::uint8_t>(buf)};
  const Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.options, h.options);
}

TEST(Ipv4Header, RejectsUnpaddedOptions) {
  Ipv4Header h;
  h.options = {1, 2, 3};
  std::vector<std::uint8_t> buf;
  EXPECT_THROW(h.serialize(buf), std::invalid_argument);
}

TEST(Ipv4Header, RejectsOversizedOptions) {
  Ipv4Header h;
  h.options.assign(44, 0);
  std::vector<std::uint8_t> buf;
  EXPECT_THROW(h.serialize(buf), std::invalid_argument);
}

TEST(Ipv4Header, ParseRejectsShortIhl) {
  std::vector<std::uint8_t> buf(20, 0);
  buf[0] = 0x42;  // version 4, ihl 2
  ByteReader r{std::span<const std::uint8_t>(buf)};
  EXPECT_THROW(Ipv4Header::parse(r), std::invalid_argument);
}

struct TcpFlagCase {
  const char* name;
  bool syn, ack, fin, rst, psh, urg, ece, cwr;
};

// Without a printer gtest shows a parameter as its raw bytes, pointers
// included, and that text becomes part of the ctest name: print the label.
void PrintTo(const TcpFlagCase& c, std::ostream* os) { *os << c.name; }

class TcpFlagsTest : public ::testing::TestWithParam<TcpFlagCase> {};

TEST_P(TcpFlagsTest, FlagsRoundTrip) {
  const auto& param = GetParam();
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51514;
  h.seq = 0x11223344;
  h.ack = 0x55667788;
  h.syn = param.syn;
  h.ack_flag = param.ack;
  h.fin = param.fin;
  h.rst = param.rst;
  h.psh = param.psh;
  h.urg = param.urg;
  h.ece = param.ece;
  h.cwr = param.cwr;
  std::vector<std::uint8_t> buf;
  h.serialize(buf, {});
  ByteReader r{std::span<const std::uint8_t>(buf)};
  const TcpHeader parsed = TcpHeader::parse(r);
  EXPECT_EQ(parsed.syn, param.syn);
  EXPECT_EQ(parsed.ack_flag, param.ack);
  EXPECT_EQ(parsed.fin, param.fin);
  EXPECT_EQ(parsed.rst, param.rst);
  EXPECT_EQ(parsed.psh, param.psh);
  EXPECT_EQ(parsed.urg, param.urg);
  EXPECT_EQ(parsed.ece, param.ece);
  EXPECT_EQ(parsed.cwr, param.cwr);
  EXPECT_EQ(parsed.seq, h.seq);
  EXPECT_EQ(parsed.ack, h.ack);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlagCombos, TcpFlagsTest,
    ::testing::Values(
        TcpFlagCase{"syn", true, false, false, false, false, false, false, false},
        TcpFlagCase{"synack", true, true, false, false, false, false, false, false},
        TcpFlagCase{"finack", false, true, true, false, false, false, false, false},
        TcpFlagCase{"rst", false, false, false, true, false, false, false, false},
        TcpFlagCase{"pshack", false, true, false, false, true, false, false, false},
        TcpFlagCase{"urg", false, false, false, false, false, true, false, false},
        TcpFlagCase{"ecn", false, true, false, false, false, false, true, true},
        TcpFlagCase{"none", false, false, false, false, false, false, false, false}),
    [](const ::testing::TestParamInfo<TcpFlagCase>& param_info) {
      return param_info.param.name;
    });

TEST(TcpHeader, PseudoHeaderChecksumVerifies) {
  TcpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.seq = 42;
  h.ack_flag = true;
  h.ack = 77;
  const std::vector<std::uint8_t> payload = {'h', 'i', '!'};
  const std::uint32_t src = 0x0A000001, dst = 0x0A000002;
  std::vector<std::uint8_t> buf;
  h.serialize(buf, payload, src, dst);

  // Recompute over pseudo-header + segment: must cancel to zero.
  ChecksumAccumulator acc;
  acc.add_u32(src);
  acc.add_u32(dst);
  acc.add_u16(static_cast<std::uint16_t>(IpProto::kTcp));
  acc.add_u16(static_cast<std::uint16_t>(buf.size() + payload.size()));
  acc.add(buf);
  acc.add(payload);
  EXPECT_EQ(acc.finish(), 0x0000);
}

TEST(TcpHeader, OptionsRoundTripAndDataOffset) {
  TcpHeader h;
  h.options = {0x02, 0x04, 0x05, 0xb4, 0x01, 0x03, 0x03, 0x07};  // MSS + WS
  std::vector<std::uint8_t> buf;
  h.serialize(buf, {});
  ASSERT_EQ(buf.size(), 28u);
  EXPECT_EQ(buf[12] >> 4, 7);  // data offset = 28/4
  ByteReader r{std::span<const std::uint8_t>(buf)};
  EXPECT_EQ(TcpHeader::parse(r).options, h.options);
}

TEST(UdpHeader, SerializeSetsLengthAndChecksum) {
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 33000;
  const std::vector<std::uint8_t> payload(12, 0xAB);
  std::vector<std::uint8_t> buf;
  h.serialize(buf, payload, 0x01010101u, 0x02020202u);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ((buf[4] << 8) | buf[5], 20);  // 8 + 12
  // Checksum must verify over pseudo header.
  ChecksumAccumulator acc;
  acc.add_u32(0x01010101u);
  acc.add_u32(0x02020202u);
  acc.add_u16(static_cast<std::uint16_t>(IpProto::kUdp));
  acc.add_u16(20);
  acc.add(buf);
  acc.add(payload);
  EXPECT_EQ(acc.finish(), 0x0000);
}

TEST(UdpHeader, ParseRoundTrip) {
  UdpHeader h;
  h.src_port = 5004;
  h.dst_port = 5005;
  std::vector<std::uint8_t> buf;
  h.serialize(buf, std::vector<std::uint8_t>(4, 0));
  ByteReader r{std::span<const std::uint8_t>(buf)};
  const UdpHeader parsed = UdpHeader::parse(r);
  EXPECT_EQ(parsed.src_port, 5004);
  EXPECT_EQ(parsed.dst_port, 5005);
  EXPECT_EQ(parsed.length, 12);
}

TEST(IcmpHeader, ChecksumCoversPayload) {
  IcmpHeader h;
  h.type = 8;
  h.code = 0;
  h.rest_of_header = 0x00010002;
  const std::vector<std::uint8_t> payload(56, 0x42);
  std::vector<std::uint8_t> buf;
  h.serialize(buf, payload);
  ChecksumAccumulator acc;
  acc.add(buf);
  acc.add(payload);
  EXPECT_EQ(acc.finish(), 0x0000);
}

TEST(IcmpHeader, ParseRoundTrip) {
  IcmpHeader h;
  h.type = 0;
  h.code = 0;
  h.rest_of_header = 0xAABB0007;
  std::vector<std::uint8_t> buf;
  h.serialize(buf, {});
  ByteReader r{std::span<const std::uint8_t>(buf)};
  const IcmpHeader parsed = IcmpHeader::parse(r);
  EXPECT_EQ(parsed.type, 0);
  EXPECT_EQ(parsed.rest_of_header, 0xAABB0007u);
}

TEST(Ipv4Strings, FormatAndParse) {
  EXPECT_EQ(ipv4_to_string(0xC0A80101), "192.168.1.1");
  EXPECT_EQ(ipv4_from_string("192.168.1.1"), 0xC0A80101u);
  EXPECT_EQ(ipv4_from_string("0.0.0.0"), 0u);
  EXPECT_EQ(ipv4_from_string("255.255.255.255"), 0xFFFFFFFFu);
}

TEST(Ipv4Strings, ParseRejectsMalformed) {
  EXPECT_THROW(ipv4_from_string("1.2.3"), std::invalid_argument);
  EXPECT_THROW(ipv4_from_string("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(ipv4_from_string("256.0.0.1"), std::invalid_argument);
  EXPECT_THROW(ipv4_from_string("a.b.c.d"), std::invalid_argument);
}

TEST(ProtoName, Names) {
  EXPECT_EQ(proto_name(IpProto::kTcp), "TCP");
  EXPECT_EQ(proto_name(IpProto::kUdp), "UDP");
  EXPECT_EQ(proto_name(IpProto::kIcmp), "ICMP");
}

}  // namespace
}  // namespace repro::net
