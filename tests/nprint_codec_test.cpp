#include "nprint/codec.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "net/packet.hpp"

namespace repro::nprint {
namespace {

using net::IpProto;
using net::Packet;

TEST(Codec, EncodedRowHasTernaryValuesOnly) {
  const Packet pkt = net::make_tcp_packet(1, 2, 1000, 443, 64, 0.0);
  const auto row = encode_packet(pkt);
  ASSERT_EQ(row.size(), kBitsPerPacket);
  for (float v : row) {
    EXPECT_TRUE(v == -1.0f || v == 0.0f || v == 1.0f);
  }
}

TEST(Codec, TcpPacketVacatesUdpAndIcmpRegions) {
  const Packet pkt = net::make_tcp_packet(1, 2, 1000, 443, 64, 0.0);
  const auto row = encode_packet(pkt);
  for (std::size_t i = kUdpOffset; i < kUdpOffset + kUdpBits; ++i) {
    EXPECT_EQ(row[i], -1.0f);
  }
  for (std::size_t i = kIcmpOffset; i < kIcmpOffset + kIcmpBits; ++i) {
    EXPECT_EQ(row[i], -1.0f);
  }
  // TCP fixed header (160 bits) must be fully occupied.
  for (std::size_t i = 0; i < 160; ++i) {
    EXPECT_NE(row[i], -1.0f) << "bit " << i;
  }
}

TEST(Codec, UdpPacketVacatesTcpRegion) {
  const Packet pkt = net::make_udp_packet(1, 2, 5000, 53, 32, 0.0);
  const auto row = encode_packet(pkt);
  for (std::size_t i = kTcpOffset; i < kTcpOffset + kTcpBits; ++i) {
    EXPECT_EQ(row[i], -1.0f);
  }
  for (std::size_t i = kUdpOffset; i < kUdpOffset + kUdpBits; ++i) {
    EXPECT_NE(row[i], -1.0f);
  }
}

TEST(Codec, OptionBitsVacantWithoutOptions) {
  const Packet pkt = net::make_tcp_packet(1, 2, 1, 2, 0, 0.0);
  const auto row = encode_packet(pkt);
  // No TCP options -> bits 160..479 vacant.
  for (std::size_t i = 160; i < kTcpBits; ++i) {
    EXPECT_EQ(row[i], -1.0f);
  }
  // Same for IPv4 options.
  for (std::size_t i = kIpv4Offset + 160; i < kIpv4Offset + kIpv4Bits; ++i) {
    EXPECT_EQ(row[i], -1.0f);
  }
}

TEST(Codec, TcpOptionsOccupyOptionBits) {
  Packet pkt = net::make_tcp_packet(1, 2, 1, 2, 0, 0.0);
  pkt.tcp->options = {0x02, 0x04, 0x05, 0xb4};  // MSS 1460
  const auto row = encode_packet(pkt);
  for (std::size_t i = 160; i < 160 + 32; ++i) {
    EXPECT_NE(row[i], -1.0f);
  }
  for (std::size_t i = 160 + 32; i < kTcpBits; ++i) {
    EXPECT_EQ(row[i], -1.0f);
  }
}

struct RoundTripCase {
  const char* name;
  IpProto proto;
};

// Without a printer gtest shows a parameter as its raw bytes, pointers
// included, and that text becomes part of the ctest name: print the label.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTripTest, FieldLevelRoundTrip) {
  Packet pkt;
  switch (GetParam().proto) {
    case IpProto::kTcp: {
      pkt = net::make_tcp_packet(0xC0A80105, 0x17202122, 49152, 443, 512, 0.0);
      pkt.tcp->seq = 0xA1B2C3D4;
      pkt.tcp->ack = 0x01020304;
      pkt.tcp->ack_flag = true;
      pkt.tcp->psh = true;
      pkt.tcp->window = 29200;
      pkt.ip.ttl = 57;
      break;
    }
    case IpProto::kUdp: {
      pkt = net::make_udp_packet(0xC0A80105, 0x17202122, 40000, 3478, 180, 0.0);
      pkt.ip.dscp = 46;
      pkt.ip.ttl = 61;
      break;
    }
    case IpProto::kIcmp: {
      pkt = net::make_icmp_packet(0xC0A80105, 0x08080404, 8, 0, 56, 0.0);
      pkt.icmp->rest_of_header = 0x00420007;
      break;
    }
  }
  const auto row = encode_packet(pkt);
  Packet decoded;
  ASSERT_TRUE(decode_packet(row.data(), decoded));
  EXPECT_EQ(decoded.ip.protocol, pkt.ip.protocol);
  EXPECT_EQ(decoded.ip.src_addr, pkt.ip.src_addr);
  EXPECT_EQ(decoded.ip.dst_addr, pkt.ip.dst_addr);
  EXPECT_EQ(decoded.ip.ttl, pkt.ip.ttl);
  EXPECT_EQ(decoded.ip.dscp, pkt.ip.dscp);
  EXPECT_EQ(decoded.payload.size(), pkt.payload.size());
  switch (GetParam().proto) {
    case IpProto::kTcp:
      ASSERT_TRUE(decoded.tcp.has_value());
      EXPECT_EQ(decoded.tcp->src_port, pkt.tcp->src_port);
      EXPECT_EQ(decoded.tcp->dst_port, pkt.tcp->dst_port);
      EXPECT_EQ(decoded.tcp->seq, pkt.tcp->seq);
      EXPECT_EQ(decoded.tcp->ack, pkt.tcp->ack);
      EXPECT_EQ(decoded.tcp->ack_flag, pkt.tcp->ack_flag);
      EXPECT_EQ(decoded.tcp->psh, pkt.tcp->psh);
      EXPECT_EQ(decoded.tcp->window, pkt.tcp->window);
      break;
    case IpProto::kUdp:
      ASSERT_TRUE(decoded.udp.has_value());
      EXPECT_EQ(decoded.udp->src_port, pkt.udp->src_port);
      EXPECT_EQ(decoded.udp->dst_port, pkt.udp->dst_port);
      break;
    case IpProto::kIcmp:
      ASSERT_TRUE(decoded.icmp.has_value());
      EXPECT_EQ(decoded.icmp->type, pkt.icmp->type);
      EXPECT_EQ(decoded.icmp->rest_of_header, pkt.icmp->rest_of_header);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, CodecRoundTripTest,
    ::testing::Values(RoundTripCase{"tcp", IpProto::kTcp},
                      RoundTripCase{"udp", IpProto::kUdp},
                      RoundTripCase{"icmp", IpProto::kIcmp}),
    [](const ::testing::TestParamInfo<RoundTripCase>& param_info) {
      return param_info.param.name;
    });

TEST(Codec, DecodeVacantRowReturnsFalse) {
  const std::vector<float> vacant(kBitsPerPacket, -1.0f);
  Packet pkt;
  EXPECT_FALSE(decode_packet(vacant.data(), pkt));
}

TEST(Codec, TcpOptionsRoundTrip) {
  Packet pkt = net::make_tcp_packet(1, 2, 80, 8080, 0, 0.0);
  pkt.tcp->syn = true;
  pkt.tcp->options = {0x02, 0x04, 0x05, 0xb4, 0x01, 0x03, 0x03, 0x07};
  const auto row = encode_packet(pkt);
  Packet decoded;
  ASSERT_TRUE(decode_packet(row.data(), decoded));
  ASSERT_TRUE(decoded.tcp.has_value());
  EXPECT_EQ(decoded.tcp->options, pkt.tcp->options);
}

TEST(Codec, EncodeFlowShapesAndPadding) {
  net::Flow flow;
  for (int i = 0; i < 5; ++i) {
    flow.packets.push_back(net::make_tcp_packet(1, 2, 10, 20, 0, i * 0.1));
  }
  const Matrix unpadded = encode_flow(flow, 16, /*pad_to_max=*/false);
  EXPECT_EQ(unpadded.rows(), 5u);
  const Matrix padded = encode_flow(flow, 16, /*pad_to_max=*/true);
  EXPECT_EQ(padded.rows(), 16u);
  EXPECT_EQ(padded.active_rows(), 5u);
  for (std::size_t r = 5; r < 16; ++r) {
    EXPECT_TRUE(padded.row_vacant(r));
  }
}

TEST(Codec, EncodeFlowTruncatesLongFlows) {
  net::Flow flow;
  for (int i = 0; i < 40; ++i) {
    flow.packets.push_back(net::make_udp_packet(1, 2, 10, 20, 8, i * 0.1));
  }
  const Matrix matrix = encode_flow(flow, 16);
  EXPECT_EQ(matrix.rows(), 16u);
  EXPECT_EQ(matrix.active_rows(), 16u);
}

TEST(Codec, DecodeFlowSkipsVacantRowsAndAssignsTimestamps) {
  net::Flow flow;
  for (int i = 0; i < 3; ++i) {
    flow.packets.push_back(net::make_udp_packet(1, 2, 10, 20, 8, 0.0));
  }
  const Matrix matrix = encode_flow(flow, 8, /*pad_to_max=*/true);
  const net::Flow decoded = decode_flow(matrix, 0.01);
  ASSERT_EQ(decoded.packets.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded.packets[0].timestamp, 0.0);
  EXPECT_NEAR(decoded.packets[2].timestamp, 0.02, 1e-9);
}

TEST(Codec, QuantizeSnapsToNearest) {
  Matrix m(1);
  m.at(0, 0) = 0.9f;
  m.at(0, 1) = 0.4f;
  m.at(0, 2) = -0.2f;
  m.at(0, 3) = -0.8f;
  m.at(0, 4) = 3.7f;
  quantize(m);
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 1), 0.0f);
  EXPECT_EQ(m.at(0, 2), 0.0f);
  EXPECT_EQ(m.at(0, 3), -1.0f);
  EXPECT_EQ(m.at(0, 4), 1.0f);
}

TEST(Codec, TernaryFraction) {
  Matrix m(1);  // all -1 initially
  EXPECT_DOUBLE_EQ(ternary_fraction(m), 1.0);
  m.at(0, 0) = 0.5f;
  EXPECT_LT(ternary_fraction(m), 1.0);
  quantize(m);
  EXPECT_DOUBLE_EQ(ternary_fraction(m), 1.0);
}

TEST(Codec, CsvExportShapeAndValues) {
  net::Flow flow;
  flow.packets.push_back(net::make_udp_packet(1, 2, 53, 53, 4, 0.0));
  const Matrix m = encode_flow(flow, 2, /*pad_to_max=*/true);
  const std::string csv = to_csv(m);
  // Header + 2 data lines.
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(csv.rfind("tcp_sprt_0,", 0), 0u);  // header starts with bit 0
  // Padding row is all -1.
  const std::size_t last_line = csv.rfind("-1,-1,");
  EXPECT_NE(last_line, std::string::npos);
  const std::string headerless = to_csv(m, /*include_header=*/false);
  std::size_t data_lines = 0;
  for (char c : headerless) {
    if (c == '\n') ++data_lines;
  }
  EXPECT_EQ(data_lines, 2u);
}

TEST(Codec, FieldSpansTileLayoutExactly) {
  const auto& spans = field_spans();
  std::vector<bool> covered(kBitsPerPacket, false);
  for (const auto& span : spans) {
    for (std::size_t i = 0; i < span.bits; ++i) {
      ASSERT_LT(span.offset + i, kBitsPerPacket);
      EXPECT_FALSE(covered[span.offset + i]) << "overlap at " << span.offset + i;
      covered[span.offset + i] = true;
    }
  }
  for (std::size_t i = 0; i < kBitsPerPacket; ++i) {
    EXPECT_TRUE(covered[i]) << "gap at " << i;
  }
}

TEST(Codec, DecodeRepairsCorruptedProtocolField) {
  // Encode a UDP packet, then corrupt the IPv4 protocol field to a random
  // pattern; occupancy voting must still pick UDP.
  const Packet pkt = net::make_udp_packet(1, 2, 1000, 53, 16, 0.0);
  auto row = encode_packet(pkt);
  for (std::size_t i = 0; i < 8; ++i) {
    row[kIpv4Offset + 72 + i] = 1.0f;  // protocol = 255
  }
  Packet decoded;
  ASSERT_TRUE(decode_packet(row.data(), decoded));
  EXPECT_EQ(decoded.ip.protocol, IpProto::kUdp);
  EXPECT_TRUE(decoded.udp.has_value());
}

TEST(Codec, DecodeClampsAbsurdTotalLength) {
  Packet pkt = net::make_udp_packet(1, 2, 1000, 53, 16, 0.0);
  auto row = encode_packet(pkt);
  // Force total_length bits (ipv4 offset + 16..31) to all ones = 65535.
  for (std::size_t i = 16; i < 32; ++i) {
    row[kIpv4Offset + i] = 1.0f;
  }
  Packet decoded;
  ASSERT_TRUE(decode_packet(row.data(), decoded));
  EXPECT_LE(decoded.payload.size(), 9000u);
}

TEST(Codec, DecodedFlowSerializesToValidPcapBytes) {
  // The full §3.1 back-transform: matrix -> flow -> wire bytes -> parse.
  net::Flow flow;
  flow.packets.push_back(net::make_tcp_packet(11, 22, 333, 443, 100, 0.0));
  const Matrix matrix = encode_flow(flow, 4, /*pad_to_max=*/true);
  const net::Flow decoded = decode_flow(matrix);
  ASSERT_EQ(decoded.packets.size(), 1u);
  const auto wire = decoded.packets[0].serialize();
  const Packet parsed = net::Packet::parse(wire);
  EXPECT_TRUE(parsed.consistent());
  EXPECT_EQ(parsed.tcp->dst_port, 443);
}

}  // namespace
}  // namespace repro::nprint
