// Response payloads are untrusted input on the client: the binary
// section's counts and lengths come from the peer. Starting from a
// golden two-flow response, every truncation and every lying count or
// length must decode to nullopt — and nothing may be allocated from a
// count that was not checked against the bytes left.
//
// This suite lives in its own executable: it replaces the global
// allocator with one that refuses any single request above 256 MiB, so
// an unchecked 0xFFFFFFFF count shows up as std::bad_alloc (escaping
// the decoder and failing the test) instead of gigabytes of real memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "flowgen/generator.hpp"
#include "serve/net/protocol.hpp"

// The replaced global allocator below intentionally pairs ::operator new
// with std::free; GCC cannot see that the new side is malloc-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

constexpr std::size_t kMaxAllocation = std::size_t{256} << 20;

void* checked_alloc(std::size_t size) {
  if (size <= kMaxAllocation) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace repro::serve::wire {
namespace {

constexpr char kHeader[] =
    "{\"request_id\":77,\"status\":\"ok\",\"model_version\":\"v1\","
    "\"cache_hit\":true,\"batch_flows\":5}";

Response two_flow_response() {
  Rng rng(123);
  Response response;
  response.request_id = 77;
  response.model_version = "v1";
  response.cache_hit = true;
  response.batch_flows = 5;
  for (int label = 0; label < 2; ++label) {
    net::Flow flow = flowgen::generate_flow(flowgen::App::kNetflix, 3, rng);
    flow.label = label - 1;  // a negative label crosses as its i32 bits
    response.flows.push_back(std::move(flow));
  }
  return response;
}

/// The payload of append_response_frame(response): the frame minus its
/// 8-byte header.
std::string payload_of(const Response& response) {
  std::vector<std::uint8_t> frame;
  append_response_frame(frame, response);
  return std::string(frame.begin() + kHeaderBytes, frame.end());
}

std::uint32_t read_u32(const std::string& s, std::size_t at) {
  ByteReader in({reinterpret_cast<const std::uint8_t*>(s.data()) + at, 4});
  return in.u32_be();
}

void write_u32(std::string& s, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    s[at + static_cast<std::size_t>(i)] =
        static_cast<char>(v >> (24 - 8 * i));
  }
}

/// Offsets into the golden payload of the flow count, the first flow's
/// packet count and the last packet's u16 length (the header length is
/// at offset 0).
struct Layout {
  std::size_t flow_count;
  std::size_t first_packet_count;
  std::size_t last_length;
};

Layout layout_of(const std::string& payload, const Response& response) {
  Layout at{};
  at.flow_count = 4 + read_u32(payload, 0);
  at.first_packet_count = at.flow_count + 4 + 4;
  std::size_t pos = at.flow_count + 4;
  for (const net::Flow& flow : response.flows) {
    pos += 8;
    for (const net::Packet& packet : flow.packets) {
      at.last_length = pos + 8;
      pos += 10 + packet.serialize().size();
    }
  }
  EXPECT_EQ(pos, payload.size());
  return at;
}

TEST(WireReply, GoldenTwoFlowLayout) {
  const Response response = two_flow_response();
  const std::string payload = payload_of(response);

  // u32 header length, then the JSON header itself.
  const std::string header(kHeader);
  ASSERT_EQ(read_u32(payload, 0), header.size());
  EXPECT_EQ(payload.substr(4, header.size()), header);

  // The binary section, field by field.
  std::string expected;
  {
    std::vector<std::uint8_t> bytes;
    ByteWriter w(bytes);
    w.u32_be(2);
    for (const net::Flow& flow : response.flows) {
      w.u32_be(static_cast<std::uint32_t>(flow.label));
      w.u32_be(static_cast<std::uint32_t>(flow.packets.size()));
      for (const net::Packet& packet : flow.packets) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &packet.timestamp, sizeof bits);
        const std::vector<std::uint8_t> datagram = packet.serialize();
        w.u64_be(bits);
        w.u16_be(static_cast<std::uint16_t>(datagram.size()));
        w.bytes(datagram);
      }
    }
    expected.assign(bytes.begin(), bytes.end());
  }
  EXPECT_EQ(payload.substr(4 + header.size()), expected);

  const auto decoded = parse_response_payload(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flows[0].label, -1);
  EXPECT_EQ(hash_wire_flows(decoded->flows), hash_flows(response.flows));
}

TEST(WireReply, EveryTruncationIsRejected) {
  const std::string payload = payload_of(two_flow_response());
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(parse_response_payload(payload.substr(0, n)).has_value())
        << "prefix of " << n << " bytes";
  }
}

TEST(WireReply, LyingCountsAndLengthsAreRejected) {
  const Response response = two_flow_response();
  const std::string golden = payload_of(response);
  const Layout at = layout_of(golden, response);
  ASSERT_TRUE(parse_response_payload(golden).has_value());

  {  // The last packet's length runs past the end.
    std::string s = golden;
    s[at.last_length] = static_cast<char>(0xFF);
    EXPECT_FALSE(parse_response_payload(s).has_value());
  }
  {  // Flow count 0xFFFFFFFF.
    std::string s = golden;
    write_u32(s, at.flow_count, 0xFFFFFFFFu);
    EXPECT_FALSE(parse_response_payload(s).has_value());
  }
  {  // Packet count 0xFFFFFFFF.
    std::string s = golden;
    write_u32(s, at.first_packet_count, 0xFFFFFFFFu);
    EXPECT_FALSE(parse_response_payload(s).has_value());
  }
  {  // Header length past the payload.
    std::string s = golden;
    write_u32(s, 0, static_cast<std::uint32_t>(s.size()));
    EXPECT_FALSE(parse_response_payload(s).has_value());
    write_u32(s, 0, 0xFFFFFFFFu);
    EXPECT_FALSE(parse_response_payload(s).has_value());
  }
  {  // Trailing bytes.
    EXPECT_FALSE(parse_response_payload(golden + '\0').has_value());
    EXPECT_FALSE(parse_response_payload(golden + "junk").has_value());
  }
}

TEST(WireReply, StatusMustBeOkOrCancelledWithNoFlows) {
  const auto with_header = [](const std::string& header,
                              std::uint32_t flows) {
    std::vector<std::uint8_t> bytes;
    ByteWriter w(bytes);
    w.u32_be(static_cast<std::uint32_t>(header.size()));
    w.bytes({reinterpret_cast<const std::uint8_t*>(header.data()),
             header.size()});
    w.u32_be(flows);
    for (std::uint32_t f = 0; f < flows; ++f) {
      w.u32_be(0);  // label
      w.u32_be(0);  // no packets
    }
    return std::string(bytes.begin(), bytes.end());
  };
  const auto ok = parse_response_payload(
      with_header("{\"request_id\":1,\"status\":\"ok\"}", 1));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->flows.size(), 1u);
  const auto cancelled = parse_response_payload(with_header(
      "{\"request_id\":1,\"status\":\"cancelled\",\"reason\":\"x\"}", 0));
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->reason, "x");

  for (const char* header : {
           "{\"request_id\":1,\"status\":\"done\"}",
           "{\"request_id\":1,\"status\":7}",
           "{\"request_id\":1}",
           "[\"status\",\"ok\"]",
           "{\"request_id\":1,\"status\":\"ok\"",
       }) {
    EXPECT_FALSE(parse_response_payload(with_header(header, 0)).has_value())
        << header;
  }
  // A cancelled reply carries no flows.
  EXPECT_FALSE(parse_response_payload(
                   with_header("{\"status\":\"cancelled\"}", 1))
                   .has_value());
}

}  // namespace
}  // namespace repro::serve::wire
