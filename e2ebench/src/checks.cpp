#include "checks.hpp"

namespace e2e {
namespace {

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

constexpr std::size_t kGlobalHeader = 24;
constexpr std::size_t kRecordHeader = 16;
constexpr std::uint32_t kMagic = 0xa1b2c3d4u;
constexpr std::uint32_t kLinkRaw = 101;

/// Checks one raw-IP record; returns an empty string when it is sound.
std::string check_datagram(const std::uint8_t* p, std::size_t n) {
  if (n < 20) return "datagram shorter than an IPv4 header";
  if ((p[0] >> 4) != 4) return "not IPv4";
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0F) * 4;
  if (ihl < 20 || ihl > n) return "bad IPv4 header length";
  if (be16(p + 2) != n) return "IPv4 total length differs from record";
  if (inet_checksum(p, ihl) != 0) return "IPv4 header checksum fails";
  const std::uint8_t* l4 = p + ihl;
  const std::size_t l4_len = n - ihl;
  switch (p[9]) {
    case 6: {  // TCP: a data offset within the datagram, at least 20
      if (l4_len < 20) return "TCP header truncated";
      const std::size_t doff = static_cast<std::size_t>(l4[12] >> 4) * 4;
      if (doff < 20 || doff > l4_len) return "bad TCP data offset";
      return {};
    }
    case 17:  // UDP: its length field covers exactly the rest
      if (l4_len < 8) return "UDP header truncated";
      if (be16(l4 + 4) != l4_len) return "UDP length differs from IPv4";
      return {};
    case 1:  // ICMP: the fixed 8-byte header
      if (l4_len < 8) return "ICMP header truncated";
      return {};
    default:
      return "protocol field names no TCP/UDP/ICMP header";
  }
}

}  // namespace

std::uint16_t inet_checksum(const std::uint8_t* data, std::size_t n) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < n; i += 2) sum += be16(data + i);
  if (n % 2 == 1) sum += static_cast<std::uint32_t>(data[n - 1]) << 8;
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

Errors check_pcap(std::string_view image, std::uint64_t expected_records) {
  Errors errors;
  const auto* p = reinterpret_cast<const std::uint8_t*>(image.data());
  const std::size_t size = image.size();
  if (size < kGlobalHeader || le32(p) != kMagic) {
    errors.push_back("pcap: missing or foreign global header");
    return errors;
  }
  if (le32(p + 20) != kLinkRaw) {
    errors.push_back("pcap: link type is not raw IPv4");
    return errors;
  }
  std::uint64_t records = 0;
  std::uint64_t prev_us = 0;
  std::size_t pos = kGlobalHeader;
  while (pos < size) {
    if (size - pos < kRecordHeader) {
      errors.push_back("pcap: truncated record header");
      break;
    }
    const std::uint64_t ts_us =
        static_cast<std::uint64_t>(le32(p + pos)) * 1000000u +
        le32(p + pos + 4);
    const std::size_t incl = le32(p + pos + 8);
    const std::size_t orig = le32(p + pos + 12);
    pos += kRecordHeader;
    if (incl > size - pos) {
      errors.push_back("pcap: truncated record body");
      break;
    }
    if (records > 0 && ts_us < prev_us) {
      errors.push_back("pcap: timestamp decreases at record " +
                       std::to_string(records));
    }
    prev_us = ts_us;
    if (incl != orig) {
      errors.push_back("pcap: record " + std::to_string(records) +
                       " was cut by the snap length");
    } else if (std::string why = check_datagram(p + pos, incl);
               !why.empty()) {
      errors.push_back("pcap: record " + std::to_string(records) + ": " +
                       why);
    }
    pos += incl;
    ++records;
    if (errors.size() > 8) break;  // enough to diagnose
  }
  if (records != expected_records) {
    errors.push_back("pcap: " + std::to_string(records) +
                     " records for " + std::to_string(expected_records) +
                     " emitted packets");
  }
  return errors;
}

Errors check_emit(const repro::replay::emit::EmitReport& report) {
  Errors errors;
  if (!report.conserved()) {
    errors.push_back("emitter: event conservation violated");
  }
  if (report.underruns != 0) {
    errors.push_back("emitter: " + std::to_string(report.underruns) +
                     " underruns");
  }
  return errors;
}

Errors check_chain(const repro::replay::ReplayReport& report) {
  std::size_t drops = 0;
  for (const auto& fn : report.functions) drops += fn.dropped;
  if (report.input_packets == report.delivered_packets + drops) return {};
  return {"chain: " + std::to_string(report.input_packets) + " in != " +
          std::to_string(report.delivered_packets) + " out + " +
          std::to_string(drops) + " dropped"};
}

bool size_within_tolerance(double generated_mean, double real_mean) {
  return real_mean > 0.0 && generated_mean <= real_mean * kSizeTolerance &&
         generated_mean * kSizeTolerance >= real_mean;
}

}  // namespace e2e
