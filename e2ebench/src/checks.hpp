// Output checks of the end-to-end benchmark. Each rests on a property of
// correct output, not on a copy of today's bytes, and each is a pure
// function so the self-test can feed it corrupted input and see it fail.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "replay/emit/emitter.hpp"
#include "replay/engine.hpp"

namespace e2e {

using Errors = std::vector<std::string>;

/// RFC 1071 one's-complement sum of `n` bytes, complemented: 0 over a
/// header whose checksum field is correct.
std::uint16_t inet_checksum(const std::uint8_t* data, std::size_t n);

/// Re-parses a classic pcap image (LINKTYPE_RAW) with the benchmark's
/// own reader, independent of net::PcapReader, and checks: the record
/// count equals `expected_records`; timestamps never decrease; every
/// record is one IPv4 datagram whose total length matches the record,
/// whose header checksum verifies, and which carries exactly the
/// transport header its protocol field names (TCP, UDP or ICMP).
Errors check_pcap(std::string_view image, std::uint64_t expected_records);

/// The emitter conserved every event and recorded no underruns.
Errors check_emit(const repro::replay::emit::EmitReport& report);

/// The chain's input equals its output plus the drops of its functions.
Errors check_chain(const repro::replay::ReplayReport& report);

/// Generated mean IPv4 total length must lie within this factor of the
/// real training flows' mean, in either direction. A model trained at
/// toy scale misses by 3-7x; the benchmark's training lands within
/// about 1.7x (see README.md).
inline constexpr double kSizeTolerance = 2.0;
bool size_within_tolerance(double generated_mean, double real_mean);

}  // namespace e2e
