// Byte-order-aware readers/writers over contiguous byte buffers.
//
// All on-the-wire protocol fields in this library (IPv4/TCP/UDP/ICMP
// headers) are big-endian; pcap file headers are little-endian. These
// helpers make each (de)serializer explicit about order and bounds-checked
// in debug builds.
#pragma once

#include <cstdint>
#include <cstddef>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"

namespace repro {

/// Checked narrowing conversion: a static_cast whose REPRO_REQUIRE fires
/// (under -DREPRO_CHECKS=ON) when the value does not round-trip through
/// the destination type. Use this instead of a bare static_cast wherever
/// a wider arithmetic value is packed into a narrower wire/bit field.
template <typename To, typename From>
constexpr To narrow(From value) {
  static_assert(std::is_arithmetic_v<To> && std::is_arithmetic_v<From>,
                "narrow<To>() converts between arithmetic types");
  const To out = static_cast<To>(value);
  bool representable = static_cast<From>(out) == value;
  if constexpr (std::is_integral_v<To> && std::is_integral_v<From> &&
                std::is_signed_v<To> != std::is_signed_v<From>) {
    representable = representable && ((out < To{}) == (value < From{}));
  }
  REPRO_REQUIRE(representable, "narrow: value not representable in target");
  return out;
}

/// Appends big-endian integers to a growing byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16_be(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32_be(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void u64_be(std::uint64_t v) {
    u32_be(static_cast<std::uint32_t>(v >> 32));
    u32_be(static_cast<std::uint32_t>(v));
  }

  void u16_le(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32_le(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
  }

  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Sequential bounds-checked reader over a byte span. Throws
/// std::out_of_range on underflow — truncated input is a data error, not a
/// programming error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }

  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint16_t u16_be() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32_be() {
    require(4);
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64_be() {
    const std::uint64_t hi = u32_be();
    return (hi << 32) | u32_be();
  }

  std::uint16_t u16_le() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32_le() {
    require(4);
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) {
      throw std::out_of_range("ByteReader: truncated input");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Audited stream punning shims.
//
// repro_lint's RL017 bans reinterpret_cast on byte buffers outside the
// audited codec paths: scattered type-punning is exactly where
// packet-byte corruption hides. Every iostream (de)serializer funnels
// through these four helpers instead, so the casts below are the only
// sanctioned ones and carry the rule waivers.

/// Writes the object representation of a trivially-copyable value.
template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "write_pod requires a trivially copyable type");
  // Host byte order is part of the checkpoint format contract.
  // repro-lint: allow(RL017) -- the audited shim serializers funnel through
  out.write(reinterpret_cast<const char*>(&value),
            static_cast<std::streamsize>(sizeof(T)));
}

/// Reads the object representation of a trivially-copyable value.
/// Returns false (leaving `value` unspecified) on short reads.
template <typename T>
[[nodiscard]] bool read_pod(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "read_pod requires a trivially copyable type");
  // repro-lint: allow(RL017) -- audited shim, paired with write_pod above
  in.read(reinterpret_cast<char*>(&value),
          static_cast<std::streamsize>(sizeof(T)));
  return static_cast<std::size_t>(in.gcount()) == sizeof(T) &&
         static_cast<bool>(in);
}

/// Writes a contiguous block of trivially-copyable elements.
template <typename T>
void write_bytes(std::ostream& out, const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>,
                "write_bytes requires trivially copyable elements");
  // repro-lint: allow(RL017) -- audited bulk variant of write_pod.
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

/// Reads a contiguous block of trivially-copyable elements. Returns
/// false on short reads.
template <typename T>
[[nodiscard]] bool read_bytes(std::istream& in, T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>,
                "read_bytes requires trivially copyable elements");
  const std::size_t want = count * sizeof(T);
  // repro-lint: allow(RL017) -- audited bulk variant of read_pod.
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(want));
  return static_cast<std::size_t>(in.gcount()) == want &&
         static_cast<bool>(in);
}

}  // namespace repro
