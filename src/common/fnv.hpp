// 64-bit FNV-1a: the one byte hash behind the bit-identity content
// hashes (serve::wire::hash_flows and the tests' determinism hashes).
// Changing it moves every pinned content hash.
#pragma once

#include <cstddef>
#include <cstdint>

namespace repro {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Folds `n` bytes into the FNV-1a state `h` and returns the new state.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvOffset) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace repro
