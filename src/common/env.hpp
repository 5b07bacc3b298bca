// Environment-variable overrides used by benches and examples to scale
// experiments up or down (e.g. REPRO_FLOWS_PER_CLASS, REPRO_EPOCHS)
// without recompiling.
//
// All numeric lookups are total: a set-but-malformed or out-of-range
// value (e.g. REPRO_THREADS=banana or REPRO_THREADS=-3) falls back to the
// caller's default and emits one warning log per variable name, instead
// of silently truncating or throwing.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace repro {

/// Parses a non-negative decimal integer (optional surrounding
/// whitespace, optional leading '+'). Returns nullopt on empty input,
/// any non-digit character, a '-' sign, or overflow of std::size_t.
std::optional<std::size_t> parse_size(std::string_view text) noexcept;

/// Parses a finite double (strtod grammar, but the full string must be
/// consumed). Returns nullopt on empty/trailing garbage/inf/nan/range
/// errors.
std::optional<double> parse_double(std::string_view text) noexcept;

/// Returns the integer value of `name`; `fallback` when unset. A set but
/// invalid value also yields `fallback`, with one warning log per name.
std::size_t env_size(const char* name, std::size_t fallback) noexcept;

/// Returns the double value of `name`; `fallback` when unset. A set but
/// invalid value also yields `fallback`, with one warning log per name.
double env_double(const char* name, double fallback) noexcept;

/// Returns the string value of `name`, or `fallback` when unset.
std::string env_string(const char* name, const std::string& fallback);

/// Serving-layer knobs (tools/benches read them through env_size so a
/// malformed value falls back with a warning, like every other knob):
/// the number of executor threads pumping the service's one request
/// queue (ServiceConfig::workers, `repro_served --lanes`), and the TCP
/// port of the socket front-end (`repro_served`).
inline constexpr const char* kEnvServeLanes = "REPRO_SERVE_LANES";
inline constexpr const char* kEnvServePort = "REPRO_SERVE_PORT";

}  // namespace repro
