#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Window::add_round(double round_wall, double round_cpu,
                       std::uint64_t round_ops, std::uint64_t round_flows,
                       std::uint64_t round_packets) {
  wall += round_wall;
  cpu += round_cpu;
  ops += round_ops;
  flows += round_flows;
  packets += round_packets;
  if (round_wall <= 0.0 || round_flows == 0) return;
  const auto f = static_cast<double>(round_flows);
  round_flows_per_s.push_back(f / round_wall);
  round_packets_per_s.push_back(static_cast<double>(round_packets) /
                                round_wall);
  round_cpu_per_flow.push_back(round_cpu / f);
}

void report_end_to_end(Result& result, const Window& window,
                       std::vector<double> setup_seconds) {
  result.e2e("setup_s", quantile(std::move(setup_seconds), 0.5), "s");
  result.e2e("flows_per_s", window.flows_per_s(), "flows/s");
  result.e2e("packets_per_s", quantile(window.round_packets_per_s, 0.5),
             "pkt/s");
  result.e2e("req_p50_ms", quantile(window.op_seconds, 0.5) * 1e3, "ms");
  result.e2e("req_p90_ms", quantile(window.op_seconds, 0.9) * 1e3, "ms");
  result.e2e("cpu_ms_per_flow", quantile(window.round_cpu_per_flow, 0.5) * 1e3,
             "ms");
  result.e2e("rss_peak_mb", rss_peak_mb(), "MiB");
  // Tails are reference figures: each percentile is printed only when at
  // least ten operations lie beyond it.
  const std::size_t n = window.op_seconds.size();
  for (const double q : {0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
      std::fprintf(stderr, "reference tail: p%g %.4f ms over %zu operations\n",
                   q * 100.0, quantile(window.op_seconds, q) * 1e3, n);
    }
  }
}

}  // namespace e2e
