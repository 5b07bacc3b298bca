// Shared plumbing of the end-to-end benchmark: run options, the result
// record every workload fills, clocks, and order statistics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer run: alternate untraced/traced rounds
  bool tiny = false;   ///< self-test scale: toy model, short rounds
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. A check that fails appends to
/// `errors`; the run is correct iff `errors` is empty.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void fail(std::string what) { errors.push_back(std::move(what)); }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void e2e(const char* name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const char* name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Monotonic wall clock, seconds.
double now_s();
/// Process user + system CPU time (all threads), seconds.
double cpu_s();
/// Peak resident set of the process, MiB.
double rss_peak_mb();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// splitmix64 finalizer: the benchmark's one way to derive input values
/// from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) noexcept;

/// One window of timed rounds. Totals cover the whole window; the
/// per-round rates let the reported figures be medians over rounds, so
/// a round hit by a scheduling hiccup of the host does not move them.
struct Window {
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::vector<double> op_seconds;       ///< latency of each timed operation
  std::vector<double> round_flows_per_s;
  std::vector<double> round_packets_per_s;
  std::vector<double> round_cpu_per_flow;  ///< seconds

  /// Adds one round of `flows` flows and `packets` packets.
  void add_round(double round_wall, double round_cpu, std::uint64_t round_ops,
                 std::uint64_t round_flows, std::uint64_t round_packets);
  double flows_per_s() const { return quantile(round_flows_per_s, 0.5); }
};

/// Fills the seven end-to-end metrics from the timed window and the
/// per-repetition set-up times (median reported).
void report_end_to_end(Result& result, const Window& window,
                       std::vector<double> setup_seconds);

}  // namespace e2e
