// Per-layer metrics of a traced run and the main thread's time ledger.
//
// A traced run alternates untraced and traced rounds. Telemetry (spans,
// counters, the flight recorder) is on only during traced rounds, so the
// program's own span and counter totals divide by the traced rounds'
// flows; the serve histograms and the serve.net byte counter are always
// on and divide by all rounds. The untraced rounds give the baseline for
// the tracing overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "round.hpp"

namespace e2e {

struct LayerInputs {
  LayerTimers timers;      ///< benchmark-side timers, traced rounds
  Window traced;           ///< traced rounds
  Window untraced;         ///< untraced rounds
  Window all;              ///< every timed round
  std::vector<double> batch_service_s;  ///< model calls, traced rounds
  double fit_s = 0.0;                   ///< median TraceDiffusion::fit
  std::uint64_t tcp_packets = 0;        ///< conntrack, all rounds
  std::uint64_t tcp_accepted = 0;
};

/// Adds every per-layer metric to `result` and prints the ledger table
/// to stderr.
void report_per_layer(Result& result, const LayerInputs& in);

/// Accumulates one finished round into the windows of `in`.
void account_round(LayerInputs& in, const RoundResult& round,
                   std::uint64_t ops, bool traced);

}  // namespace e2e
