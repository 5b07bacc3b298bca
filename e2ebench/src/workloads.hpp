// The benchmark's workloads. Each runs in this process, checks its own
// outputs, and fills a Result with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).
#pragma once

#include "common.hpp"

namespace e2e {

/// wire-cold (`warm` false) and wire-warm (`warm` true).
Result run_wire(const Options& options, bool warm);

/// replay-chain: ground-truth sessions through emitter, pcap and chain.
Result run_replay_chain(const Options& options);

/// Self-test: every workload at tiny scale, then each check fed a
/// corrupted input. Returns the process exit code.
int run_selftest();

}  // namespace e2e
