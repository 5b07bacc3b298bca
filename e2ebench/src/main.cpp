// e2e_bench: runs one workload of the end-to-end benchmark in this
// process and prints its result as one JSON line on stdout.
//
//   e2e_bench --workload wire-cold|wire-warm|replay-chain --seed N
//             --seconds S --trace 0|1
//   e2e_bench --selftest
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Progress and diagnostics go to stderr. The exit code
// is 0 iff every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/telemetry/metrics.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload wire-cold|wire-warm|replay-chain"
               " --seed N --seconds S --trace 0|1\n"
               "       e2e_bench --selftest\n");
  return 2;
}

void print_result(const e2e::Result& result) {
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const auto& metrics =
      result.per_layer.empty() ? result.end_to_end : result.per_layer;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // Telemetry is armed per traced round by the workloads, never globally.
  repro::telemetry::set_enabled(false);
  e2e::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return e2e::run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) return usage();

  e2e::Result result;
  try {
    if (options.workload == "wire-cold") {
      result = e2e::run_wire(options, /*warm=*/false);
    } else if (options.workload == "wire-warm") {
      result = e2e::run_wire(options, /*warm=*/true);
    } else if (options.workload == "replay-chain") {
      result = e2e::run_replay_chain(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    result.fail(std::string("aborted: ") + e.what());
  }
  print_result(result);
  return result.errors.empty() ? 0 : 1;
}
