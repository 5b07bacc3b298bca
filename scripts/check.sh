#!/usr/bin/env sh
# One-stop pre-merge gate: configure with contracts enforced, build the
# whole tree warning-free (-Werror is always on), run the lint label
# first (fast, catches invariant violations before the slow suites),
# then the full test suite.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build-check"}
JOBS=$(nproc 2>/dev/null || echo 2)

echo "== configure (REPRO_CHECKS=ON) =="
cmake -B "$BUILD_DIR" -S "$ROOT" -DREPRO_CHECKS=ON

echo "== build (-Wall -Wextra -Wconversion -Wsign-conversion -Wshadow -Werror) =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== lint label =="
ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure

echo "== lint --json (analysis engine: token + determinism + architecture) =="
LINT_JSON="$BUILD_DIR/lint_findings.json"
"$BUILD_DIR/tools/repro_lint" --root "$ROOT" --json \
  src bench tools tests examples > "$LINT_JSON"
grep -q '"findings": \[\]' "$LINT_JSON" || {
  echo "check.sh: non-waived lint findings:" >&2
  cat "$LINT_JSON" >&2
  exit 1
}

echo "== include graph (refresh reports/include_graph.dot) =="
mkdir -p "$ROOT/reports"
"$BUILD_DIR/tools/repro_lint" --root "$ROOT" \
  --graph-dot "$ROOT/reports/include_graph.dot" src > /dev/null

echo "== serving layer (label: serve) =="
# Includes the flight recorder gate: served_selftest and
# served_sharded_selftest run repro_served -> repro_client, then
# trace_inspect_*_dump run repro_trace_inspect --expect-complete.
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure

echo "== socket front-end (label: serve_net) =="
ctest --test-dir "$BUILD_DIR" -L serve_net --output-on-failure

echo "== executor determinism, repeated (ShardTest x20) =="
# The executors share one model through its const sampling path; a write
# to shared model state shows up here as a flaky byte mismatch or crash.
ctest --test-dir "$BUILD_DIR" -R ShardTest --repeat until-fail:20 \
  --output-on-failure

echo "== sanitizers: ASan+UBSan, libstdc++ assertions (label: sanitize) =="
# A second tree with address+undefined instrumentation and checked
# libstdc++ containers; the `sanitize` label selects the suites cheap
# enough to run there (socket server, the service and its executors,
# lane concurrency, checkpoint bounds, parallel layer, telemetry, the nn
# kernels and gradient checks, the determinism lane sweeps). Under -fsanitize=address GCC 12
# reports -Wmaybe-uninitialized inside libstdc++'s <regex> (repro_lint),
# so that one warning stays a warning in this tree.
ASAN_DIR="$BUILD_DIR-asan"
cmake -B "$ASAN_DIR" -S "$ROOT" -DREPRO_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS="-D_GLIBCXX_ASSERTIONS -Wno-error=maybe-uninitialized"
cmake --build "$ASAN_DIR" -j "$JOBS"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$ASAN_DIR" -L sanitize --output-on-failure

echo "== sanitizers: TSan (label: sanitize) =="
# The same suites in a -fsanitize=thread tree: the pool, the GEMM row
# split under the gradchecks and backward references, the lane sweeps,
# the executors sampling one shared model, and the service's background
# workers and socket server.
TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S "$ROOT" -DREPRO_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$TSAN_DIR" -L sanitize --output-on-failure

echo "== e2ebench under ASan+UBSan (replay-chain, wire-cold) =="
# The benchmark package built with address+undefined instrumentation,
# replay-chain run for 2 s and wire-cold for 8 s. Wire-cold re-checks 8
# of its requests (about 1 in 8) against the library, and under ASan one
# 48-request round takes about 2.4 s, so a 2 s run answers too few. A
# workload fails on a sanitizer report (non-zero exit) or when its
# result line (the last line of stdout) does not say "correct": true.
E2E_ASAN_DIR="$BUILD_DIR-e2e-asan"
cmake -B "$E2E_ASAN_DIR" -S "$ROOT/e2ebench" \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
cmake --build "$E2E_ASAN_DIR" --target e2e_bench -j "$JOBS"
for RUN in replay-chain:2 wire-cold:8; do
  WORKLOAD=${RUN%:*}
  E2E_OUT="$E2E_ASAN_DIR/$WORKLOAD.out"
  if ! UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      "$E2E_ASAN_DIR/e2e_bench" --workload "$WORKLOAD" --seconds "${RUN#*:}" \
      > "$E2E_OUT"; then
    echo "check.sh: e2e_bench $WORKLOAD failed under ASan+UBSan" >&2
    exit 1
  fi
  tail -n 1 "$E2E_OUT" | grep -q '"correct": true' || {
    echo "check.sh: e2e_bench $WORKLOAD result is not correct:" >&2
    tail -n 1 "$E2E_OUT" >&2
    exit 1
  }
done

echo "== open-loop replay (label: replay) =="
ctest --test-dir "$BUILD_DIR" -L replay --output-on-failure

echo "== full test suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== bench smoke (label: bench) =="
ctest --test-dir "$BUILD_DIR" -L bench --output-on-failure

echo "== fastpath fidelity gate (distilled-5 vs fp32/DDIM-20) =="
# Shrunken-but-real run of the fast-path fidelity gate: the distilled
# few-step sampler must stay within REPRO_FIDELITY_EPS (0.02 default) of
# the fp32/DDIM-20 baseline on the Table-2 RF scenarios. The binary exits
# 1 on violation. The run is fully deterministic (fixed seeds,
# lane-invariant kernels), and the scale is the smallest where the
# RF-seed-averaged scores resolve the 0.02 eps: 32 synthetic flows/class,
# 5 RF seeds per scenario, and enough training that the distilled
# student tracks its teacher.
REPRO_PACKETS=16 REPRO_FLOWS_PER_CLASS=30 REPRO_TRAIN_PER_CLASS=20 \
  REPRO_SYN_PER_CLASS=32 REPRO_AE_EPOCHS=14 REPRO_DIFF_EPOCHS=10 \
  REPRO_CTRL_EPOCHS=4 REPRO_RF_TREES=40 REPRO_FIDELITY_RF_REPEATS=5 \
  REPRO_BENCH_DIR="$BUILD_DIR/bench" \
  "$BUILD_DIR/bench/fidelity_fastpath"

echo "== check.sh: all gates green =="
