#!/usr/bin/env python3
"""End-to-end benchmark of the trace-generation stack.

Builds e2ebench/ (Release, REPRO_CHECKS off) into .bench_build/, runs one
workload in one process, and prints its result as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.

  python3 e2ebench/run.py --workload wire-cold --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py ... --record results.jsonl   # also append the result
  python3 e2ebench/run.py --selftest                   # tiny scale, every check
  python3 e2ebench/run.py --compare base.jsonl new.jsonl

Run from the repository root. --trace 1 prints the per-layer metrics
instead of the end-to-end ones (REPRO_TELEMETRY=1). See README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD_DIR / "e2e_bench"
WORKLOADS = ("wire-cold", "wire-warm", "replay-chain")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; the log stays on disk."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "e2ebench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "e2e_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                die(f"build step {step[:2]} failed: {error}")
            if done.returncode != 0:
                log.flush()
                tail = Path(log_path).read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (log: {log_path})")


def run_binary(args, trace):
    env = dict(os.environ)
    env["REPRO_TELEMETRY"] = "1" if trace else "0"
    env["REPRO_THREADS"] = "1"  # the binary sizes the pool itself
    try:
        done = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                              env=env, cwd=str(BUILD_DIR), text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return done.returncode, lines[-1] if lines else None


def run_workload(opts):
    build()
    code, line = run_binary(
        ["--workload", opts.workload, "--seed", str(opts.seed),
         "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
        opts.trace == 1)
    if line is None:
        die(f"no result (exit code {code})")
    result = json.loads(line)
    if opts.record:
        entry = {"workload": opts.workload, "seed": opts.seed,
                 "trace": opts.trace, **result}
        with open(opts.record, "a") as out:
            out.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") else 1


def selftest():
    build()
    code, line = run_binary(["--selftest"], trace=False)
    if line is not None:
        print(line)
    return code


# --- compare ---------------------------------------------------------------

def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs.setdefault(entry["workload"], []).append(entry)
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound, new_fails_more):
    """better / worse / unresolved, by the rules in README.md."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_med, q3 = spread(base)
    new_med = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    gain = sign * (new_med - base_med)
    if bound is not None and base_med != 0 and -gain / abs(base_med) > bound:
        return "worse", win_share
    if new_fails_more:
        return "unresolved", win_share
    if win_share >= 0.9 and gain > (q3 - q1):
        return "better", win_share
    return "unresolved", win_share


def health(runs):
    """Incorrect runs, failed operations and the failed share of a set."""
    incorrect = sum(1 for r in runs if not r.get("correct"))
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return incorrect, failed, failed / attempted if attempted else 0.0


def compare(base_path, new_path):
    """Per workload and metric, compares the correct runs of two sets.

    Runs whose checks failed are counted but never enter a median. A NEW
    set with more incorrect runs, or a larger share of failed operations,
    than BASE gets no "better" verdict.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m, "end_to_end") for m in spec["end_to_end"]] + \
              [(m, "per_layer") for m in spec["per_layer"]]
    base, new = load_set(base_path), load_set(new_path)
    for workload in WORKLOADS:
        if workload not in base and workload not in new:
            continue
        sides = {}
        for label, runs in (("base", base.get(workload, [])),
                            ("new", new.get(workload, []))):
            incorrect, failed, share = health(runs)
            sides[label] = (incorrect, share)
            print(f"{workload}: {label} {len(runs)} runs, {incorrect} "
                  f"incorrect, {failed} failed of "
                  f"{sum(r.get('attempted', 0) for r in runs)} attempted")
        new_fails_more = (sides["new"][0] > sides["base"][0] or
                          sides["new"][1] > sides["base"][1])
        print(f"{'workload':<13} {'metric':<34} {'base q1/med/q3':>30} "
              f"{'new q1/med/q3':>30} {'wins':>5}  verdict")
        for metric, kind in metrics:
            trace = 1 if kind == "per_layer" else 0
            pick = lambda runs: [r["metrics"][metric["name"]]["value"]
                                 for r in runs.get(workload, [])
                                 if r.get("trace", 0) == trace
                                 and r.get("correct")
                                 and metric["name"] in r["metrics"]]
            a, b = pick(base), pick(new)
            if len(a) < 2 or len(b) < 2:
                continue
            call, share = verdict(a, b, metric["better"], metric.get("bound"),
                                  new_fails_more)
            fmt = lambda v: "{:.4g}/{:.4g}/{:.4g}".format(*spread(v))
            print(f"{workload:<13} {metric['name']:<34} {fmt(a):>30} "
                  f"{fmt(b):>30} {share:>5.2f}  {call}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSONL file")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()
    if opts.compare:
        return compare(*opts.compare)
    if opts.workload is None:
        parser.error("--workload, --selftest or --compare is required")
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
