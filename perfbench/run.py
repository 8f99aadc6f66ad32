#!/usr/bin/env python3
"""Builds and runs the COLR-Tree portal benchmark (README.md).

One run:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steadiness: N runs of one workload with seeds 1..N, then the median,
quartiles and spread of every end-to-end metric next to its bound:
  python3 perfbench/run.py --steady N --workload NAME [--seconds S]

Smoke test: every workload on tiny inputs, traced and untraced, with
every output check:
  python3 perfbench/run.py --smoke

The benchmark is built from the checkout it sits in, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced
runs write their spans to .bench_build/traces/. The last line of a run's
standard output is its JSON result; build output and the human-readable
summary go to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds portal_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "portal_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = out / "portal_bench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(binary, spec, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (result dict, raw stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} result has keys {sorted(result)}")
    want = expected_metrics(spec, trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"{workload} metrics differ from BENCHMARK.json: missing "
             f"{missing}, unexpected {extra}, wrong unit {wrong}")
    return result, done.stdout


def steady(binary, spec, workload, runs, seconds):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = []
    for seed in range(1, runs + 1):
        result, _ = run_once(binary, spec, workload, seed, seconds, False)
        shares.append(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    print(f"{workload}: {runs} runs of {seconds} s, seeds 1..{runs}; "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for name, spec_m in bounds.items():
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec_m["bound"]
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound, above a third of it"
            worst = "marginal" if worst == "steady" else worst
        else:
            verdict = "TOO WIDE"
            worst = "too wide"
        print(f"{name:26} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {bound:6.3f}  {verdict}")
    print(f"overall: {worst}")
    return 0 if worst != "too wide" else 1


def smoke(binary, spec):
    bad = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            result, _ = run_once(binary, spec, w["name"], 1, 1, trace,
                                 smoke=True)
            ok = result["correct"] and result["failed"] == 0 and \
                result["attempted"] > 0
            print(f"{w['name']:20} trace={int(trace)} attempted="
                  f"{result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}  "
                  f"{'ok' if ok else 'FAILED'}")
            bad += 0 if ok else 1
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    binary = build()
    if args.smoke:
        return smoke(binary, spec)
    if args.steady:
        return steady(binary, spec, args.workload, args.steady, seconds)
    _, stdout = run_once(binary, spec, args.workload, args.seed, seconds,
                         bool(args.trace))
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
