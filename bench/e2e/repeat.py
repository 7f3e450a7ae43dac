#!/usr/bin/env python3
"""Runs every workload N times and reports each metric's spread.

    python3 bench/e2e/repeat.py N [--seed S] [--seconds S] [--workloads a,b]
                                  [--trace] [--out FILE] [--compare FILE]

Run it from the root of an xqp source tree. Run i uses seed i+1 unless
--seed fixes one seed for all runs; workloads take turns, so drift on the
machine spreads over all of them. For each (workload, metric) it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the sample count
and the spread (q3 - q1) / median, and flags a spread above the metric's
bound in BENCHMARK.json (">bound") or above a third of it (">bound/3").
--out saves the values; --compare FILE flags every metric whose median is
worse than the one saved in FILE by more than its bound. Exits 1 when a run
fails or reports wrong outputs, or when a flag above the bound was raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                      proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    values = {w: {m: [] for m in metrics} for w in workloads}
    failed = False
    for i in range(args.runs):
        seed = args.seed if args.seed is not None else i + 1
        for w in workloads:
            result = run_once(w, seed, seconds, args.trace)
            ok = result["correct"] and result["failed"] == 0
            failed |= not ok
            print("run %d %s seed %d: %s, %d attempted, %d failed" % (
                i + 1, w, seed, "correct" if ok else "WRONG",
                result["attempted"], result["failed"]), flush=True)
            for name, m in result["metrics"].items():
                if name in metrics:
                    values[w][name].append(m["value"])

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
    print("\n%-15s %-26s %12s %12s %12s %3s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "n", "spread", "bound",
        "flags"))
    for w in workloads:
        for name, m in metrics.items():
            v = values[w][name]
            if len(v) < 2:
                continue
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = m.get("bound")
            flags = []
            if bound is not None and spread > bound:
                flags.append(">bound")
                failed |= name != "setup_s"
            elif bound is not None and spread > bound / 3:
                flags.append(">bound/3")
            if baseline is not None and bound is not None:
                old = statistics.median(baseline[w][name])
                new = statistics.median(v)
                worse = (new - old) / old if m["better"] == "lower" else (
                    old - new) / old
                flags.append("vs-baseline %+.3f" % worse)
                if worse > bound:
                    flags.append("WORSE>BOUND")
                    failed = True
            print("%-15s %-26s %12.6g %12.6g %12.6g %3d %8.4f %6s  %s" % (
                w, name, median, q1, q3, len(v), spread,
                "-" if bound is None else "%.3f" % bound, " ".join(flags)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
