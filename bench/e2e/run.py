#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds S [--trace 0|1]

Run it from the root of an xqp source tree. The first run configures and
builds bench/e2e (a standalone CMake project that compiles ../../src) into
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset; later runs
rebuild only what changed. xqp_e2e's standard output passes through
unchanged, so its last line is the result object. With --trace 1 the
per-layer metrics are reported and the span trace is written under
<build dir>/traces/. Exits 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = max(1, min(len(os.sched_getaffinity(0)), 8))
    log_path = os.path.join(build_dir, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "xqp_e2e", "-j", str(jobs)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("build failed; full log in %s\n" % log_path)
                sys.exit(2)
    return os.path.join(build_dir, "xqp_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2e")
    binary = build(build_dir)

    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--workdir=" + workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT,
                              timeout=args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark timed out\n")
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
