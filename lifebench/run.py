#!/usr/bin/env python3
"""Builds the lifecycle benchmark from this checkout's sources and runs it.

    python3 lifebench/run.py --workload train|serve --seed N \\
        --seconds S --trace 0|1

The build lives in $CARGO_TARGET_DIR/lifebench (default
.bench_build/lifebench) under the checkout root and is configured once, as
a Release (NDEBUG) build; later runs only rebuild what changed. Build output
goes to stderr, so standard output ends with the benchmark's JSON result
line. With --trace 1 the run's spans are also written as Chrome trace_event
JSON to trace-<workload>-<seed>.json in the build directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "lifebench")


def build(targets=("lifebench",)):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("lifebench: no engine sources in %s"
                 % os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("lifebench: build failed: %s" % " ".join(cmd))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    out = build()
    cmd = [os.path.join(out, "lifebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
