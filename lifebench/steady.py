#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 lifebench/steady.py --seeds 1-10 [--sets 2]
        [--out lifebench/steadiness.json]

Runs run.py once per (set, seed, workload). The sets are interleaved seed
by seed, and so are the workloads: for each seed, each workload runs once
per set back to back, and the set that goes first rotates from seed to
seed. A slow or fast period of the host therefore hits every set and every
workload alike, as it hits both sides of a parent/change comparison.

For every set, workload and end-to-end metric of BENCHMARK.json it reports
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread: the distance between the quartiles as a share of the median, next
to the metric's bound. From the second set on it also reports the drift:
how much worse the set's median is than the first set's, as a share of the
first. Every run also records the benchmark's host-speed calibration (the
"# host:" line: fixed ALU and memory-latency loops timed at the end of the
run), summarized the same way, so a change of the host shows apart from
the program's. With --out, the per-run values and the summaries are
written as JSON.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_PREFIX = "# host:"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit("run failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    host = {}
    for line in lines:
        if line.startswith(HOST_PREFIX):
            host = json.loads(line[len(HOST_PREFIX):])
    return json.loads(lines[-1]), host, wall


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"]
              if m["better"] == "higher"}
    sets = list(range(1, args.sets + 1))
    runs = []
    for turn, seed in enumerate(parse_seeds(args.seeds)):
        order = sets[turn % len(sets):] + sets[:turn % len(sets)]
        for workload in workloads:
            for run_set in order:
                result, host, wall = run_once(workload, seed,
                                              bench["run_seconds"])
                runs.append({"set": run_set, "workload": workload,
                             "seed": seed, "wall_s": round(wall, 1),
                             "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "host": host,
                             "metrics": {k: v["value"] for k, v
                                         in result["metrics"].items()}})
                print("set %d seed %d %-6s %5.1fs correct=%s failed=%d "
                      "host alu %.3f ns chase %.1f ns" % (
                          run_set, seed, workload, wall, result["correct"],
                          result["failed"], host.get("alu_ns", 0),
                          host.get("chase_ns", 0)), file=sys.stderr)
    summary = {}
    print("%-3s %-8s %-26s %14s %14s %14s %7s %6s %7s" % (
        "set", "workload", "metric", "q1", "median", "q3", "spread",
        "bound", "drift"))
    for run_set in range(1, args.sets + 1):
        for workload in workloads:
            mine = [r for r in runs
                    if r["set"] == run_set and r["workload"] == workload]
            measured = [(name, bound, [r["metrics"][name] for r in mine])
                        for name, bound in bounds.items()]
            # The calibration has no bound: it is the host, not a gate.
            measured += [("host." + name, None, [r["host"][name]
                                                 for r in mine])
                         for name in ("alu_ns", "chase_ns")]
            for name, bound, values in measured:
                s = summarize(values, bound)
                first = summary.get("1/%s/%s" % (workload, name), s)["median"]
                worse = first - s["median"] if name in higher \
                    else s["median"] - first
                s["drift"] = worse / first
                summary["%d/%s/%s" % (run_set, workload, name)] = s
                flag = ""
                if bound is not None and s["spread"] >= bound / 3:
                    flag += "  <-- spread over bound/3"
                if bound is not None and s["drift"] > bound:
                    flag += "  <-- drift over bound"
                print("%-3d %-8s %-26s %14.6g %14.6g %14.6g %6.2f%% %6s "
                      "%6.2f%%%s" % (
                          run_set, workload, name, s["q1"], s["median"],
                          s["q3"], 100 * s["spread"],
                          "-" if bound is None else "%.0f%%" % (100 * bound),
                          100 * s["drift"], flag))
    if args.out:
        record = {"host": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
                  "run_seconds": bench["run_seconds"],
                  "order": "interleaved: per seed, per workload, one run of "
                           "each set back to back; the first set rotates "
                           "from seed to seed",
                  "runs": runs, "summary": summary}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=False)
            f.write("\n")


if __name__ == "__main__":
    main()
