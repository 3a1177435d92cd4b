#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/steady.py [--seeds 1-10]

Runs perfbench/run.py untraced once per seed on every workload in
BENCHMARK.json, from the repository root, and prints, per end-to-end
metric, the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median. A
spread at or above a third of the metric's bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in names:
        values, fails = {}, 0
        for seed in seeds(args.seeds):
            start = time.time()
            out = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            fails += res["failed"]
            figures = " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items()))
            print(f"{name} seed {seed}: {time.time() - start:.1f}s, "
                  f"{res['failed']}/{res['attempted']} failed, {figures}", flush=True)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"== {name}: {fails} failed checks")
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = f"  <-- spread >= bound/3 ({bound / 3:.4f})"
            print(f"  {k:36s} median {med:14.6g}  spread {spread:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
