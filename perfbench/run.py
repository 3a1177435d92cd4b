#!/usr/bin/env python3
"""Build and run the benchmark from the repository root.

    python3 perfbench/run.py --workload symbolic-sweep --seed 1 --seconds 10 --trace 0

The Go program is built into .bench_build/ (with its build cache there
too, so nothing is written outside the checkout) and run with the given
arguments; its last output line is the run's JSON result. A failed build
or run exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOMODCACHE": os.path.join(OUT, "gomodcache"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
    })
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.run([binary, "--work", ".bench_build"] + sys.argv[1:], cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
