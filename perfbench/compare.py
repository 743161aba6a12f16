#!/usr/bin/env python3
"""Compares two saved benchmark outputs metric by metric.

    python3 perfbench/run.py ... > before.txt
    python3 perfbench/run.py ... > after.txt
    python3 perfbench/compare.py before.txt after.txt

Each file is the benchmark's stdout: a `context {...}` line and the result
JSON as the last line. Prints each metric's two values and the relative
change. When the two contexts differ in anything but the seed and the
trace flag (machine, AVX2 dispatch, compiler, build type, metrics build,
deployment), the comparison is labelled cross-hardware: its deltas mix the
change under test with the difference between environments.
"""

import json
import sys

# Context fields that may differ between two comparable runs.
PER_RUN = {"seed", "trace", "rss_peak_reset", "inputs_digest"}


def load(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    context = next(json.loads(l[len("context "):]) for l in lines
                   if l.startswith("context "))
    return context, json.loads(lines[-1])


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py <before.txt> <after.txt>")
    (ca, ra), (cb, rb) = load(sys.argv[1]), load(sys.argv[2])
    differing = sorted(k for k in set(ca) | set(cb)
                       if k not in PER_RUN and ca.get(k) != cb.get(k))
    if differing:
        print("CROSS-HARDWARE comparison (contexts differ in: %s)" % ", ".join(differing))
    else:
        print("same context: %s, nproc %s, %s" %
              (ca.get("workload"), ca.get("nproc"), ca.get("compiler")))
    for name, m in ra["metrics"].items():
        if name not in rb["metrics"]:
            continue
        a, b = m["value"], rb["metrics"][name]["value"]
        change = "%+.1f%%" % (100.0 * (b - a) / a) if a else "n/a"
        print("  %-34s %14.6g -> %14.6g %-6s %s" % (name, a, b, m["unit"], change))
    print("correct: %s -> %s" % (ra["correct"], rb["correct"]))


if __name__ == "__main__":
    main()
