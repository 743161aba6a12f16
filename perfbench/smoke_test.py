#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny deployment size.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end_to_end metric, and a traced run every
    per_layer metric, each with the unit BENCHMARK.json gives and nothing
    else, and both runs pass their correctness gates;
  * a second traced run with the same seed reproduces every exact count
    bit for bit (hash invocations, VO and section bytes, update write
    bytes, MRKD proofs per composite VO) and the same inputs digest;
  * a different seed changes the inputs digest.
Exits non-zero on the first failure. Takes about two minutes after the
build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SECONDS = "2"

# Per-layer metrics that are counts of work for a fixed seed, not timings.
EXACT_COUNTS = [
    "crypto.sp_hashes", "crypto.client_hashes", "net.frame_kb", "mrkd.vo_kb",
    "invindex.vo_kb", "shard.bovw_kb", "shard.inv_kb", "shard.mrkd_proofs",
    "storage.write_kb", "update_write_kb",
]


def run(workload, seed, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                 "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("FAIL %s seed=%d trace=%d exited %d:\n%s" %
                 (workload, seed, trace, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    context = next(json.loads(l[len("context "):]) for l in lines
                   if l.startswith("context "))
    if not result["correct"] or result["attempted"] < 1:
        sys.exit("FAIL %s seed=%d trace=%d: incorrect run" % (workload, seed, trace))
    return result, context


def check_names(workload, result, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit("FAIL %s: metrics differ from BENCHMARK.json: missing %s, "
                 "extra %s, wrong unit %s" % (workload, missing, extra, wrong))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        plain, _ = run(name, 1, 0)
        check_names(name, plain, spec["end_to_end"])
        traced, ctx = run(name, 1, 1)
        check_names(name, traced, spec["per_layer"])
        again, ctx_again = run(name, 1, 1)
        for metric in EXACT_COUNTS:
            a = traced["metrics"][metric]["value"]
            b = again["metrics"][metric]["value"]
            if a != b:
                sys.exit("FAIL %s: %s not reproduced for a fixed seed: %r vs %r" %
                         (name, metric, a, b))
        if ctx["inputs_digest"] != ctx_again["inputs_digest"]:
            sys.exit("FAIL %s: inputs differ for a fixed seed" % name)
        _, ctx_other = run(name, 2, 0)
        if ctx_other["inputs_digest"] == ctx["inputs_digest"]:
            sys.exit("FAIL %s: a different seed gave the same inputs" % name)
        print("ok   %s" % name)
    print("smoke test passed")


if __name__ == "__main__":
    main()
