#!/usr/bin/env python3
"""One-line performance delta between a fresh bench report and a committed
baseline.

    scripts/bench_delta.py <fresh.json> <baseline.json>

Compares every numeric metric the two reports share: entries of "values"
by key, and "rows" matched on (figure, scheme, x_name, x). Prints a single
summary line — median and worst relative delta plus the metric behind the
worst — so CI logs carry a scannable drift signal next to the uploaded
artifacts. A smoke-mode report typically shares only part of a full-run
baseline's keys; the comparable count makes that visible instead of
silently comparing nothing.

Before that line it prints the "context" each report recorded (hw_threads,
avx2_active, compiler, build_type; see bench/bench_util.h). When the two
contexts differ, or a report has none, the delta is labelled cross-hardware:
it mixes machine or build changes into the code change.

Informational by default: exits 0 regardless of drift (smoke runs on shared
CI runners are too noisy to gate on), exits 2 only when a report is
missing/unreadable.
"""

import json
import statistics
import sys

ROW_KEY = ("figure", "scheme", "x_name", "x")
ROW_METRICS = (
    "sp_bovw_ms", "sp_inv_ms", "client_bovw_ms", "client_inv_ms",
    "bovw_vo_kb", "inv_vo_kb",
)
CONTEXT_KEYS = ("hw_threads", "avx2_active", "compiler", "build_type")


def context(report):
    ctx = report.get("context")
    return ctx if isinstance(ctx, dict) else None


def describe(ctx):
    if ctx is None:
        return "none recorded"
    return ", ".join(f"{k}={json.dumps(ctx.get(k))}" for k in CONTEXT_KEYS)


def hardware_label(fresh_ctx, base_ctx):
    if fresh_ctx is None or base_ctx is None:
        return "cross-hardware (a report records no context)"
    differ = [k for k in CONTEXT_KEYS if fresh_ctx.get(k) != base_ctx.get(k)]
    if differ:
        return f"cross-hardware (differs in {', '.join(differ)})"
    return "same hardware"


def metrics(report):
    out = {}
    for key, value in report.get("values", {}).items():
        if isinstance(value, (int, float)):
            out[f"values.{key}"] = float(value)
    for row in report.get("rows", []):
        tag = "/".join(str(row.get(k, "?")) for k in ROW_KEY)
        for m in ROW_METRICS:
            value = row.get(m)
            if isinstance(value, (int, float)):
                out[f"rows.{tag}.{m}"] = float(value)
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            fresh = json.load(f)
        with open(argv[2]) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_delta: {e}", file=sys.stderr)
        return 2

    name = fresh.get("bench", argv[1])
    fresh_ctx, base_ctx = context(fresh), context(base)
    print(f"bench_delta [{name}]: fresh context: {describe(fresh_ctx)}")
    print(f"bench_delta [{name}]: baseline context: {describe(base_ctx)}")
    print(f"bench_delta [{name}]: {hardware_label(fresh_ctx, base_ctx)}")
    fresh_m, base_m = metrics(fresh), metrics(base)
    deltas = {}
    for key, fv in fresh_m.items():
        bv = base_m.get(key)
        if bv is None or bv == 0:
            continue
        deltas[key] = (fv - bv) / abs(bv)
    if not deltas:
        print(f"bench_delta [{name}]: no comparable metrics "
              f"({len(fresh_m)} fresh vs {len(base_m)} baseline)")
        return 0

    worst_key = max(deltas, key=lambda k: abs(deltas[k]))
    med = statistics.median(deltas.values())
    mode = "smoke-vs-baseline" if fresh.get("smoke") and not base.get("smoke") \
        else "like-for-like"
    print(f"bench_delta [{name}]: {len(deltas)} comparable metrics "
          f"({mode}), median {med:+.1%}, worst {deltas[worst_key]:+.1%} "
          f"({worst_key})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
