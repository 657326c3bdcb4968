"""Summarise benchmark runs from their detail files.

    python3 perfbench/summarize.py [DIR ...]

Each DIR (default perfbench/out) holds the per-run JSON files that
run.py writes.  For every workload it prints, per end-to-end metric and
with its unit, the median and the quartile spread (Q3 - Q1) / median
over the runs in each DIR; the ops attempted and failed; the tracing
overhead (mean traced op time over mean untraced op time, minus one);
and, from the traced runs, each layer's share of op time per input
class.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import scaled


def load(directory: Path):
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted(directory.glob("*.json")):
        detail = json.loads(path.read_text())
        if not isinstance(detail, dict) or "op_times" not in detail:
            continue
        runs[detail["workload"]][detail["trace"]].append(detail)
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def mean_op(details):
    """Mean op time at the reference speed (see run.py)."""
    times = [scaled(dt, around) for d in details for _, dt, around in d["op_times"]]
    return sum(times) / len(times)


def class_shares(details):
    """Per input class: mean op time, and each span name's share of it."""
    per_class = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(int)
    for d in details:
        label_of = {}
        for s in d["spans"]:
            if s["parent"] is None:
                label_of[s["id"]] = s["op"]
                calls[s["op"]] += s["calls"]
            else:
                label_of[s["id"]] = label_of[s["parent"]]
            per_class[label_of[s["id"]]][s["name"]] += s["self_s"]
    out = {}
    for label, layers in sorted(per_class.items()):
        total = sum(layers.values())
        shares = {n: t / total for n, t in sorted(layers.items(), key=lambda kv: -kv[1]) if t / total >= 0.01}
        out[label] = (total / calls[label], shares)
    return out


def main(dirs) -> None:
    sets = [load(Path(d)) for d in dirs]
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for k, runs in enumerate(sets):
            untraced = runs[workload][0]
            if len(untraced) >= 2:
                for name, metric in untraced[0]["result"]["metrics"].items():
                    values = [d["result"]["metrics"][name]["value"] for d in untraced]
                    median, sp = spread(values)
                    print(f"  set {k} {name:12s} median {median:.4g} {metric['unit']:4s} spread {sp:.3f}  (n={len(values)})")
                attempted = [d["result"]["attempted"] for d in untraced]
                failed = [d["result"]["failed"] for d in untraced]
                print(f"  set {k} attempted {min(attempted)}-{max(attempted)} per run, failed {sum(failed)} of {sum(attempted)}")
        untraced = [d for runs in sets for d in runs[workload][0]]
        traced = [d for runs in sets for d in runs[workload][1]]
        if untraced and traced:
            over = mean_op(traced) / mean_op(untraced) - 1
            estimate = statistics.mean(d["result"]["metrics"]["trace.overhead_s"]["value"] for d in traced)
            print(f"  tracing overhead: mean op {mean_op(traced):.4f} s traced, {mean_op(untraced):.4f} s untraced "
                  f"({over:+.1%}); trace.overhead_s {estimate:.2e} s per op")
        if traced:
            for label, (mean, shares) in class_shares(traced).items():
                parts = ", ".join(f"{n} {s:.0%}" for n, s in shares.items())
                print(f"  {label} ({mean:.3f} s): {parts}")


if __name__ == "__main__":
    main(sys.argv[1:] or [str(Path(__file__).resolve().parent / "out")])
