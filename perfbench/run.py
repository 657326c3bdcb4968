"""Benchmark of the shallow-chars CLI pipelines.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

An op is one CLI command, run in-process through
`shallow_chars.cli.main([..., "--json"])` on a fresh context, its stdout
parsed and checked.  A run repeats whole passes over the workload's
input cycle (perfbench/inputs.py) from a single thread, and starts no
pass that the previous pass's wall time says would end after --seconds.
The first output of each input class is checked in full after the
timed passes; later outputs of the same class must repeat it byte for
byte.

The host's speed drifts by up to 1.6x over seconds, for the whole
process (CPU time drifts with wall time).  So a fixed pure-Python loop,
the probe, runs before every timed op and set-up round and after the
last one.  Each time is scaled by PROBE_REF_S over the mean of the two
probes around it: the wall time the op would take on a host where the
probe takes PROBE_REF_S, as it does on the reference host at full
speed.  The raw times and probes stay in the detail file.

--trace 0 prints the end-to-end metrics; --trace 1 repeats the same ops
with the package's entry points wrapped and prints the per-layer ones.
The last stdout line is the JSON result; perfbench/out/ receives the
op times, set-up times and, when traced, the span tree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_ROUNDS = 15
PROBE_LOOP = 100_000
PROBE_REF_S = 0.0064  # the probe at full speed on the reference host (README)

if not (SRC / "shallow_chars" / "cli.py").is_file():
    sys.exit(f"perfbench: no package source at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))


def _fresh_import():
    """Import the package anew, as a process running one command does."""
    for name in [n for n in sys.modules if n == "shallow_chars" or n.startswith("shallow_chars.")]:
        del sys.modules[name]
    sys.modules.pop("inputs", None)
    cli = importlib.import_module("shallow_chars.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's package")
    return cli


def probe() -> float:
    """Wall time of a fixed loop: the host's momentary speed."""
    t0 = perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return perf_counter() - t0


def scaled(seconds: float, around: float) -> float:
    """`seconds` at the reference speed, given the mean probe around them."""
    return seconds * PROBE_REF_S / around


def setup(workload: str, seed: int):
    """Rounds of package import plus input generation.

    Returns (seconds, mean of the probes around the round) per round.
    """
    times = []
    before = probe()
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        cli = _fresh_import()
        import inputs

        cycle = inputs.build_cycle(workload, seed)
        dt = perf_counter() - t0
        after = probe()
        times.append((dt, (before + after) / 2))
        before = after
    return cli, cycle, times


def run_op(cli, op, tracer):
    out, err = io.StringIO(), io.StringIO()
    call = lambda: cli.main(op.argv)  # noqa: E731
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tracer.op(op.label, call) if tracer else call()
    return perf_counter() - t0, rc, out.getvalue()


def measure(cli, cycle, seconds: float, tracer):
    """Whole passes over the cycle; returns op times, failures and outputs.

    Each op time comes as (label, seconds, mean of the probes around it).
    """
    first_output = {}
    times, failed, errors = [], 0, []
    start = perf_counter()
    passes = 0
    before = probe()
    while True:
        t_pass = perf_counter()
        for op in cycle:
            try:
                dt, rc, stdout = run_op(cli, op, tracer)
            except Exception as exc:  # a crash of the program is a failed op
                failed += 1
                errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            after = probe()
            times.append((op.label, dt, (before + after) / 2))
            before = after
            if op.label not in first_output:
                first_output[op.label] = (rc, stdout)
            elif stdout != first_output[op.label][1]:
                errors.append(f"{op.label}: output differs from the first pass")
        passes += 1
        now = perf_counter()
        if now - start + (now - t_pass) > seconds:
            return times, failed, errors, passes, first_output


def check_outputs(cycle, first_output, errors) -> None:
    """Check each input class's output once; later ones repeat it byte for byte."""
    from checks import CheckError, Checker

    checker = Checker()
    for op in cycle:
        if op.label not in first_output:
            continue
        rc, stdout = first_output[op.label]
        try:
            checker.check(op, rc, json.loads(stdout))
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["solve", "verify-hom", "weyl-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli, cycle, setup_times = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    times, failed, errors, passes, first_output = measure(cli, cycle, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_outputs(cycle, first_output, errors)
    attempted = len(times) + failed

    if tracer:
        metrics = tracer.layer_metrics(attempted)
    else:
        by_class = defaultdict(list)
        for label, dt, around in times:
            by_class[label].append(scaled(dt, around))
        class_medians = [statistics.median(v) for v in by_class.values()]
        op_gmean = math.exp(statistics.fmean(math.log(t) for t in class_medians))
        total = sum(sum(v) for v in by_class.values())
        metrics = {
            "op_gmean_s": {"value": op_gmean, "unit": "s"},
            "ops_per_s": {"value": len(times) / total, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(scaled(*t) for t in setup_times), "unit": "s"},
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "cycle": [op.label for op in cycle],
        "op_times": times,
        "setup_times": setup_times,
        "errors": errors,
        "result": result,
    }
    if tracer:
        detail["spans"] = tracer.tree()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
