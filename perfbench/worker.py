"""The workload process: one client, one process, no threads, a closed loop.

  python3 perfbench/worker.py setup  --workload W --seed N --spawned-at T
  python3 perfbench/worker.py stream --workload W --seed N --seconds S --trace 0|1

`setup` imports the package, generates the inputs and runs the warm-up items,
then prints the seconds since `--spawned-at`, a time.monotonic() reading that
run.py takes just before it starts this fresh interpreter (CLOCK_MONOTONIC is
one clock for all processes of the machine).  `stream` does the same
set-up untimed, then sends whole rounds of items until `--seconds` have passed,
one item after the other.  With `--trace 1` it then runs one more round with
the layer wrappers installed.  It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402


def calib_ms() -> float:
    """A fixed stdlib Fraction kernel; its time tracks host speed, not the package."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20001):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        if i % 64 == 0:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
    return (time.perf_counter() - t0) * 1000


def run_item(item, tracer=None):
    """(seconds, failure reason or None); an exception is a failed item."""
    t0 = time.perf_counter()
    try:
        out = item.call() if tracer is None else tracer.span("item:" + item.label, item.call)
    except Exception as exc:  # the stream must go on; the reason is reported
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, item.check(out)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def run_rounds(items, rng, seconds=None, rounds=None, tracer=None):
    """Whole shuffled rounds until `seconds` have passed or `rounds` are done."""
    latencies, classes, failures = [], [], []
    done = 0
    t0 = time.perf_counter()
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            elapsed, reason = run_item(item, tracer)
            latencies.append(elapsed)
            classes.append(item.cost_class)
            if reason is not None:
                failures.append(f"{item.label}: {reason}")
        done += 1
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
    return time.perf_counter() - t0, done, latencies, classes, failures


def nearest_rank(sorted_values, q):
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def percentile_window(latencies, classes, q, width=0.02):
    """Cost classes of the items within +-width of rank q, for the steadiness log."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n = len(order)
    lo = max(math.ceil((q - width) * n) - 1, 0)
    hi = min(math.ceil((q + width) * n), n)
    return sorted({classes[i] for i in order[lo:hi]})


def setup(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    failures = [f"warm-up {item.label}: {reason}"
                for item in workload.warmup
                for reason in [run_item(item)[1]] if reason is not None]
    return workload, failures


def stream(args):
    workload, failures = setup(args.workload, args.seed)
    calib = [calib_ms()]
    wall, rounds, latencies, classes, stream_failures = run_rounds(
        workload.items, random.Random(args.seed), seconds=args.seconds)
    calib.append(calib_ms())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ordered = sorted(latencies)
    result = {
        "attempted": len(latencies),
        "failed": len(stream_failures),
        "warmup_failed": len(failures),
        "failures": (failures + stream_failures)[:20],
        "rounds": rounds,
        "items_per_round": len(workload.items),
        "wall_s": wall,
        "items_per_s": len(latencies) / wall,
        "item_p50_ms": nearest_rank(ordered, 0.5) * 1000,
        "item_p90_ms": nearest_rank(ordered, 0.9) * 1000,
        "class_median_ms": {
            cls: statistics.median(t for t, c in zip(latencies, classes) if c == cls) * 1000
            for cls in sorted(set(classes))
        },
        "p50_window_classes": percentile_window(latencies, classes, 0.5),
        "p90_window_classes": percentile_window(latencies, classes, 0.9),
        "peak_rss_mb": peak_rss_kb / 1024,
        "calib_ms": calib,
    }
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced_wall, _, _, _, traced_failures = run_rounds(
                workload.items, random.Random(args.seed), rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["trace.overhead_ratio"] = traced_wall / (wall / rounds)
        layers["host.calib_ms"] = sum(calib) / len(calib)
        result["layers"] = layers
        result["attempted"] += len(workload.items)
        result["failed"] += len(traced_failures)
        result["failures"] += traced_failures[:5]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "stream"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        # a wrong warm-up answer is reported by the stream process
        setup(args.workload, args.seed)
        print(time.monotonic() - args.spawned_at)
        return 0
    stream(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
