"""Benchmark entry point.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/superflows`.  Set-up time is
the median, over several fresh interpreters, of the time from starting the
interpreter until it has imported the package, generated the inputs and run
the warm-up items (worker.py setup).  The timed
stream runs in one more process (worker.py stream), so that its peak RSS is
its own.  The last line of stdout is one JSON object: with --trace 0 it
carries the end-to-end metrics, with --trace 1 the per-layer metrics.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verdict_sweep", "numeric_verify", "exact_oracle")
SETUP_PROBES = 7
TIME_LIMIT_S = 170

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_per_op"):
        return "ratio"
    return "count"


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "superflows" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'superflows'}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_s = []
    for _ in range(SETUP_PROBES):
        # the probe measures itself: waiting here with a timeout polls the
        # child every 50 ms, which would round the time to that step
        argv = [sys.executable, str(WORKER), "setup", *common,
                "--spawned-at", repr(time.monotonic())]
        try:
            probe = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                   timeout=30)
        except subprocess.TimeoutExpired:
            return fail("set-up probe timed out")
        if probe.returncode != 0:
            return fail(f"set-up probe exited {probe.returncode}")
        setup_s.append(float(probe.stdout.strip().splitlines()[-1]))

    budget = TIME_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "stream", *common,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {budget:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"workload process exited {proc.returncode}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    print(
        f"{args.workload} seed={args.seed}: {run['attempted']} items in "
        f"{run['rounds']} rounds of {run['items_per_round']}, {run['wall_s']:.2f} s; "
        f"median ms by cost class { {c: round(v, 1) for c, v in run['class_median_ms'].items()} }; "
        f"p50 window {run['p50_window_classes']}, p90 window {run['p90_window_classes']}; "
        f"calib before/after {run['calib_ms'][0]:.1f}/{run['calib_ms'][1]:.1f} ms; "
        f"setup probes {[round(s, 3) for s in setup_s]}",
        file=sys.stderr,
    )
    for line in run["failures"]:
        print(f"failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in run["layers"].items()}
        print(f"spans written to {run['spans_file']}", file=sys.stderr)
    else:
        values = {**run, "setup_s": statistics.median(setup_s)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": run["failed"] == 0 and run["warmup_failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
