"""Command-line surface: classification runs, verification suites, reports.

Machine output (JSON lines, TSV) goes to stdout alone; human-oriented text is
a separate format, never mixed onto the same stream.  Every sampled run is
seeded and prints its seed, so identical config plus seed reproduces the
report byte for byte.  The checks and their tolerances live in flows and
symmetry; each command draws the samples and returns its records, which
`main` alone renders.  Exit status 0 means every check met its tolerance;
1 means some check failed; 2 is a usage error, out-of-range values included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from contextlib import nullcontext
from dataclasses import replace

from . import engine, flows, selftest, symmetry
from .matgroup import alpha_group


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than lo."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return convert


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


_m_value = _int_at_least(3)
_positive = _int_at_least(1)


def _m_range(text: str) -> tuple[int, int]:
    """argparse type for classify --m: a single m or a range lo..hi, each m >= 3."""
    lo, dots, hi = text.partition("..")
    lo = _m_value(lo)
    hi = _m_value(hi) if dots else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _make_flow(family: str, args) -> flows.ClosedFormFlow:
    """The flow of --family and --k; a flow that rejects its k is a usage error."""
    try:
        return flows.ClosedFormFlow(family, args.k or 0)
    except ValueError as exc:
        raise argparse.ArgumentError(None, f"--family {args.family}: {exc}") from None


def _finite(value):
    """value, with each NaN or infinity in it written as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


# one encoder for every line: json.dumps with any option set builds a new one per call
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _json_line(record: dict) -> str:
    """One JSON line.  JSON (RFC 8259) has no NaN or Infinity: those are written as null."""
    return _JSON.encode({k: _finite(v) for k, v in record.items()})


def _emit(lines, args):
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as handle:
        handle.writelines(line + "\n" for line in lines)
        handle.flush()  # so that a closed reader of stdout raises here, inside main's handler


def _judge(record, args):
    """The record, held to --tol instead of its own tolerance when --tol is given."""
    return record if args.tol is None else replace(record, tol=args.tol)


def _report(records, args):
    """The JSON records, text lines and verdict of checked records, as every cmd_* returns them."""
    records = [_judge(r, args) for r in records]
    text = [f"seed={args.seed}"] + [
        f"{r.flow}  {r.check}: n={r.n_samples}  max_residual={r.max_residual:.3e}"
        for r in records
    ]
    json_records = [{**r.as_dict(), "seed": args.seed} for r in records]
    return json_records, text, all(r.passed for r in records)


def _verdict_keys(m, group, verdict) -> dict:
    """The five JSON keys that solve and classify share, in TSV column order, from <alpha(m)>'s verdict."""
    return {"m": m, "group_order": group.order, "status": verdict.status,
            "denom_degree": verdict.denom_degree,
            "field": verdict.field.to_text() if verdict.field else None}


def _reduction(m: int) -> int | None:
    """For m = 2 mod 4, the odd order m/2 that <alpha(m)> reduces to by tau."""
    return m // 2 if m % 4 == 2 else None


def _classify_text(rows):
    for m, group, verdict in rows:
        field = verdict.field.pretty() if verdict.field else "-"
        reduction = _reduction(m)
        extra = f"  (reduces to m={reduction})" if reduction else ""
        degree = "-" if verdict.denom_degree is None else verdict.denom_degree
        yield (
            f"m={m:<3d} |G|={group.order:<3d} {verdict.status:<10s} "
            f"denom_deg={degree:<3} field={field}{extra}"
        )


def _classify_tsv(rows):
    yield "m\tgroup_order\tstatus\tdenom_degree\tfield\treduction"
    for m, group, verdict in rows:
        values = (*_verdict_keys(m, group, verdict).values(), _reduction(m))
        yield "\t".join(["" if v is None else str(v) for v in values])


def cmd_classify(args):
    # generators: only the format that is printed gets rendered
    rows = engine.classify_alpha(*args.m)
    text = (_classify_tsv if args.format == "tsv" else _classify_text)(rows)
    records = ({**_verdict_keys(m, group, verdict),
                "field_pretty": verdict.field.pretty() if verdict.field else None,
                "reduction": _reduction(m)} for m, group, verdict in rows)
    return records, text, True


def cmd_solve(args):
    group = alpha_group(args.m)
    verdict = engine.find_superflow(group, max_denom_degree=args.max_degree)
    payload = {**_verdict_keys(args.m, group, verdict),
               "dimension": verdict.dimension, "scan_bound": verdict.scan_bound}
    return [payload], [f"{verdict.describe()}, |G| = {group.order}"], True


def cmd_verify_flow(args):
    flow = _make_flow(args.family, args)
    return _report([flows.check_translation(flow, random.Random(args.seed), args.samples)], args)


def cmd_verify_pde(args):
    flow = _make_flow(args.family, args)
    return _report(flows.check_pde(flow, random.Random(args.seed), args.samples), args)


def cmd_orbits(args):
    return _report(flows.check_orbits(random.Random(args.seed), args.samples, args.steps), args)


def cmd_symmetry(args):
    flow = _make_flow(symmetry.FAMILIES[args.family][0], args)
    family = symmetry.flow_symmetry_family(flow)
    rng = random.Random(args.seed)
    samples = symmetry.draw_samples(flow, rng)
    record = _judge(symmetry.check_family_draws(flow, samples, rng, args.draws), args)
    report = {
        "flow": flow.label,
        "family": family.label,
        "n_draws": record.n_samples,
        "all_passed": record.passed,
        "worst_residual": record.max_residual,
        "seed": args.seed,
    }
    text = [
        f"seed={args.seed}",
        f"{flow.label}  {family.label}: draws={record.n_samples} "
        f"all_passed={record.passed} worst_residual={record.max_residual:.3e}",
    ]
    return [report], text, record.passed


def cmd_selftest(args):
    results = selftest.run_all()
    records = [
        {"criterion": r.name, "passed": r.passed, "detail": r.detail,
         "elapsed_s": round(r.elapsed, 3)}
        for r in results
    ]
    text = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.elapsed:.2f}s)  {r.detail}"
        for r in results
    ]
    passed = sum(r.passed for r in results)
    text.append(f"{passed}/{len(results)} criteria passed")
    return records, text, passed == len(results)


def _output(*formats):
    """--out, and --format with text, json and any further formats."""
    return (("--out", dict(default=None)),
            ("--format", dict(choices=("text", "json", *formats), default="text")))


_CHECKS = (("--seed", dict(type=int, default=1)),
           ("--tol", dict(type=_tolerance, default=None,
                          help="tolerance for every check, replacing each one's own")),
           *_output())
_FLOW = (("--family", dict(choices=flows.FAMILIES, required=True)),
         ("--k", dict(type=_positive, default=None)),
         ("--samples", dict(type=_positive, default=100)), *_CHECKS)

# each command's name, help, handler and options, in --help order
_COMMANDS = (
    ("classify", "superflow verdicts for alpha groups over an m range", cmd_classify, (
        ("--m", dict(type=_m_range, required=True, help="single m or a range lo..hi")),
        *_output("tsv"))),
    ("solve", "superflow verdict for one alpha group", cmd_solve, (
        ("--m", dict(type=_m_value, required=True)),
        ("--max-degree", dict(type=_int_at_least(0), default=None)), *_output())),
    ("verify-flow", "translation-equation residual for one flow", cmd_verify_flow, _FLOW),
    ("verify-pde", "flow PDE residual and field extraction", cmd_verify_pde, _FLOW),
    ("orbits", "orbit-function conservation along RK4 paths", cmd_orbits, (
        ("--steps", dict(type=_positive, default=1500)),
        ("--samples", dict(type=_positive, default=100)), *_CHECKS)),
    ("symmetry", "sampled verification of a symmetry family", cmd_symmetry, (
        ("--family", dict(choices=sorted(symmetry.FAMILIES), required=True)),
        ("--k", dict(type=_positive, default=None)),
        ("--draws", dict(type=_positive, default=20)), *_CHECKS)),
    ("selftest", "run every acceptance criterion", cmd_selftest, _output()),
)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every command by name and help; only `command` gets its options, most of a parser's cost."""
    parser = argparse.ArgumentParser(
        prog="superflows",
        description="decide, construct, and verify 2-d projective superflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, options in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if name == command:
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.out:
        # an unwritable --out is a usage error before the command does any work
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"--out: cannot write {args.out}: {exc.strerror}")
    try:
        json_records, text, passed = args.func(args)
        _emit(map(_json_line, json_records) if args.format == "json" else text, args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader of stdout has gone: the run ends quietly, and the exit flush writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
