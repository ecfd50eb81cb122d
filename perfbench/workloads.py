"""The benchmark's workloads: seeded inputs, one round of items, known answers.

A run repeats whole rounds.  Every round holds the same multiset of items,
shuffled afresh from the seed, so throughput does not depend on where the
clock stops and each latency percentile falls at the same relative rank of
the same cost classes in every run.

Each item is one request through the package's public API.  `call` is the
timed part; `check` compares its output with an answer the benchmark derives
on its own (closed forms from README, selftest tolerances, exact idempotence
and invariance, modular arithmetic for orders) and returns None when the
output is right or a one-line reason when it is not.  Checks read only the
keys they need and ignore any other key or record.

Item costs quoted below were measured at the commit that introduced the
benchmark, on a 2-vCPU x86-64 Linux VM with CPython 3.11.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from superflows import cli, engine, flows, homog, matgroup, symmetry
from superflows.cyclotomic import CycNum, euler_phi, root_of_unity
from superflows.homog import HomPoly, RatVF


@dataclass(frozen=True)
class Item:
    label: str
    cost_class: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    items: list  # one round
    warmup: list


# -- known answers -----------------------------------------------------------

def closed_form_verdict(m: int):
    """README's closed form: None for "none", else the field as Laurent terms.

    A field is a frozenset of (component, x exponent, y exponent, coefficient)
    with the monomial denominator folded into negative exponents.
    """
    if m % 4 == 0:
        return None
    if m % 2 == 0:
        # the coordinate swap conjugates (P(x, y), Q(x, y)) to (Q(y, x), P(y, x))
        return frozenset((1 - c, b, a, q) for c, a, b, q in closed_form_verdict(m // 2))
    k = m // 4
    if m % 4 == 3:
        return frozenset({(0, -2 * k, 2 * k + 2, Fraction(1))})
    return frozenset({(1, 2 * k + 1, 1 - 2 * k, Fraction(1))})


_TERM = re.compile(r"\{([^}]*)\}\*x\^(\d+)\*y\^(\d+)")
_DENOM = re.compile(r"x\^(\d+)\*y\^(\d+)")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def parse_field_text(text: str):
    """Laurent terms of a field in the package's exact text form, or None if unreadable."""
    halves = text.split("•")
    if len(halves) != 2:
        return None
    terms = set()
    for component, half in enumerate(halves):
        half = half.strip()
        if half == "0":
            continue
        num, slash, den = half.rpartition(" / ")
        if not slash:
            num, den = half, "x^0*y^0"
        dm = _DENOM.fullmatch(den.strip())
        matches = list(_TERM.finditer(num))
        if not dm or " + ".join(t.group(0) for t in matches) != num.strip():
            return None
        for t in matches:
            head = t.group(1).split(";")[0].strip()
            coeff = Fraction(head) if _RATIONAL.fullmatch(head) else head
            terms.add(
                (component, int(t.group(2)) - int(dm.group(1)),
                 int(t.group(3)) - int(dm.group(2)), coeff)
            )
    return frozenset(terms)


def _json_records(text: str, key: str) -> list:
    """JSON-line records of a CLI report that carry `key`; other lines are ignored."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            record = json.loads(line)
            if key in record:
                out.append(record)
    return out


# -- CLI items ---------------------------------------------------------------

def _cli(argv):
    """Run the command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_item(argv, cost_class, check) -> Item:
    argv = [str(a) for a in argv] + ["--format", "json"]
    label = " ".join(a for a in argv if a not in ("--format", "json"))
    return Item(label, cost_class, lambda: _cli(argv), check)


def _exit_ok(result):
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    return None


def _solve_item(m: int) -> Item:
    want = closed_form_verdict(m)

    def check(result):
        bad = _exit_ok(result)
        if bad:
            return bad
        records = _json_records(result[1], "status")
        if len(records) != 1:
            return f"expected one verdict record, got {len(records)}"
        rec = records[0]
        if want is None:
            return None if rec["status"] == "none" else f"status {rec['status']}, want none"
        if rec["status"] != "superflow":
            return f"status {rec['status']}, want superflow"
        got = parse_field_text(rec.get("field") or "")
        return None if got == want else f"field {rec.get('field')!r} is not the closed form"

    return _cli_item(["solve", "--m", m], VERDICT_CLASS_OF[m], check)


# tolerances of the acceptance suite (superflows.selftest)
def _record_tolerance(request: str, family: str, rec) -> float:
    check = rec.get("check")
    if check == "translation":
        return 1e-10 if family in ("parabolic", "level0") else 1e-9
    if check == "pde" or check == "orbit_ode":
        return 1e-6
    if check == "vector_field_extraction":
        return 1e-7
    if check == "orbit_conservation":
        subject = str(rec.get("flow", rec.get("subject", "")))
        return 1e-6 if "nonalgebraic" in subject else 1e-9
    raise KeyError(f"{request}: unexpected check {check!r}")


_EXPECTED_CHECKS = {
    "verify-flow": ["translation"],
    "verify-pde": ["pde", "vector_field_extraction"],
    "orbits": ["orbit_conservation", "orbit_ode"] * 3,
}


def _check_records(request: str, family: str):
    def check(result):
        bad = _exit_ok(result)
        if bad:
            return bad
        records = _json_records(result[1], "max_residual")
        checks = sorted(r.get("check") for r in records)
        if checks != sorted(_EXPECTED_CHECKS[request]):
            return f"records {checks}, want {_EXPECTED_CHECKS[request]}"
        for rec in records:
            tol = _record_tolerance(request, family, rec)
            if not rec["max_residual"] <= tol:
                return f"{rec.get('check')} residual {rec['max_residual']:.3e} > {tol:g}"
        return None

    return check


def _check_symmetry(result):
    bad = _exit_ok(result)
    if bad:
        return bad
    records = _json_records(result[1], "worst_residual")
    if len(records) != 1:
        return f"expected one symmetry record, got {len(records)}"
    rec = records[0]
    if rec.get("all_passed") is not True or not rec["worst_residual"] <= 1e-8:
        return f"symmetry failed: worst residual {rec['worst_residual']:.3e}"
    return None


# -- verdict_sweep -------------------------------------------------------------

# Cost of one `solve --m M` at the seed, by class.  m = 19, 23 and 25 cost
# 1.1-3.3 s each and are left out so that no single item swamps a run.
VERDICT_CLASSES = {
    "solve <15ms": (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28),
    "solve 20-27ms": (7, 14, 9, 18),
    "solve 130ms": (11, 22),
    "solve 260ms": (13, 15, 26),
    "solve 0.7-1.3s": (17, 21, 27),
}
VERDICT_CLASS_OF = {m: cls for cls, ms in VERDICT_CLASSES.items() for m in ms}

# Every m once, plus extra copies of m=7 and m=13: per round 11 items below
# 15 ms, 30 at 20-27 ms, 2 at 130 ms, 6 at 260 ms and 3 above 0.7 s, 52 in
# all.  The median (rank 26/52) lies in the middle of the 20-27 ms block
# (ranks 12-41) and the p90 (nearest rank 47/52) 4/6 into the 260 ms block
# (ranks 44-49); each next class up costs at least twice as much.
VERDICT_COPIES = {7: 27, 13: 4}


def verdict_sweep(seed: int) -> Workload:
    items = [
        _solve_item(m)
        for m in sorted(VERDICT_CLASS_OF)
        for _ in range(VERDICT_COPIES.get(m, 1))
    ]
    return Workload(items, [_solve_item(m) for m in (3, 4, 6)])


# -- numeric_verify ------------------------------------------------------------

def _flow_args(flow) -> list:
    args = ["--family", flow.family]
    return args + (["--k", flow.k] if flow.k else [])


# Two tiers of requests, each within the 30-70 ms a request should cost: the
# 14 verify-flow/verify-pde requests at about 30 ms, and orbits and the 4
# symmetry requests at about 70 ms.  The median (rank 9.5/19) then lies 68 %
# into the 30 ms block and the p90 (rank 17.1/19) 62 % into the 70 ms block,
# away from the point where the host's fast and slow spells would trade
# places.  Sample counts are fixed; per-sample costs are in the comments.
VERIFY_FLOW_SAMPLES = {  # 6 us (polynomial flows) to 17 us (radicals)
    "parabolic": 4900, "sph_inf": 4100, "level0": 4500,
    "radical_x(k=1)": 1800, "radical_x(k=2)": 1850,
    "radical_y(k=1)": 1950, "radical_y(k=2)": 1800,
}
VERIFY_PDE_SAMPLES = {  # 30 us (parabolic) to 65 us (radicals)
    "parabolic": 1000, "sph_inf": 830, "level0": 900,
    "radical_x(k=1)": 480, "radical_x(k=2)": 480,
    "radical_y(k=1)": 490, "radical_y(k=2)": 460,
}
ORBIT_STEPS, ORBIT_SAMPLES = 1050, 100  # 3 RK4 paths, about 65 us per step
SYMMETRY_DRAWS = {  # 0.07 ms (triangular families) to 0.17 ms (radicals) per draw
    ("gamma_4k3", 1): 400, ("gamma_4k1", 1): 390,
    ("delta_tilde", None): 960, ("gamma_sph", None): 750,
}
CHECK_SHORT, CHECK_LONG = "check 30ms", "check 70ms"


def numeric_verify(seed: int) -> Workload:
    rng = random.Random(seed)

    def seed_arg():
        return ["--seed", rng.randrange(1, 2**31)]

    items = []
    for flow in flows.catalog():
        items.append(_cli_item(
            ["verify-flow", *_flow_args(flow), "--samples",
             VERIFY_FLOW_SAMPLES[flow.label], *seed_arg()],
            CHECK_SHORT, _check_records("verify-flow", flow.family)))
    for flow in flows.catalog():
        items.append(_cli_item(
            ["verify-pde", *_flow_args(flow), "--samples",
             VERIFY_PDE_SAMPLES[flow.label], *seed_arg()],
            CHECK_SHORT, _check_records("verify-pde", flow.family)))
    items.append(_cli_item(
        ["orbits", "--steps", ORBIT_STEPS, "--samples", ORBIT_SAMPLES, *seed_arg()],
        CHECK_LONG, _check_records("orbits", "")))
    for (family, k), draws in SYMMETRY_DRAWS.items():
        k_args = ["--k", k] if k else []
        items.append(_cli_item(
            ["symmetry", "--family", family, *k_args, "--draws", draws, *seed_arg()],
            CHECK_LONG, _check_symmetry))
    warmup = [
        _cli_item(["verify-flow", "--family", "radical_x", "--k", 1, "--samples", 50],
                  CHECK_SHORT, _check_records("verify-flow", "radical_x")),
        _cli_item(["verify-pde", "--family", "sph_inf", "--samples", 20],
                  CHECK_SHORT, _check_records("verify-pde", "sph_inf")),
        _cli_item(["orbits", "--steps", 20, "--samples", 5],
                  CHECK_SHORT, _check_records("orbits", "")),
        _cli_item(["symmetry", "--family", "gamma_sph", "--draws", 3],
                  CHECK_SHORT, _check_symmetry),
    ]
    return Workload(items, warmup)


# -- exact_oracle --------------------------------------------------------------

def _nonzero(rng) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _dense_field(rng, m: int, lx: int, ly: int) -> RatVF:
    """Every coefficient nonzero; alternately rational (order 1) and dense in Q(zeta_m)."""
    deg = lx + ly + 2
    coeffs = []
    for j in range(2 * (deg + 1)):
        if j % 2:
            coeffs.append(CycNum(m, [_nonzero(rng) for _ in range(euler_phi(m))]))
        else:
            coeffs.append(CycNum.rational(_nonzero(rng)))
    return RatVF(HomPoly(deg, coeffs[: deg + 1]), HomPoly(deg, coeffs[deg + 1:]), lx, ly)


def _superflow_denominator(m: int):
    k = m // 4
    return (2 * k, 0) if m % 4 == 3 else (0, 2 * k - 1)


def _reynolds_item(m: int, fields: list, cost_class: str) -> Item:
    """Average dense fields over <alpha(m)> at the superflow's own denominator.

    There the invariant space is spanned by the superflow alone, so the
    average must be idempotent, fixed by every element, and proportional
    to README's closed form.
    """
    want = closed_form_verdict(m)

    def call():
        group = matgroup.alpha_group(m)
        out = []
        for field in fields:
            avg = homog.reynolds_average(group, field)
            again = homog.reynolds_average(group, avg)
            fixed = all(avg.conjugate(g) == avg for g in group)
            out.append((avg, again == avg, fixed))
        return out

    def check(results):
        for avg, idempotent, fixed in results:
            if not idempotent:
                return "average is not idempotent"
            if not fixed:
                return "average is not invariant"
            if avg.is_zero or parse_field_text(avg.normalized().to_text()) != want:
                return "average is not proportional to the closed-form superflow"
        return None

    return Item(f"reynolds m={m} x{len(fields)}", cost_class, call, check)


def _reynolds_verdict_item(ms, cost_class: str) -> Item:
    """find_superflow by plain averaging (the oracle path) for each m in ms."""
    def call():
        return [(m, engine.find_superflow(matgroup.alpha_group(m), method="reynolds"))
                for m in ms]

    def check(results):
        for m, verdict in results:
            if verdict.status != "superflow" or verdict.field is None:
                return f"m={m}: status {verdict.status}, want superflow"
            if parse_field_text(verdict.field.to_text()) != closed_form_verdict(m):
                return f"m={m}: field {verdict.field.pretty()} is not the closed form"
        return None

    return Item(f"find_superflow reynolds m={','.join(map(str, ms))}", cost_class, call, check)


def _tau_item(odd_ms) -> Item:
    """Swap-conjugate the closed-form verdict of each odd m; it must be the one of 2m."""
    fields = []
    for m in odd_ms:
        (component, a, b, _), = closed_form_verdict(m)
        lx, ly = max(-a, 0), max(-b, 0)
        i = a + lx
        fields.append((m, homog.monomial_field(component, i, lx, ly)))

    def call():
        swap = matgroup.tau()
        return [(m, f.conjugate(swap).normalized()) for m, f in fields]

    def check(results):
        for m, image in results:
            if parse_field_text(image.to_text()) != closed_form_verdict(2 * m):
                return f"tau-conjugate of m={m} is {image.pretty()}"
        return None

    return Item(f"tau m={odd_ms[0]}..{odd_ms[-1]}", EXACT_MID, call, check)


def _orders_item(n: int, exponents, b: Fraction) -> Item:
    """family_finite_order on members built from zeta_n^j, against modular arithmetic."""
    gamma_x, gamma_y = symmetry.gamma_4k3(1), symmetry.gamma_4k1(1)
    cases = []
    for j in exponents:
        c = root_of_unity(n, j)
        o = n // math.gcd(n, j)  # the order of zeta_n^j
        for fam in (gamma_x, gamma_y):
            e1, e2 = fam.exponents
            want = math.lcm(o // math.gcd(o, e1), o // math.gcd(o, e2))
            cases.append((fam, c, want))
        # d = 1 with b != 0 is a shear of infinite order
        triangular = o if o > 1 else None
        cases.append((symmetry.delta_tilde(), (b, c), triangular))
        cases.append((symmetry.gamma_sph(), (c, b), triangular))
    off_circle = root_of_unity(n, 1) + 1  # |1 + zeta_n| != 1 for n != 3

    def call():
        got = [symmetry.family_finite_order(fam, params) for fam, params, _ in cases]
        return got, off_circle.multiplicative_order()

    def check(result):
        got, off = result
        for (fam, _, want), order in zip(cases, got):
            if order != want:
                return f"{fam.label} order {order}, want {want}"
        return None if off is None else f"1 + zeta_{n} has order {off}, want none"

    return Item(f"orders n={n} x{len(cases)}", EXACT_MID, call, check)


# Two cost classes at the seed, with items per round (30 in all):
#   "exact 50-75ms"   22: dense Reynolds m=3 (three fields), m=5 (two) and
#                         m=9 (one); averaging verdicts m=3 and 6; tau; orders
#   "exact 250-290ms"  8: dense Reynolds m=7 (three fields); averaging
#                         verdicts m=5, 10
# The median (rank 15/30) lies 68 % into the 50-75 ms block and the p90 (rank
# 27/30) 62 % into the 250-290 ms block, away from the point where the host's
# fast and slow spells would trade places; the blocks differ fourfold.
EXACT_MID, EXACT_BIG = "exact 50-75ms", "exact 250-290ms"
REYNOLDS = {  # m: (dense fields per item, items per round, cost class)
    3: (3, 2, EXACT_MID),
    5: (2, 8, EXACT_MID),
    9: (1, 4, EXACT_MID),
    7: (3, 6, EXACT_BIG),
}
ORDER_EXPONENTS = {  # about 65 ms per batch; multiples of n give d = 1
    7: tuple(range(1, 36)),
    12: tuple(range(1, 51)),
    30: (1, 7, 11, 13, 17),
    61: (1, 2, 3, 5, 7, 10, 20, 31, 45, 61),
    120: (1, 2, 3, 5, 120),
}
TAU_ODD_M = tuple(range(3, 60, 2))


def exact_oracle(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for m, (per_item, copies, cost_class) in REYNOLDS.items():
        lx, ly = _superflow_denominator(m)
        for _ in range(copies):
            fields = [_dense_field(rng, m, lx, ly) for _ in range(per_item)]
            items.append(_reynolds_item(m, fields, cost_class))
    items += [_reynolds_verdict_item((3, 6), EXACT_MID)] * 2
    items += [_reynolds_verdict_item((m,), EXACT_BIG) for m in (5, 10)]
    items.append(_tau_item(TAU_ODD_M))
    b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    items += [_orders_item(n, js, b) for n, js in ORDER_EXPONENTS.items()]
    warmup = [
        _reynolds_item(3, [_dense_field(rng, 3, 0, 0)], EXACT_MID),
        _reynolds_verdict_item((3,), EXACT_MID),
        _tau_item((3, 5)),
        _orders_item(7, (1,), b),
    ]
    return Workload(items, warmup)


WORKLOADS = {
    "verdict_sweep": verdict_sweep,
    "numeric_verify": numeric_verify,
    "exact_oracle": exact_oracle,
}
