"""Acceptance checks runnable as one suite.

Each criterion below is a pure function returning a CriterionResult; the CLI
`selftest` command and the pytest acceptance module both drive this list, so
the shipped binary and the test suite agree on what "passing" means.  All
sampling is seeded.  The numeric criteria draw from one seeded generator and
run the check functions of `flows` and `symmetry`, which own the tolerances
and are the same ones the CLI runs; their failing records are the problems
reported.  The exact criteria compare against closed forms and oracles here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import engine, flows, symmetry
from .cyclotomic import CycNum, root_of_unity
from .errors import BranchError
from .homog import HomPoly, RatVF, monomial_field, reynolds_average
from .matgroup import Mat2, MonomialGroup, alpha_group, alpha_matrix, generate_group, tau

SEED = 20160808


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name, start, passed, detail) -> CriterionResult:
    return CriterionResult(name, passed, detail, time.time() - start)


def _failures(records) -> list[str]:
    return [f"{r.flow} {r.check} {r.max_residual:.2e}" for r in records if not r.passed]


def criterion_classification() -> CriterionResult:
    """classify over m = 3..20: superflow exactly off multiples of 4, exact fields."""
    start = time.time()
    rows = engine.classify_alpha(3, 20)
    problems = []
    for row in rows:
        expect_super = row.m % 4 != 0
        if (row.status == "superflow") != expect_super:
            problems.append(f"m={row.m}: status {row.status}")
            continue
        if row.m % 4 == 3:
            k = (row.m - 3) // 4
            want = _monomial_vf(0, 2 * k + 2, 2 * k, 0)
            if row.field != want or row.denom_degree != 2 * k:
                problems.append(f"m={row.m}: field {row.field}")
        elif row.m % 4 == 1:
            k = (row.m - 1) // 4
            want = _monomial_vf(1, 2 * k + 1, 0, 2 * k - 1)
            if row.field != want or row.denom_degree != 2 * k - 1:
                problems.append(f"m={row.m}: field {row.field}")
    elapsed = time.time() - start
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    detail = "; ".join(problems) if problems else (
        f"18 rows match, fields exact, {elapsed:.2f}s"
    )
    return _result("classification", start, not problems, detail)


def _monomial_vf(component, numerator_power, lx, ly) -> RatVF:
    # numerator y^p (first component) or x^p (second component)
    i = 0 if component == 0 else numerator_power
    return monomial_field(component, i, lx, ly)


def criterion_character_sums() -> CriterionResult:
    """The verdict's survival predicate vs exact group averages, one period.

    `engine._Characters(group).survives` decides every verdict.  For each
    exponent a in one period of n = lcm(2, conductor), the Reynolds average
    of the Laurent monomial x^a y^(2-a) over every group element must give
    the monomial back when the predicate says it survives, and zero
    otherwise.  Groups: <alpha(m)> for m = 3..13 and one two-generator
    diagonal group.  The predicate reads each group in exponent form, while
    the averages run over its closure by Mat2 products, so the oracle shares
    no group code with the predicate.
    """
    start = time.time()
    z3 = root_of_unity(3)
    cases = [(f"alpha({m})", alpha_group(m), [alpha_matrix(m)]) for m in range(3, 14)]
    two = [Mat2.diagonal(z3, z3 ** 2), Mat2.diagonal(root_of_unity(4), 1)]
    cases.append(("<diag(z3, z3^2), diag(i, 1)>", MonomialGroup.from_matrices(two), two))
    checked, bad = 0, []
    for label, group, generators in cases:
        chars = engine._Characters(group)
        oracle = generate_group(generators)
        n = chars.n
        for component in (0, 1):
            for a in range(1 - n // 2, n // 2 + 1):
                field = engine._laurent_monomial(component, a)
                want = field if chars.survives(component, a) else RatVF.zero()
                checked += 1
                if reynolds_average(oracle, field) != want:
                    bad.append((label, component, a))
    detail = (
        f"{checked} monomials agree over {len(cases)} groups"
        if not bad else f"disagreements: {bad[:5]}"
    )
    return _result("character_sum_oracle", start, not bad, detail)


def criterion_reynolds() -> CriterionResult:
    """Averaging is idempotent and its output exactly invariant, 50 fields per group."""
    start = time.time()
    rng = random.Random(SEED)
    failures = []
    for m in (3, 5, 7):
        group = alpha_group(m)
        zeta = root_of_unity(m)
        for trial in range(50):
            lx, ly = rng.randint(0, 2), rng.randint(0, 2)
            deg = lx + ly + 2
            coeffs = []
            for _ in range(2 * (deg + 1)):
                c = CycNum.rational(rng.randint(-3, 3))
                if rng.random() < 0.3:
                    c = c * (zeta ** rng.randint(0, m - 1))
                coeffs.append(c)
            field = RatVF(
                HomPoly(deg, coeffs[: deg + 1]),
                HomPoly(deg, coeffs[deg + 1 :]),
                lx,
                ly,
            )
            avg = reynolds_average(group, field)
            if reynolds_average(group, avg) != avg:
                failures.append((m, trial, "idempotence"))
            if not all(avg.conjugate(g) == avg for g in group):
                failures.append((m, trial, "invariance"))
    detail = "150 fields pass" if not failures else f"failures: {failures[:5]}"
    return _result("reynolds_properties", start, not failures, detail)


def criterion_flow_identities() -> CriterionResult:
    """Translation identity, PDE, and field extraction for every cataloged flow."""
    start = time.time()
    rng = random.Random(SEED)
    records = []
    for flow in flows.catalog():
        records.append(flows.check_translation(flow, rng, 200))
        records += flows.check_pde(flow, rng, 200)
    problems = _failures(records)
    elapsed = time.time() - start
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    detail = "; ".join(problems) if problems else (
        f"7 flows x (translation, pde, field), {elapsed:.2f}s"
    )
    return _result("flow_identities", start, not problems, detail)


def criterion_orbits() -> CriterionResult:
    """Orbit functions stay constant along RK4 trajectories; orbit ODE residuals."""
    start = time.time()
    problems = _failures(flows.check_orbits(random.Random(SEED), 100, 1500))
    detail = "; ".join(problems) if problems else "3 orbit examples conserved"
    return _result("orbit_checks", start, not problems, detail)


def criterion_symmetry_families() -> CriterionResult:
    """Family draws pass, off-family draws fail, finite-order laws exact."""
    start = time.time()
    rng = random.Random(SEED)
    problems = []
    paired = [
        flows.ClosedFormFlow("radical_x", 1),
        flows.ClosedFormFlow("radical_x", 2),
        flows.ClosedFormFlow("radical_y", 1),
        flows.ClosedFormFlow("radical_y", 2),
        flows.ClosedFormFlow("parabolic"),
        flows.ClosedFormFlow("sph_inf"),
    ]
    for flow in paired:
        samples = [(flow.sample_point(rng), flow.sample_time(rng)) for _ in range(20)]
        problems += _failures([symmetry.check_family_draws(flow, samples, rng, 20)])
        # off-family: random invertible matrices must all fail
        fails = 0
        attempts = 0
        while fails < 20 and attempts < 200:
            attempts += 1
            entries = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
            det = entries[0] * entries[3] - entries[1] * entries[2]
            if abs(det) < 0.1:
                continue
            matrix = ((entries[0], entries[1]), (entries[2], entries[3]))
            try:
                ok, resid = symmetry.check_flow_symmetry(matrix, flow, samples)
            except BranchError:
                continue
            if ok:
                problems.append(f"{flow.label}: random matrix passed ({resid:.2e})")
            fails += 1
        if fails < 20:
            problems.append(f"{flow.label}: only {fails} usable off-family draws")
    # exact finite-order statements
    z3 = root_of_unity(3)
    gamma = symmetry.gamma_sph().matrix_exact((-(z3 ** 2), CycNum.zero()))
    ident = Mat2.identity(gamma.conductor)
    if (gamma ** 6) != ident or any((gamma ** j) == ident for j in range(1, 6)):
        problems.append("order-6 generator fails exact powering")
    if symmetry.family_finite_order(symmetry.gamma_sph(), (1, 2)) is not None:
        problems.append("gamma(d=1, b=2) should be infinite")
    if symmetry.family_finite_order(symmetry.delta_tilde(), (Fraction(3, 7), root_of_unity(6))) != 6:
        problems.append("delta(b, zeta_6) should have order 6")
    detail = "; ".join(problems) if problems else (
        "6 families x 20 draws pass, 6 x 20 off-family fail, orders exact"
    )
    return _result("symmetry_families", start, not problems, detail)


def criterion_impossibility() -> CriterionResult:
    """m in {4, 8, 12}: verdict none via shortcut and via full scan, agreeing."""
    start = time.time()
    problems = []
    for m in (4, 8, 12):
        group = alpha_group(m)
        fast = engine.find_superflow(group)
        slow = engine.find_superflow(group, minus_i_shortcut=False)
        if not fast.shortcut_used:
            problems.append(f"m={m}: shortcut not taken")
        if fast.status != "none" or slow.status != "none":
            problems.append(f"m={m}: {fast.status}/{slow.status}")
    detail = "; ".join(problems) if problems else "shortcut and scan agree on none"
    return _result("impossibility", start, not problems, detail)


def criterion_tau_reduction() -> CriterionResult:
    """m = 2 mod 4 superflow equals the tau-conjugate of the odd-case superflow."""
    start = time.time()
    problems = []
    swap = tau()
    for m in (6, 10, 14):
        even_field = engine.find_superflow(alpha_group(m)).field
        odd_field = engine.find_superflow(alpha_group(m // 2)).field
        if even_field is None or odd_field is None:
            problems.append(f"m={m}: missing superflow")
            continue
        expected = odd_field.conjugate(swap).normalized()
        if even_field != expected:
            problems.append(
                f"m={m}: {even_field.pretty()} != tau-conj {expected.pretty()}"
            )
    detail = "; ".join(problems) if problems else "m=6,10,14 reduce exactly"
    return _result("tau_reduction", start, not problems, detail)


CRITERIA = [
    ("classification", criterion_classification),
    ("character_sum_oracle", criterion_character_sums),
    ("reynolds_properties", criterion_reynolds),
    ("flow_identities", criterion_flow_identities),
    ("orbit_checks", criterion_orbits),
    ("symmetry_families", criterion_symmetry_families),
    ("impossibility", criterion_impossibility),
    ("tau_reduction", criterion_tau_reduction),
]


def run_criterion(name: str) -> CriterionResult:
    for key, fn in CRITERIA:
        if key == name:
            return fn()
    raise KeyError(f"unknown criterion {name!r}")


def run_all() -> list[CriterionResult]:
    return [fn() for _, fn in CRITERIA]
