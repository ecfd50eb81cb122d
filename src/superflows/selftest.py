"""Acceptance checks runnable as one suite.

Each criterion below is registered in CRITERIA by `_criterion`, which times it
and returns its CriterionResult; the CLI `selftest` command and the pytest
acceptance module both drive that list, so the shipped binary and the test
suite agree on what "passing" means.  All sampling is seeded.  The numeric
criteria draw from one seeded generator and run the check functions of
`flows` and `symmetry`, which own the tolerances and are the same ones the
CLI runs; their failing records are the problems reported.  The exact
criteria compare against closed forms and oracles here.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import engine, flows, symmetry
from .cyclotomic import CycNum, root_of_unity
from .errors import BranchError
from .homog import HomPoly, RatVF, reynolds_average
from .matgroup import Mat2, MonomialGroup, alpha_group, alpha_matrix, generate_group, tau

SEED = 20160808


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


CRITERIA = []  # (name, criterion) pairs, in the order the criteria are defined


def _criterion(name: str, time_limit: float | None = None):
    """Register a check in CRITERIA under `name`; it runs timed and returns a CriterionResult.

    The check returns (problems, detail): the criterion passes when problems
    is empty, and then reports detail.  With a time limit, a run at or past
    it is one more problem, and a passing detail ends with the elapsed time.
    """
    def register(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            start = time.perf_counter()
            problems, detail = check()
            elapsed = time.perf_counter() - start
            if time_limit is not None:
                if elapsed >= time_limit:
                    problems.append(f"runtime {elapsed:.1f}s exceeds {time_limit:.0f}s")
                detail += f", {elapsed:.2f}s"
            return CriterionResult(name, not problems, "; ".join(problems) or detail, elapsed)

        CRITERIA.append((name, run))
        return run

    return register


def _failures(records) -> list[str]:
    return [f"{r.flow} {r.check} {r.max_residual:.2e}" for r in records if not r.passed]


@_criterion("classification", time_limit=30.0)
def criterion_classification():
    """classify over m = 3..20: superflow exactly off multiples of 4, exact fields."""
    problems = []
    for m, _, verdict in engine.classify_alpha(3, 20):
        if (verdict.status == "superflow") != (m % 4 != 0):
            problems.append(f"m={m}: status {verdict.status}")
            continue
        k, r = divmod(m, 4)
        if r == 3:  # y^(2k+2)/x^(2k) in the first component
            want = (RatVF.monomial(0, -2 * k), 2 * k)
        elif r == 1:  # x^(2k+1)/y^(2k-1) in the second
            want = (RatVF.monomial(1, 2 * k + 1), 2 * k - 1)
        else:
            continue
        if (verdict.field, verdict.denom_degree) != want:
            problems.append(f"m={m}: field {verdict.field}")
    return problems, "18 rows match, fields exact"


@_criterion("character_sum_oracle")
def criterion_character_sums():
    """The verdict's survivor classes vs exact group averages, one period.

    `engine._survivor_class(group, component)` decides every verdict.  For each
    exponent a in one period of n = lcm(2, conductor), the Reynolds average
    of the Laurent monomial x^a y^(2-a) over every group element must give
    the monomial back when a lies in its component's class, and zero
    otherwise.  Groups: <alpha(m)> for m = 3..13 and one two-generator
    diagonal group.  The classes are solved from the group's exponent form,
    while the averages run over its closure by Mat2 products, so the oracle
    shares no group code with the classes.
    """
    z3 = root_of_unity(3)
    cases = [(f"alpha({m})", alpha_group(m), [alpha_matrix(m)]) for m in range(3, 14)]
    two = [Mat2.diagonal(z3, z3 ** 2), Mat2.diagonal(root_of_unity(4), 1)]
    cases.append(("<diag(z3, z3^2), diag(i, 1)>", MonomialGroup.from_matrices(two), two))
    checked, bad = 0, []
    for label, group, generators in cases:
        oracle = generate_group(generators)
        n = group.n
        for component in (0, 1):
            solved = engine._survivor_class(group, component)
            for a in range(1 - n // 2, n // 2 + 1):
                field = RatVF.monomial(component, a)
                survives = solved is not None and (a - solved[0]) % solved[1] == 0
                want = field if survives else RatVF.zero()
                checked += 1
                if reynolds_average(oracle, field) != want:
                    bad.append(f"disagreement: {label} component {component} a={a}")
    return bad[:5], f"{checked} monomials agree over {len(cases)} groups"


@_criterion("reynolds_properties")
def criterion_reynolds():
    """Averaging is idempotent and its output exactly invariant, 50 fields per group.

    The first 10 fields of each group are also compared with the
    definitional sum of their conjugates over |G|, and each group must give
    a nonzero average, so that a map to the zero field cannot pass.
    """
    rng = random.Random(SEED)
    failures = []
    compared = nonzero = 0
    for m in (3, 5, 7):
        group = alpha_group(m)
        zeta = root_of_unity(m)
        group_nonzero = 0
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
            group_nonzero += not avg.is_zero
            if trial < 10:
                compared += 1
                definition = RatVF.sum(field.conjugate(g) for g in group)
                if avg != definition.scale(Fraction(1, len(group))):
                    failures.append(f"m={m} trial {trial}: definition")
            if reynolds_average(group, avg) != avg:
                failures.append(f"m={m} trial {trial}: idempotence")
            if not all(avg.conjugate(g) == avg for g in group):
                failures.append(f"m={m} trial {trial}: invariance")
        if not group_nonzero:
            failures.append(f"m={m}: every average is zero")
        nonzero += group_nonzero
    detail = f"150 fields pass, {compared} equal the definitional sum, {nonzero} averages nonzero"
    return failures[:5], detail


@_criterion("flow_identities", time_limit=10.0)
def criterion_flow_identities():
    """Translation identity, PDE, and field extraction for every cataloged flow."""
    rng = random.Random(SEED)
    records = []
    for flow in flows.catalog():
        records.append(flows.check_translation(flow, rng, 200))
        records += flows.check_pde(flow, rng, 200)
    return _failures(records), "7 flows x (translation, pde, field)"


@_criterion("orbit_checks")
def criterion_orbits():
    """Orbit functions stay constant along RK4 trajectories; orbit ODE residuals."""
    problems = _failures(flows.check_orbits(random.Random(SEED), 100, 1500))
    return problems, "3 orbit examples conserved"


@_criterion("symmetry_families")
def criterion_symmetry_families():
    """Family draws pass, off-family draws fail, finite-order laws exact."""
    rng = random.Random(SEED)
    problems = []
    # every cataloged flow but level0, which has no symmetry family
    paired = [flow for flow in flows.catalog() if flow.family != "level0"]
    for flow in paired:
        samples = symmetry.draw_samples(flow, rng)
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
    return problems, "6 families x 20 draws pass, 6 x 20 off-family fail, orders exact"


@_criterion("impossibility")
def criterion_impossibility():
    """m in {4, 8, 12}: verdict none via shortcut and via empty survivor classes, agreeing."""
    problems = []
    for m in (4, 8, 12):
        group = alpha_group(m)
        fast = engine.find_superflow(group)
        classes = [engine._survivor_class(group, component) for component in (0, 1)]
        if not fast.shortcut_used:
            problems.append(f"m={m}: shortcut not taken")
        if fast.status != "none" or classes != [None, None]:
            problems.append(f"m={m}: {fast.status}, survivor classes {classes}")
    return problems, "shortcut and empty classes agree on none"


@_criterion("tau_reduction")
def criterion_tau_reduction():
    """m = 2 mod 4 superflow equals the tau-conjugate of the odd-case superflow."""
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
    return problems, "m=6,10,14 reduce exactly"


def run_all() -> list[CriterionResult]:
    return [fn() for _, fn in CRITERIA]
