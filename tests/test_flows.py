"""Tests for the closed-form flow catalog and its numeric verification."""

import math
import random
from fractions import Fraction

import pytest

from superflows.engine import classify_alpha
from superflows.errors import BranchError, SingularityApproachError, SingularPointError
from superflows.flows import (
    ClosedFormFlow,
    OrbitFunction,
    _anchored_root,
    catalog,
    check_orbits,
    check_pde,
    check_translation,
    extract_vector_field,
    integrate_trajectory,
    nonalgebraic_field,
    orbit_residual,
    verify_orbit_ode,
    verify_pde,
    verify_translation,
)
from superflows.homog import RatVF
from superflows.symmetry import _conjugation_residual, check_family_draws


def test_parabolic_direct_substitution():
    assert ClosedFormFlow("parabolic").eval((1, 1), 1) == (2, 1)


def _per_family_eval(family, k, p, t):
    """The three formulas the one monomial flow replaced, kept as its bit-level reference."""
    x, y, t = complex(p[0]), complex(p[1]), complex(t)
    if family == "parabolic":
        return (y * y * t + x, y)
    if family == "radical_x":
        return (_anchored_root(x, y ** (2 * k + 2), t, 2 * k + 1), y)
    return (x, _anchored_root(y, x ** (2 * k + 1), t, 2 * k))


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


MONOMIAL_FLOWS = [("parabolic", 0)] + [
    (family, k) for family in ("radical_x", "radical_y") for k in range(1, 6)
]


@pytest.mark.parametrize("family,k", MONOMIAL_FLOWS)
def test_monomial_flow_keeps_the_per_family_bits(family, k):
    flow = ClosedFormFlow(family, k)
    rng = random.Random(1000 + 10 * k + len(family))
    for _ in range(300):
        x, y = flow.sample_point(rng)
        points = [(x, y), (complex(x, rng.uniform(-0.1, 0.1)), complex(y, rng.uniform(-0.1, 0.1)))]
        times = [flow.sample_time(rng), complex(flow.sample_time(rng), flow.sample_time(rng))]
        for p in points:
            for t in times:
                assert _bits(flow.eval(p, t)) == _bits(_per_family_eval(family, k, p, t))


@pytest.mark.parametrize("family,k", MONOMIAL_FLOWS)
def test_monomial_flow_field_is_one_term(family, k):
    if family == "parabolic":
        expected = (0, 0, 1)
    elif family == "radical_x":
        expected = (0, -2 * k, Fraction(1, 2 * k + 1))
    else:
        expected = (1, 2 * k + 1, Fraction(1, 2 * k))
    assert ClosedFormFlow(family, k).vector_field().terms == (expected,)


def test_every_odd_alpha_verdict_is_the_field_of_one_catalog_flow():
    for row in classify_alpha(3, 2001)[::2]:  # the odd m
        m = row.m
        if m == 3:
            flow = ClosedFormFlow("parabolic")
        elif m % 4 == 3:
            flow = ClosedFormFlow("radical_x", (m - 3) // 4)
        else:
            flow = ClosedFormFlow("radical_y", (m - 1) // 4)
        field = flow.vector_field().normalized()
        assert row.status == "superflow"
        assert row.field == field and row.field.to_text() == field.to_text(), m


def test_radical_x_scalar_value():
    # independent evaluation of the k = 1 radicand: (1 + 0.1)^(1/3)
    u, v = ClosedFormFlow("radical_x", 1).eval((1, 1), 0.1)
    assert abs(u - 1.1 ** (1.0 / 3.0)) < 1e-14
    assert v == 1


def test_boundary_condition_small_t():
    rng = random.Random(3)
    for flow in catalog():
        for _ in range(10):
            p = flow.sample_point(rng)
            for t in (1e-3, 1e-4):
                q = flow.eval(p, t)
                drift = max(abs(q[0] - p[0]), abs(q[1] - p[1]))
                assert drift <= 5.0 * t  # linear in t near 0


def test_t_zero_is_identity():
    rng = random.Random(4)
    for flow in catalog():
        p = flow.sample_point(rng)
        q = flow.eval(p, 0.0)
        assert abs(q[0] - p[0]) < 1e-15 and abs(q[1] - p[1]) < 1e-15


@pytest.mark.parametrize("family,tol", [("parabolic", 1e-12), ("level0", 1e-10)])
def test_translation_exact_rational_families(family, tol):
    rng = random.Random(10)
    flow = ClosedFormFlow(family)
    samples = [
        (flow.sample_point(rng), flow.sample_time(rng), flow.sample_time(rng))
        for _ in range(100)
    ]
    assert verify_translation(flow, samples).max_residual <= tol


def test_translation_radical_families():
    rng = random.Random(11)
    for family, k in (("radical_x", 1), ("radical_x", 2), ("radical_y", 1), ("radical_y", 2)):
        flow = ClosedFormFlow(family, k)
        samples = [
            (flow.sample_point(rng), flow.sample_time(rng), flow.sample_time(rng))
            for _ in range(100)
        ]
        assert verify_translation(flow, samples).max_residual <= 1e-9


def test_translation_complex_times():
    rng = random.Random(12)
    flow = ClosedFormFlow("radical_x", 1)
    samples = []
    for _ in range(50):
        t = complex(rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03))
        s = complex(rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03))
        samples.append((flow.sample_point(rng), t, s))
    assert verify_translation(flow, samples).max_residual <= 1e-9


def test_extract_vector_field_parabolic():
    rng = random.Random(13)
    flow = ClosedFormFlow("parabolic")
    for _ in range(10):
        x, y = flow.sample_point(rng)
        w = extract_vector_field(flow, (x, y))
        assert abs(w[0] - y * y) < 1e-9
        assert abs(w[1]) < 1e-9


def test_extract_vector_field_known_points():
    w = extract_vector_field(ClosedFormFlow("radical_x", 1), (1, 1))
    assert abs(w[0] - 1.0 / 3.0) < 1e-9 and abs(w[1]) < 1e-9
    w = extract_vector_field(ClosedFormFlow("sph_inf"), (3, 1))
    assert abs(w[0] - 4) < 1e-8 and abs(w[1] - 4) < 1e-8


def test_extracted_field_matches_closed_form_everywhere():
    rng = random.Random(14)
    for flow in catalog():
        field = flow.vector_field()
        for _ in range(50):
            p = flow.sample_point(rng)
            fd = extract_vector_field(flow, p)
            exact = field.eval_field(p)
            scale = max(1.0, max(abs(v) for v in exact))
            assert max(abs(a - b) for a, b in zip(fd, exact)) / scale <= 1e-7


def test_extracted_field_is_2_homogeneous():
    rng = random.Random(15)
    for flow in catalog():
        for _ in range(10):
            p = flow.sample_point(rng)
            lam = rng.uniform(0.8, 1.2)
            base = extract_vector_field(flow, p)
            scaled = extract_vector_field(flow, (lam * p[0], lam * p[1]))
            for a, b in zip(scaled, base):
                assert abs(a - lam * lam * b) <= 1e-8 * max(1.0, abs(a))


def test_pde_residuals():
    rng = random.Random(16)
    for flow in catalog():
        field = flow.vector_field()
        points = [flow.sample_point(rng) for _ in range(60)]
        assert verify_pde(flow, field, points).max_residual <= 1e-6


def test_pde_sph_inf_includes_the_diagonal():
    flow = ClosedFormFlow("sph_inf")
    field = flow.vector_field()
    points = [(0.5, 0.5), (1.0, 1.0), (-0.3, -0.3)]
    assert verify_pde(flow, field, points).max_residual <= 1e-6


def test_trajectory_zero_field_constant():
    path = integrate_trajectory(RatVF.zero(), (0.3, 0.7), 1.0, 100)
    assert all(p == (0.3, 0.7) for p in path)


def test_trajectory_linear_motion():
    # y^2 . 0 from (0, 1): xdot = 1, ydot = 0
    field = ClosedFormFlow("parabolic").vector_field()
    path = integrate_trajectory(field, (0, 1), 1.0, 1000)
    end = path[-1]
    assert abs(end[0] - 1) <= 1e-8 and abs(end[1] - 1) <= 1e-12
    assert len(path) == 1001


def test_trajectory_singularity_abort():
    field = ClosedFormFlow("radical_y", 1).vector_field()  # 0 . x^3/(2y)
    with pytest.raises(SingularityApproachError):
        integrate_trajectory(field, (1, 0.0015), -0.001, 5000)


def test_orbit_constant_along_trajectories():
    field_x = ClosedFormFlow("radical_x", 1).vector_field()
    path = integrate_trajectory(field_x, (1, 1), 0.5, 1200)
    assert orbit_residual(OrbitFunction("coordinate_y"), path) <= 1e-9

    field_y = ClosedFormFlow("radical_y", 1).vector_field()
    path = integrate_trajectory(field_y, (1, 1), 0.5, 1200)
    assert orbit_residual(OrbitFunction("coordinate_x"), path) <= 1e-9

    path = integrate_trajectory(nonalgebraic_field(), (1, 1), 0.3, 1200)
    assert orbit_residual(OrbitFunction("nonalgebraic_example"), path) <= 1e-6


def test_orbit_function_homogeneity():
    rng = random.Random(17)
    for kind in ("coordinate_y", "coordinate_x", "nonalgebraic_example"):
        w = OrbitFunction(kind)
        for _ in range(20):
            x, y = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
            lam = rng.uniform(0.5, 2.0)
            assert abs(w.evaluate((lam * x, lam * y)) - lam * w.evaluate((x, y))) <= 1e-10


def test_orbit_function_singular_at_zero_y():
    with pytest.raises(SingularPointError):
        OrbitFunction("nonalgebraic_example").evaluate((1, 0))


def test_orbit_ode_residuals():
    rng = random.Random(18)
    points = [(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)) for _ in range(60)]
    cases = [
        (OrbitFunction("coordinate_y"), ClosedFormFlow("radical_x", 1).vector_field()),
        (OrbitFunction("coordinate_x"), ClosedFormFlow("radical_y", 1).vector_field()),
        (OrbitFunction("nonalgebraic_example"), nonalgebraic_field()),
    ]
    for orbit, field in cases:
        assert verify_orbit_ode(orbit, field, points).max_residual <= 1e-6


def test_nonalgebraic_orbit_identity_by_hand():
    # W = exp(-x/y - x^2/(2 y^2)) y against x^2+xy+y^2 . xy+y^2 at one point,
    # with W_x computed analytically: W_x = -W (1/y + x/y^2)
    x, y = 1.3, 0.8
    w = OrbitFunction("nonalgebraic_example").evaluate((x, y))
    wx = -w * (1 / y + x / y / y)
    vx, vy = nonalgebraic_field().eval_field((x, y))
    assert abs(w * vy + wx * (y * vx - x * vy)) < 1e-12


def test_branch_error_when_radicand_crosses_zero():
    with pytest.raises(BranchError):
        ClosedFormFlow("radical_x", 1).eval((1, 1), -1.5)


def test_level0_singularity():
    with pytest.raises(SingularPointError):
        ClosedFormFlow("level0").eval((1, 1), -0.5)


def test_conjugate_flow_identity():
    rng = random.Random(19)
    flow = ClosedFormFlow("parabolic")
    samples = [(flow.sample_point(rng), flow.sample_time(rng)) for _ in range(10)]
    values = [flow.eval(p, t) for p, t in samples]
    assert _conjugation_residual(((1, 0), (0, 1)), flow.eval, values, samples) < 1e-14


def test_conjugated_parabolic_is_sph_inf():
    rng = random.Random(20)
    parabolic = ClosedFormFlow("parabolic")
    sph = ClosedFormFlow("sph_inf")
    L = ((1, 0), (-1, 1))
    samples = [
        ((rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(-1, 1)) for _ in range(50)
    ]
    values = [sph.eval(p, t) for p, t in samples]
    assert _conjugation_residual(L, parabolic.eval, values, samples) <= 1e-10


def test_conjugation_closed_form_general_matrix():
    # L^(-1) o phi o L at t = 1 equals
    # d/(ad-bc) (cx+dy)^2 + x . -c/(ad-bc) (cx+dy)^2 + y
    rng = random.Random(21)
    parabolic = ClosedFormFlow("parabolic")
    for _ in range(20):
        a, b, c, d = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 0.2:
            continue
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)

        s = (c * x + d * y) ** 2
        closed_form = (d / det * s + x, -c / det * s + y)
        L = ((a, b), (c, d))
        assert _conjugation_residual(L, parabolic.eval, [closed_form], [((x, y), 1.0)]) <= 1e-10


def test_triangular_family_fixes_parabolic():
    rng = random.Random(22)
    parabolic = ClosedFormFlow("parabolic")
    for _ in range(20):
        d = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = rng.uniform(-1, 1)
        L = ((d * d, b), (0, d))
        value = parabolic.eval(p, t)
        assert _conjugation_residual(L, parabolic.eval, [value], [(p, t)]) <= 1e-10


def test_flow_constructor_validation():
    with pytest.raises(ValueError):
        ClosedFormFlow("radical_x", 0)
    with pytest.raises(ValueError):
        ClosedFormFlow("parabolic", 2)
    with pytest.raises(ValueError):
        ClosedFormFlow("unknown")


def test_record_serialization():
    rng = random.Random(23)
    flow = ClosedFormFlow("parabolic")
    samples = [(flow.sample_point(rng), flow.sample_time(rng), flow.sample_time(rng))]
    record = verify_translation(flow, samples)
    payload = record.as_dict()
    assert set(payload) == {"flow", "check", "n_samples", "max_residual", "worst_sample"}
    assert payload["n_samples"] == 1


def test_check_layer_tolerance_table():
    # each check function once per subject, at the acceptance tolerances
    rng = random.Random(24)
    want = {}
    records = []
    for flow in catalog():
        records.append(check_translation(flow, rng, 5))
        want[flow.label, "translation"] = (
            1e-10 if flow.family in ("parabolic", "level0") else 1e-9
        )
    flow = ClosedFormFlow("radical_y", 1)
    records += check_pde(flow, rng, 5)
    want[flow.label, "pde"], want[flow.label, "vector_field_extraction"] = 1e-6, 1e-7
    records += check_orbits(rng, 5, 50)
    for kind, drift_tol in (
        ("coordinate_y", 1e-9), ("coordinate_x", 1e-9), ("nonalgebraic_example", 1e-6)
    ):
        want[kind, "orbit_conservation"], want[kind, "orbit_ode"] = drift_tol, 1e-6
    samples = [(flow.sample_point(rng), flow.sample_time(rng)) for _ in range(20)]
    records.append(check_family_draws(flow, samples, rng, 3))
    want[flow.label, "symmetry"] = 1e-8
    assert {(r.flow, r.check): r.tol for r in records} == want
    assert len(records) == len(want)
    for r in records:
        assert r.passed == (r.max_residual <= r.tol), r
