"""Tests for the closed-form flow catalog and its numeric verification."""

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superflows import flows
from superflows.engine import classify_alpha
from superflows.errors import BranchError, SingularityApproachError, SingularPointError
from superflows.flows import (
    ClosedFormFlow,
    OrbitFunction,
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


def _segment_min_abs(z0, z1):
    """Reference copy: minimum of |z| over the straight segment from z0 to z1."""
    dz = z1 - z0
    length2 = abs(dz) ** 2
    if length2 == 0.0:
        if dz == 0:
            return abs(z0)
        length = abs(dz)
        u = dz / length
        s = -(z0.real * u.real + z0.imag * u.imag) / length
    else:
        s = -(z0.real * dz.real + z0.imag * dz.imag) / length2
    s = min(1.0, max(0.0, s))
    return abs(z0 + s * dz)


def _anchored_root(anchor, rate, t, n):
    """Reference copy of the radical before its fast accept: the full segment test on every call."""
    if anchor == 0:
        raise SingularPointError("radical anchor vanishes")
    base = anchor ** n
    tip = base + t * rate
    scale = max(abs(base), abs(tip))
    if _segment_min_abs(base, tip) <= 1e-12 * scale:
        raise BranchError("radicand path passes through zero; branch undefined")
    return anchor * cmath.exp(cmath.log(tip / base) / n)


def test_radical_anchor_at_zero_is_a_singular_point():
    for family, point in (("radical_x", (0, 1)), ("radical_y", (1, 0))):
        with pytest.raises(SingularPointError, match="radical anchor vanishes"):
            ClosedFormFlow(family, 1).eval(point, 0.5)


def test_monomial_map_moving_y_at_n_1_is_the_flow_of_x_squared():
    # (x, x^2 t + y), the flow of the m = 6 verdict 0 . x^2, which no catalog
    # family binds: it satisfies the translation identity, and its t-derivative
    # is the field at the moved point
    phi = flows._monomial_map(1, 1)
    evaluate = RatVF.monomial(1, 2).evaluator()
    rng = random.Random(41)
    h = 1e-6
    for _ in range(50):
        x, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
        s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
        moved, direct = phi(*phi(x, y, s), t), phi(x, y, s + t)
        assert max(abs(a - b) for a, b in zip(moved, direct)) <= 1e-12
        ahead, behind = phi(x, y, t + h), phi(x, y, t - h)
        slope = [(a - b) / (2 * h) for a, b in zip(ahead, behind)]
        want = evaluate(*phi(x, y, t))
        assert max(abs(a - b) for a, b in zip(slope, want)) <= 1e-6


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


def _outcome(phi, x, y, t):
    """The bits of phi(x, y, t), or the class of the exception it raises."""
    try:
        return _bits(phi(x, y, t))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _radical_against_reference(family, k, base_exp, angle, tip_of):
    """Outcomes of the bound radical map and of the reference at a radicand base -> tip.

    base_exp is log10 |base|.  The moved coordinate is the anchor
    10^(base_exp/n) e^(i angle/n), the other one is 1, so the rate is 1 and
    t = tip - base with tip = tip_of(base).
    """
    flow = ClosedFormFlow(family, k)
    n = flow._monomial[1]
    anchor = cmath.rect(10.0 ** (base_exp / n), angle / n)
    try:
        base = anchor ** n
        t = tip_of(base) - base
    except OverflowError:  # both sides raise it too; the reference below shows it
        t = 0j
    if family == "radical_x":
        point = (anchor, 1 + 0j)
        reference = lambda x, y, t: (_anchored_root(x, y ** (n + 1), t, n), y)  # noqa: E731
    else:
        point = (1 + 0j, anchor)
        reference = lambda x, y, t: (x, _anchored_root(y, x ** (n + 1), t, n))  # noqa: E731
    return _outcome(flow.time_map, *point, t), _outcome(reference, *point, t)


RADICALS = [(family, k) for family in ("radical_x", "radical_y") for k in (1, 2, 3)]  # n odd, even


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(
    st.sampled_from(RADICALS),
    st.floats(min_value=-320.0, max_value=320.0),  # log10 |base|: subnormal to overflowing
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.one_of(
        # tip ~ -r base, r from 1e-15 to 2: the segment passes near or through zero
        st.tuples(st.just("opposite"), st.floats(-15.0, math.log10(2.0)), st.floats(-0.1, 0.1)),
        # |w - 1| = 1/2 +- 1e-12: the edge of the fast accept
        st.tuples(st.just("circle"), st.floats(-1e-12, 1e-12), st.floats(-math.pi, math.pi)),
        # a tip of any size, whatever the base: ratios that underflow or overflow
        st.tuples(st.just("free"), st.floats(-320.0, 308.0), st.floats(-math.pi, math.pi)),
    ),
)
def test_radical_fast_accept_keeps_the_bits_or_the_exception(radical, base_exp, angle, tip):
    kind, u, v = tip
    if kind == "opposite":
        tip_of = lambda base: -(10.0 ** u) * cmath.exp(1j * v) * base  # noqa: E731
    elif kind == "circle":
        tip_of = lambda base: (1 + (0.5 + u) * cmath.exp(1j * v)) * base  # noqa: E731
    else:
        tip_of = lambda base: cmath.rect(10.0 ** u, v)  # noqa: E731
    got, want = _radical_against_reference(*radical, base_exp, angle, tip_of)
    assert got == want


@pytest.mark.parametrize("family,k", RADICALS)
@pytest.mark.parametrize("base_exp,tip", [
    (-160.0, 1.3e148 * (1 + 1j)),  # |tip/base| overflows in abs, the guard refuses
    (-150.0, 1e-150 * (1 + 0.5j)),  # the lower bound of the fast accept
    (150.0, 1.2e150 + 0j),  # the upper bound
    (154.2, 1.5e154 + 0j),  # the guard's own square overflows
    (-330.0, 1e-320 + 0j),  # the base underflows to zero
    (0.0, -0.5 + 0j),  # the segment runs through zero
])
def test_radical_fast_accept_at_its_edges(family, k, base_exp, tip):
    got, want = _radical_against_reference(family, k, base_exp, 0.0, lambda base: tip)
    assert got == want


def test_catalog_samples_take_the_fast_accept(monkeypatch):
    calls = []
    guarded_ratio = flows._guarded_ratio

    def counting(base, tip):
        calls.append((base, tip))
        return guarded_ratio(base, tip)

    monkeypatch.setattr(flows, "_guarded_ratio", counting)
    for flow in catalog():
        if flow.family.startswith("radical"):
            assert check_translation(flow, random.Random(5), 200).passed
    assert calls == []
    # a radicand path through zero is left to the full test, which refuses it
    with pytest.raises(BranchError):
        ClosedFormFlow("radical_x", 1).eval((1, 1), -1.5)
    assert len(calls) == 1


def test_radicand_path_to_zero_is_refused_below_the_square_underflow():
    # |tip - base| ~ 2e-232 squares to 0; the path still ends at 0
    with pytest.raises(BranchError):
        ClosedFormFlow("radical_y", 3).eval(
            (1, 2.4587897693815043e-39 + 5.276969251811103e-61j),
            -2.2096749104337225e-232 - 2.845396553392277e-253j,
        )
    assert flows._segment_min_abs(-1e-170 + 0j, 1e-170 + 0j) == 0.0
    assert flows._segment_min_abs(1e-170 + 0j, 3e-170 + 0j) == 1e-170


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
    for m, _, verdict in itertools.islice(classify_alpha(3, 2001), 0, None, 2):  # the odd m
        if m == 3:
            flow = ClosedFormFlow("parabolic")
        elif m % 4 == 3:
            flow = ClosedFormFlow("radical_x", (m - 3) // 4)
        else:
            flow = ClosedFormFlow("radical_y", (m - 1) // 4)
        field = flow.vector_field().normalized()
        assert verdict.status == "superflow"
        assert verdict.field == field and verdict.field.to_text() == field.to_text(), m


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


def test_translation_counts_only_samples_that_move():
    flow = ClosedFormFlow("parabolic")
    # t = s = 0 leaves (0.3, 0.4) where it is; t = 0.1, s = 0.2 moves it
    record = verify_translation(flow, [((0.3, 0.4), 0.0, 0.0), ((0.3, 0.4), 0.1, 0.2)])
    assert record.n_samples == 1 and record.worst_sample in (None, ((0.3, 0.4), 0.1, 0.2))


def test_translation_with_no_moved_sample_fails():
    # at k = 200 the radical moves no point of its fixed sample domain
    record = check_translation(ClosedFormFlow("radical_x", 200), random.Random(1), 20)
    assert (record.n_samples, record.max_residual) == (0, 0.0) and not record.passed


def test_extraction_counts_only_points_where_a_field_is_nonzero():
    # at k = 1500 the extracted and the exact field both read 0 at every drawn point
    pde, extraction = check_pde(ClosedFormFlow("radical_x", 1500), random.Random(1), 20)
    assert pde.n_samples == 20 and pde.passed
    assert (extraction.n_samples, extraction.max_residual) == (0, 0.0) and not extraction.passed
    for flow in catalog():
        assert check_pde(flow, random.Random(3), 30)[1].n_samples == 30


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


def _tuple_rk4(field, start, t_end, steps):
    """Reference copy of the RK4 loop that builds a tuple per stage point."""
    h = t_end / steps

    def guarded(q, step_index):
        if field.lx and abs(q[0]) < flows.SINGULAR_DISTANCE:
            raise SingularityApproachError(q, step_index)
        if field.ly and abs(q[1]) < flows.SINGULAR_DISTANCE:
            raise SingularityApproachError(q, step_index)
        return field.eval_field(q)

    path = [(complex(start[0]), complex(start[1]))]
    p = path[0]
    for step in range(steps):
        k1 = guarded(p, step)
        k2 = guarded((p[0] + 0.5 * h * k1[0], p[1] + 0.5 * h * k1[1]), step)
        k3 = guarded((p[0] + 0.5 * h * k2[0], p[1] + 0.5 * h * k2[1]), step)
        k4 = guarded((p[0] + h * k3[0], p[1] + h * k3[1]), step)
        p = (
            p[0] + h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6,
            p[1] + h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6,
        )
        path.append(p)
    return path


@pytest.mark.parametrize("field,t_end", [
    (ClosedFormFlow("radical_x", 1).vector_field(), 0.5),
    (ClosedFormFlow("radical_y", 1).vector_field(), 0.5),
    (nonalgebraic_field(), 0.3),
], ids=["coordinate_y", "coordinate_x", "nonalgebraic_example"])
def test_scalar_rk4_keeps_the_bits_of_the_tuple_loop(field, t_end):
    # the three fields and spans of check_orbits
    for start in ((1.0, 1.0), (0.7 + 0.2j, 1.3 - 0.1j)):
        path = integrate_trajectory(field, start, t_end, 400)
        reference = _tuple_rk4(field, start, t_end, 400)
        assert [_bits(p) for p in path] == [_bits(p) for p in reference]


def test_scalar_rk4_aborts_where_the_tuple_loop_does():
    field = ClosedFormFlow("radical_y", 1).vector_field()
    with pytest.raises(SingularityApproachError) as got:
        integrate_trajectory(field, (1, 0.0015), -0.001, 5000)
    with pytest.raises(SingularityApproachError) as want:
        _tuple_rk4(field, (1, 0.0015), -0.001, 5000)
    assert (got.value.step, _bits(got.value.point)) == (want.value.step, _bits(want.value.point))


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


def test_orbit_residual_reads_a_stream_as_it_reads_the_list():
    field, orbit = nonalgebraic_field(), OrbitFunction("nonalgebraic_example")
    path = integrate_trajectory(field, (1, 1), 0.3, 200)
    assert orbit_residual(orbit, iter(path)) == orbit_residual(orbit, path)


def test_orbit_residual_refuses_a_start_where_the_orbit_function_vanishes():
    with pytest.raises(SingularPointError, match="vanishes at the start point"):
        orbit_residual(OrbitFunction("coordinate_y"), [(1, 0), (2, 0)])


def test_orbit_residual_rejects_an_empty_path():
    for path in ([], iter(())):
        with pytest.raises(ValueError, match="empty trajectory"):
            orbit_residual(OrbitFunction("coordinate_y"), path)


def test_check_orbits_rejects_zero_steps():
    with pytest.raises(ValueError, match="steps must be positive"):
        check_orbits(random.Random(1), 5, 0)


@pytest.mark.parametrize("check", [
    lambda rng: check_translation(ClosedFormFlow("parabolic"), rng, 5000),
    lambda rng: check_pde(ClosedFormFlow("parabolic"), rng, 5000),
    lambda rng: check_orbits(rng, 1, 2000),
    lambda rng: check_orbits(rng, 5000, 1),
], ids=["translation", "pde", "orbit_path", "orbit_ode_points"])
def test_checks_hold_no_sample_list(check):
    # a list of the draws or of the RK4 path would take about 150 KiB to 1.1 MB at these sizes
    rng = random.Random(5)
    check(rng)  # warm any lazy set-up outside the traced run
    tracemalloc.start()
    try:
        check(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    assert max(_conjugation_residual(((1, 0), (0, 1)), flow.time_map, values, samples)) < 1e-14


def test_conjugated_parabolic_is_sph_inf():
    rng = random.Random(20)
    parabolic = ClosedFormFlow("parabolic")
    sph = ClosedFormFlow("sph_inf")
    L = ((1, 0), (-1, 1))
    samples = [
        ((rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(-1, 1)) for _ in range(50)
    ]
    values = [sph.eval(p, t) for p, t in samples]
    assert max(_conjugation_residual(L, parabolic.time_map, values, samples)) <= 1e-10


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
        residuals = _conjugation_residual(L, parabolic.time_map, [closed_form], [((x, y), 1.0)])
        assert max(residuals) <= 1e-10


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
        assert max(_conjugation_residual(L, parabolic.time_map, [value], [(p, t)])) <= 1e-10


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
