"""Tests for the symmetry families and finite-order laws."""

import random
from fractions import Fraction

import pytest

from superflows.cyclotomic import CycNum, root_of_unity
from superflows.errors import BranchError
from superflows.flows import ClosedFormFlow, catalog
from superflows.homog import HomPoly, RatVF, monomial_field
from superflows.matgroup import Mat2, matrix_finite_order
from superflows.symmetry import (
    FAMILIES,
    SymmetryFamily,
    check_family_draws,
    check_field_symmetry,
    check_flow_symmetry,
    delta_tilde,
    diagonal_symmetry_solve,
    draw_samples,
    family_finite_order,
    flow_symmetry_family,
    gamma_4k1,
    gamma_4k3,
    gamma_sph,
)


def field_points(rng, n=20):
    return [(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)) for _ in range(n)]


def test_identity_is_a_symmetry():
    ok, resid = check_field_symmetry(Mat2.identity(), monomial_field(0, 0, 2, 0))
    assert ok and resid == 0.0


def test_gamma_c_fixes_radical_x_field():
    rng = random.Random(31)
    fam = gamma_4k3(1)
    field = monomial_field(0, 0, 2, 0)
    pts = field_points(rng)
    for _ in range(20):
        member = fam.matrix_numeric(fam.sample_params(rng))
        ok, resid = check_field_symmetry(member, field, pts)
        assert ok, resid


def test_numeric_field_symmetry_refuses_no_samples():
    field = monomial_field(0, 0, 2, 0)
    for samples in ([], iter(())):
        with pytest.raises(ValueError, match="needs sample points"):
            check_field_symmetry(((5, 0), (0, 1)), field, samples)
    # an exact conjugate that differs fails with no samples, as with None
    assert check_field_symmetry(Mat2.diagonal(5, 1), field, []) == (False, float("inf"))


def test_exact_shear_on_a_field_with_a_denominator_matches_its_complex_entries():
    # the shear is neither diagonal nor antidiagonal and the field has the
    # denominator x^2, so an exact Mat2 takes the numeric route; it must
    # read the same entries as nested complex pairs.  At (2, 1) the
    # residual is |V_x(3, 1) - V_x(2, 1)| = |1/27 - 1/12| = 5/108.
    field = ClosedFormFlow("radical_x", 1).vector_field()  # y^4/(3x^2) . 0
    points = field_points(random.Random(34)) + [(2, 1)]
    exact = check_field_symmetry(Mat2(1, 1, 0, 1), field, points)
    assert exact == check_field_symmetry(((1, 1), (0, 1)), field, points)
    assert not exact[0]
    assert check_field_symmetry(Mat2(1, 1, 0, 1), field, [(2, 1)])[1] == pytest.approx(5 / 108)


def test_diag_2_3_fails_exponent_relation():
    rng = random.Random(32)
    ok, resid = check_field_symmetry(
        ((2, 0), (0, 3)), monomial_field(0, 0, 2, 0), field_points(rng)
    )
    assert not ok and resid > 1e-3


def test_exact_route_for_cyclotomic_diagonal():
    # diag(c^4, c^3) with c = zeta_5 fixes y^4/x^2 . 0 exactly
    fam = gamma_4k3(1)
    member = fam.matrix_exact(root_of_unity(5))
    ok, resid = check_field_symmetry(member, monomial_field(0, 0, 2, 0))
    assert ok and resid == 0.0


def test_flow_symmetries_all_families():
    rng = random.Random(33)
    for flow in catalog():
        if flow.family == "level0":
            continue
        fam = flow_symmetry_family(flow)
        samples = draw_samples(flow, rng)
        for _ in range(20):
            member = fam.matrix_numeric(fam.sample_params(rng))
            ok, resid = check_flow_symmetry(member, flow, samples)
            assert ok, (flow.label, resid)


def test_field_symmetries_all_families():
    # the family of each cataloged flow also fixes that flow's vector field
    rng = random.Random(40)
    for flow in catalog():
        if flow.family == "level0":
            continue
        fam = flow_symmetry_family(flow)
        field = flow.vector_field()
        pts = field_points(rng)
        for _ in range(20):
            member = fam.matrix_numeric(fam.sample_params(rng))
            ok, resid = check_field_symmetry(member, field, pts)
            assert ok, (flow.label, resid)


def test_shear_is_not_a_radical_symmetry():
    rng = random.Random(34)
    flow = ClosedFormFlow("radical_x", 1)
    samples = draw_samples(flow, rng)
    ok, resid = check_flow_symmetry(((1, 1), (0, 1)), flow, samples)
    assert not ok and resid > 1e-8


def test_random_matrices_fail_flow_symmetry():
    rng = random.Random(35)
    flow = ClosedFormFlow("parabolic")
    samples = draw_samples(flow, rng)
    for _ in range(20):
        entries = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
        if abs(entries[0] * entries[3] - entries[1] * entries[2]) < 0.1:
            continue
        ok, resid = check_flow_symmetry(
            ((entries[0], entries[1]), (entries[2], entries[3])), flow, samples
        )
        assert not ok


def test_family_closure_under_product():
    # gamma_(c1) gamma_(c2) = gamma_(c1 c2) for the diagonal power families
    rng = random.Random(36)
    for fam in (gamma_4k3(1), gamma_4k3(2), gamma_4k1(1)):
        for _ in range(20):
            c1, c2 = fam.sample_params(rng), fam.sample_params(rng)
            m1, m2 = fam.matrix_numeric(c1), fam.matrix_numeric(c2)
            m12 = fam.matrix_numeric(c1 * c2)
            prod = (
                (m1[0][0] * m2[0][0], 0j),
                (0j, m1[1][1] * m2[1][1]),
            )
            assert abs(prod[0][0] - m12[0][0]) <= 1e-9 * abs(m12[0][0])
            assert abs(prod[1][1] - m12[1][1]) <= 1e-9 * abs(m12[1][1])


def test_family_closure_exact():
    fam = gamma_4k3(1)
    c1, c2 = root_of_unity(5), root_of_unity(7, 3)
    assert fam.matrix_exact(c1) * fam.matrix_exact(c2) == fam.matrix_exact(c1 * c2)


def test_diagonal_solve_known_families():
    assert diagonal_symmetry_solve(monomial_field(0, 0, 2, 0)).exponents == (4, 3)
    assert diagonal_symmetry_solve(monomial_field(1, 3, 0, 1)).exponents == (2, 3)
    # k = 0: a diagonal family exists but is only part of the symmetry group
    assert diagonal_symmetry_solve(monomial_field(0, 0, 0, 0)).exponents == (2, 1)


def test_diagonal_solve_of_two_incompatible_components_is_none():
    # y^2 in the first component needs s^(-1) t^2 = 1 (k = -1), y^2 in the second t = 1 (k = 0)
    assert diagonal_symmetry_solve(RatVF.monomial(0, 0) + RatVF.monomial(1, 0)) is None


def test_diagonal_solve_rejects_non_monomial():
    square = HomPoly(2, [1, -2, 1])
    with pytest.raises(ValueError):
        diagonal_symmetry_solve(RatVF(square, square))


def test_diagonal_solve_matches_radical_exponents():
    for k in (1, 2, 3):
        fam = diagonal_symmetry_solve(ClosedFormFlow("radical_x", k).vector_field())
        assert fam.exponents == (2 * k + 2, 2 * k + 1)
        fam = diagonal_symmetry_solve(ClosedFormFlow("radical_y", k).vector_field())
        assert fam.exponents == (2 * k, 2 * k + 1)


def test_solved_family_members_fix_the_field():
    rng = random.Random(37)
    field = monomial_field(0, 0, 2, 0)
    fam = diagonal_symmetry_solve(field)
    pts = field_points(rng)
    for _ in range(10):
        ok, resid = check_field_symmetry(fam.matrix_numeric(fam.sample_params(rng)), field, pts)
        assert ok, resid


def test_finite_order_identity_and_infinite():
    assert family_finite_order(gamma_sph(), (1, 0)) == 1
    assert family_finite_order(gamma_sph(), (1, 2)) is None
    assert family_finite_order(delta_tilde(), (2, 1)) is None  # b=2, d=1
    # an exact b: the identity exactly when b is zero
    assert family_finite_order(delta_tilde(), (CycNum.zero(), 1)) == 1
    assert family_finite_order(delta_tilde(), (CycNum.rational(2), 1)) is None
    assert family_finite_order(delta_tilde(), (0.5, CycNum.rational(2))) is None


def test_delta_with_sixth_root():
    for b in (0, 3, Fraction(2, 7)):
        assert family_finite_order(delta_tilde(), (b, root_of_unity(6))) == 6


def test_finite_order_against_matrix_powering():
    # family law vs brute-force powering, orders up to 60
    for r in (2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        d = root_of_unity(r)
        for b in (0, 1, Fraction(1, 2)):
            law = family_finite_order(delta_tilde(), (b, d))
            brute = matrix_finite_order(delta_tilde().matrix_exact((CycNum.rational(b), d)), 70)
            assert law == brute, (r, b)
            law = family_finite_order(gamma_sph(), (d, b))
            brute = matrix_finite_order(gamma_sph().matrix_exact((d, CycNum.rational(b))), 70)
            assert law == brute, (r, b)


def test_diagonal_power_family_orders():
    fam = gamma_4k3(1)  # diag(c^4, c^3)
    assert family_finite_order(fam, CycNum.rational(1)) == 1
    assert family_finite_order(fam, root_of_unity(12)) == 12
    assert family_finite_order(fam, CycNum.rational(2)) is None
    member = fam.matrix_exact(root_of_unity(12))
    assert matrix_finite_order(member, 100) == 12
    # negative and zero exponents: gcd(order, e) reads e mod order, and gcd(order, 0) = order
    for exponents, want in (((-4, 3), 12), ((0, -3), 4), ((0, 0), 1), ((-6, 0), 2)):
        fam = SymmetryFamily("diagonal_power", exponents, "diag")
        assert family_finite_order(fam, root_of_unity(12)) == want
        assert matrix_finite_order(fam.matrix_exact(root_of_unity(12)), 100) == want


def test_order_six_generator_exact():
    z3 = root_of_unity(3)
    gamma = gamma_sph().matrix_exact((-(z3 ** 2), CycNum.zero()))
    # matches [[zeta, 0], [zeta + zeta^(-1), -zeta^(-1)]] entrywise
    assert gamma == Mat2(z3, 0, z3 + z3 ** 2, -(z3 ** 2))
    ident = Mat2.identity(gamma.conductor)
    assert gamma ** 6 == ident
    for j in range(1, 6):
        assert gamma ** j != ident
    # and it fixes the sph field exactly
    field = ClosedFormFlow("sph_inf").vector_field()
    assert field.conjugate(gamma) == field


def test_gamma_sph_random_draw_fixes_sph_flow():
    rng = random.Random(38)
    flow = ClosedFormFlow("sph_inf")
    fam = gamma_sph()
    samples = draw_samples(flow, rng)
    for _ in range(20):
        ok, resid = check_flow_symmetry(fam.matrix_numeric(fam.sample_params(rng)), flow, samples)
        assert ok, resid


def _family_flows():
    """The cataloged flow of each symmetry family (k = 1 for the radicals)."""
    return [ClosedFormFlow(family, 1 if family.startswith("radical") else 0)
            for family, _ in FAMILIES.values()]


@pytest.mark.parametrize("flow", _family_flows(), ids=lambda f: f.label)
def test_family_draws_equal_their_members_checked_one_by_one(flow):
    rng = random.Random(61)
    samples = draw_samples(flow, rng)
    record = check_family_draws(flow, samples, random.Random(62), 12)
    twin = random.Random(62)
    fam = flow_symmetry_family(flow)
    members = [fam.matrix_numeric(fam.sample_params(twin)) for _ in range(12)]
    resids = [check_flow_symmetry(member, flow, samples)[1] for member in members]
    assert record.n_samples == 12
    assert record.max_residual == max(resids) and record.passed
    assert record.worst_sample == members[resids.index(max(resids))]


@pytest.mark.parametrize("flow", _family_flows(), ids=lambda f: f.label)
def test_family_draws_evaluate_the_value_side_once(flow):
    rng = random.Random(63)
    samples = [(flow.sample_point(rng), flow.sample_time(rng)) for _ in range(7)]
    calls = []
    flow = ClosedFormFlow(flow.family, flow.k)  # a copy, so that its time map can be replaced
    original = flow.time_map

    def counting(x, y, t):
        calls.append(t)
        return original(x, y, t)

    object.__setattr__(flow, "time_map", counting)
    check_family_draws(flow, samples, rng, 5)
    assert len(calls) == len(samples) * (5 + 1)


def test_flow_symmetry_refuses_no_samples():
    with pytest.raises(ValueError, match="needs sample points"):
        check_flow_symmetry(((5, 0), (0, 1)), ClosedFormFlow("parabolic"), [])


def test_family_draws_refuse_no_samples():
    with pytest.raises(ValueError, match="needs sample points"):
        check_family_draws(ClosedFormFlow("parabolic"), [], random.Random(65), 3)


def test_a_member_whose_image_crosses_a_branch_raises(monkeypatch):
    flow = ClosedFormFlow("radical_x", 1)
    # phi^t at (1, 0.5), t = -1.5 is fine: radicand 1 - 1.5/16
    samples = [((1.0, 0.5), -1.5)]
    # diag(1/2, 2) sends the point to (1/2, 1): radicand 1/8 - 1.5 crosses zero
    crossing = ((0.5, 0), (0, 2))
    with pytest.raises(BranchError):
        check_flow_symmetry(crossing, flow, samples)
    # the first draw is a genuine member; the second crosses
    drawn = []
    original = SymmetryFamily.matrix_numeric

    def member_then_crossing(self, params):
        drawn.append(params)
        return original(self, params) if len(drawn) == 1 else crossing

    monkeypatch.setattr(SymmetryFamily, "matrix_numeric", member_then_crossing)
    with pytest.raises(BranchError):
        check_family_draws(flow, samples, random.Random(64), 3)
    assert len(drawn) == 2
