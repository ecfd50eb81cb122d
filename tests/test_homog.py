"""Tests for homogeneous polynomials, vector fields, and the group average."""

import random
from fractions import Fraction

import pytest

from superflows.cyclotomic import CycNum, root_of_unity
from superflows.errors import NonMonomialDenominatorError, SingularPointError
from superflows.homog import HomPoly, RatVF, monomial_field, reynolds_average
from superflows.matgroup import Mat2, alpha_group, alpha_matrix, generate_group, tau


def test_polynomial_product():
    x_plus_y = HomPoly(1, [1, 1])
    square = x_plus_y * x_plus_y
    assert square == HomPoly(2, [1, 2, 1])


def test_compose_linear_swap():
    poly = HomPoly(2, [0, 0, 1])  # x^2
    swapped = poly.compose_linear(0, 1, 1, 0)
    assert swapped == HomPoly(2, [1, 0, 0])  # y^2


def test_field_monomial_cancellation():
    # (x y^4) / x^3 reduces to y^4 / x^2
    field = RatVF(HomPoly.monomial(5, 1), HomPoly.zero(5), 3, 0)
    assert (field.lx, field.ly) == (2, 0)
    assert field == monomial_field(0, 0, 2, 0)


def test_zero_field_is_canonical():
    z = RatVF(HomPoly.zero(6), HomPoly.zero(6), 3, 1)
    assert z.is_zero
    assert (z.lx, z.ly) == (0, 0)
    assert z == RatVF.zero()


def test_eval_field_values():
    v = monomial_field(0, 0, 2, 0)  # y^4/x^2 . 0
    assert v.eval_field((1, 1)) == (1, 0)
    assert v.eval_field((2, 2)) == (4, 0)
    square = HomPoly(2, [1, -2, 1])
    s = RatVF(square, square)
    got = s.eval_field((3, 1))
    assert abs(got[0] - 4) < 1e-12 and abs(got[1] - 4) < 1e-12


def test_eval_field_scaling_invariant():
    rng = random.Random(9)
    v = monomial_field(0, 1, 1, 1) + monomial_field(1, 3, 1, 1).scale(Fraction(2, 3))
    for _ in range(20):
        x, y = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
        lam = rng.uniform(0.5, 2)
        base = v.eval_field((x, y))
        scaled = v.eval_field((lam * x, lam * y))
        for a, b in zip(scaled, base):
            assert abs(a - lam * lam * b) <= 1e-10 * max(1.0, abs(a))


def test_eval_field_singular_point():
    v = monomial_field(0, 0, 2, 0)
    with pytest.raises(SingularPointError):
        v.eval_field((0, 1))


def test_conjugate_by_identity():
    v = monomial_field(0, 0, 2, 0)
    assert v.conjugate(Mat2.identity()) == v


def test_conjugate_swap_example():
    v = monomial_field(1, 2, 0, 0)  # 0 . x^2
    assert v.conjugate(tau()) == monomial_field(0, 0, 0, 0)  # y^2 . 0


def test_conjugate_alpha3_fixes_parabolic_field():
    # hand expansion: y^2 maps through diag(zeta, -zeta^(-1)) to
    # zeta^(-1) * (-zeta^(-1) y)^2 = zeta^(-3) y^2 = y^2
    v = monomial_field(0, 0, 0, 0)
    assert v.conjugate(alpha_matrix(3)) == v


def test_conjugate_round_trip():
    rng = random.Random(15)
    v = monomial_field(0, 0, 2, 1) + monomial_field(1, 4, 2, 1).scale(root_of_unity(3))
    for _ in range(10):
        L = Mat2.diagonal(
            root_of_unity(5, rng.randrange(1, 5)) * Fraction(rng.randint(1, 3)),
            root_of_unity(8, rng.randrange(1, 8)) * Fraction(rng.randint(1, 3), 2),
        )
        assert v.conjugate(L).conjugate(L.inverse()) == v
    general = Mat2(1, 2, 1, 1)
    poly = RatVF(HomPoly(2, [1, 0, 2]), HomPoly(2, [0, 1, 0]))
    assert poly.conjugate(general).conjugate(general.inverse()) == poly


def test_conjugate_right_action_on_diagonal_pairs():
    rng = random.Random(21)
    v = monomial_field(0, 2, 1, 1) + monomial_field(1, 0, 1, 1)
    for _ in range(10):
        l1 = Mat2.diagonal(root_of_unity(7, rng.randrange(1, 7)), Fraction(rng.randint(1, 4)))
        l2 = Mat2.diagonal(Fraction(rng.randint(1, 4), 3), root_of_unity(4, rng.randrange(1, 4)))
        assert v.conjugate(l1 * l2) == v.conjugate(l1).conjugate(l2)


def test_conjugate_numeric_consistency():
    # symbolic conjugation agrees with numeric L^(-1) V(L p)
    rng = random.Random(27)
    cases = [
        (Mat2.diagonal(root_of_unity(5), Fraction(3, 2)), monomial_field(0, 0, 2, 0)),
        (Mat2(1, 1, -1, 2), RatVF(HomPoly(2, [1, 2, 0]), HomPoly(2, [0, 0, 1]))),
        (tau(), monomial_field(1, 3, 0, 1)),
    ]
    for L, v in cases:
        w = v.conjugate(L)
        (a, b), (c, d) = L.embed()
        det = a * d - b * c
        for _ in range(20):
            p = (rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
            vx, vy = v.eval_field((a * p[0] + b * p[1], c * p[0] + d * p[1]))
            expected = ((d * vx - b * vy) / det, (a * vy - c * vx) / det)
            got = w.eval_field(p)
            for u, e in zip(got, expected):
                assert abs(u - e) <= 1e-9 * max(1.0, abs(e))


def test_conjugate_non_monomial_image_rejected():
    v = monomial_field(0, 0, 2, 0)
    with pytest.raises(NonMonomialDenominatorError):
        v.conjugate(Mat2(1, 1, 0, 1))


def test_reynolds_fixes_invariant_field():
    group = alpha_group(7)
    v = monomial_field(0, 0, 2, 0)
    assert reynolds_average(group, v) == v


def test_reynolds_generic_field_collapses_to_superflow_field():
    group = alpha_group(7)
    ones = RatVF(HomPoly(4, [1] * 5), HomPoly(4, [1] * 5), 2, 0)
    assert reynolds_average(group, ones) == monomial_field(0, 0, 2, 0)


def test_reynolds_kills_everything_for_m_multiple_of_4():
    group = alpha_group(8)
    rng = random.Random(33)
    for _ in range(10):
        v = RatVF(
            HomPoly(2, [rng.randint(-3, 3) for _ in range(3)]),
            HomPoly(2, [rng.randint(-3, 3) for _ in range(3)]),
        )
        assert reynolds_average(group, v).is_zero


def test_reynolds_idempotent_and_invariant():
    rng = random.Random(37)
    group = alpha_group(5)
    for _ in range(10):
        lx, ly = rng.randint(0, 2), rng.randint(0, 2)
        deg = lx + ly + 2
        v = RatVF(
            HomPoly(deg, [rng.randint(-2, 2) for _ in range(deg + 1)]),
            HomPoly(deg, [rng.randint(-2, 2) for _ in range(deg + 1)]),
            lx,
            ly,
        )
        avg = reynolds_average(group, v)
        assert reynolds_average(group, avg) == avg
        assert all(avg.conjugate(g) == avg for g in group)


def test_normalized_leading_coefficient():
    v = monomial_field(0, 0, 2, 0, coeff=root_of_unity(5, 2) * 3)
    n = v.normalized()
    assert n == monomial_field(0, 0, 2, 0)
    assert n.normalized() == n


def test_field_addition_mixed_denominators():
    a = monomial_field(0, 0, 2, 0)  # y^4/x^2
    b = monomial_field(0, 0, 0, 2)  # x^0 y^2 ... /y^2 -> reduces to y^0? no: y^4/y^2 = y^2
    total = a + b
    assert (total.lx, total.ly) == (2, 0) or not total.is_zero
    diff = total - a
    assert diff == b


def test_text_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        lx, ly = rng.randint(0, 2), rng.randint(0, 2)
        deg = lx + ly + 2
        coeffs = [
            root_of_unity(6, rng.randrange(6)) * Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for _ in range(deg + 1)
        ]
        v = RatVF(HomPoly(deg, coeffs), HomPoly.zero(deg), lx, ly)
        assert RatVF.parse(v.to_text()) == v
    assert RatVF.parse(RatVF.zero().to_text()) == RatVF.zero()


def test_pretty_forms():
    assert monomial_field(0, 0, 2, 0).pretty() == "y^4/x^2 • 0"
    assert monomial_field(1, 3, 0, 1).pretty() == "0 • x^3/y"
    square = HomPoly(2, [1, -2, 1])
    assert RatVF(square, square).pretty() == "x^2-2xy+y^2 • x^2-2xy+y^2"
