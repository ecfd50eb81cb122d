"""Tests for matrices over cyclotomic fields and group enumeration."""

import math

import pytest

from superflows.cyclotomic import CycNum, root_of_unity
from superflows.errors import CapExceededError
from superflows.matgroup import (
    Mat2,
    alpha_group,
    alpha_matrix,
    generate_group,
    matrix_finite_order,
    tau,
)


def test_trivial_group():
    assert generate_group([Mat2.identity()], cap=10).order == 1


def test_alpha_group_known_orders():
    assert alpha_group(3).order == 6
    assert alpha_group(7).order == 14


def test_alpha_group_order_matches_power_iteration():
    # brute-force oracle: |<alpha>| is the least j with alpha^j == I
    for m in range(3, 14):
        alpha = alpha_matrix(m)
        ident = Mat2.identity(alpha.conductor)
        power = alpha
        j = 1
        while power != ident:
            power = power * alpha
            j += 1
        assert alpha_group(m).order == j


def test_alpha_group_order_formula_vs_enumeration():
    # |<alpha>| = lcm(m, order of -zeta^(-1)); the enumeration is authoritative,
    # the formula is merely checked against it
    for m in range(3, 16):
        n = (-root_of_unity(m, m - 1)).multiplicative_order()
        assert alpha_group(m).order == math.lcm(m, n)


def test_minus_identity_membership():
    for m in range(3, 17):
        expected = m % 4 == 0
        assert alpha_group(m).has_minus_identity() == expected


def test_group_closure_under_product():
    for m in (3, 5, 6, 8):
        group = alpha_group(m)
        for g in group:
            for h in group:
                assert (g * h) in group


def test_membership_by_key_matches_scan():
    # lookup by key at the group's conductor agrees with element-wise ==,
    # also for matrices labelled at a divisor or at an unrelated order
    group = alpha_group(8)

    def minus_identity(order):
        return Mat2(*(CycNum.rational(c, order) for c in (-1, 0, 0, -1)))

    candidates = [minus_identity(n) for n in (1, 3, 4, 8)]
    candidates += [Mat2.identity(3), tau(), alpha_matrix(3), alpha_matrix(4)]
    candidates += list(group) + [g * tau() for g in group] + list(alpha_group(4))
    for matrix in candidates:
        assert (matrix in group) == any(matrix == g for g in group.elements)
    assert all(minus_identity(n) in group for n in (1, 3, 4, 8))
    assert alpha_matrix(4) not in group and "not a matrix" not in group


def test_cap_exceeded_for_infinite_group():
    with pytest.raises(CapExceededError):
        generate_group([Mat2(1, 1, 0, 1)], cap=64)


def test_generators_must_be_invertible():
    with pytest.raises(ValueError):
        generate_group([Mat2(1, 1, 1, 1)])


def test_alpha_trace_value():
    # trace(alpha) = zeta_m - zeta_m^(-1) = 2i sin(2 pi / m)
    for m in (5, 7, 9):
        trace = alpha_matrix(m).trace().embed()
        assert abs(trace - 2j * math.sin(2 * math.pi / m)) < 1e-12


def test_matrix_finite_order_cases():
    assert matrix_finite_order(Mat2.identity()) == 1
    # [[1, 1], [0, -1]] squares to the identity (checked by direct powering)
    m = Mat2(1, 1, 0, -1)
    assert m * m == Mat2.identity()
    assert matrix_finite_order(m, 50) == 2
    # d = 1 with b != 0 is the infinite-order triangular case
    assert matrix_finite_order(Mat2(1, 1, 0, 1), 50) is None


def test_matrix_inverse_and_power():
    a = alpha_matrix(7)
    assert a * a.inverse() == Mat2.identity(a.conductor)
    assert a ** 0 == Mat2.identity(a.conductor)
    assert a ** -2 == (a * a).inverse()
    assert a ** 14 == Mat2.identity(a.conductor)


def test_tau_conjugation_reduces_even_to_odd():
    # <alpha(4k+2)> conjugated by the coordinate swap is exactly <alpha(2k+1)>
    for m in (6, 10, 14):
        conjugated = alpha_group(m).conjugated_by(tau())
        odd = alpha_group(m // 2)
        order = math.lcm(conjugated.conductor, odd.conductor)
        left = sorted(g.lift(order).key() for g in conjugated)
        right = sorted(g.lift(order).key() for g in odd)
        assert left == right


def test_matrix_product_associative_spot_check():
    import random

    from superflows.cyclotomic import CycNum

    rng = random.Random(43)
    for _ in range(10):
        mats = [
            Mat2(*(root_of_unity(6, rng.randrange(6)) + rng.randint(-1, 1) for _ in range(4)))
            for _ in range(3)
        ]
        a, b, c = mats
        assert (a * b) * c == a * (b * c)


def test_diagonal_and_antidiagonal_predicates():
    assert alpha_matrix(5).is_diagonal()
    assert tau().is_antidiagonal()
    assert not tau().is_diagonal()
    assert not Mat2(1, 2, 3, 4).is_diagonal()
