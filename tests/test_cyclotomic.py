"""Tests for exact cyclotomic arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from fraction_cycnum import from_powers

from superflows.cyclotomic import (
    CycNum,
    _power_map,
    _reduced_power,
    as_cycnum,
    binary_power,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
    torsion_root,
)
from superflows.homog import HomPoly
from superflows.matgroup import Mat2
from superflows.symmetry import family_finite_order, gamma_4k3

ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15]


def random_cyc(rng, order):
    deg = euler_phi(order)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
    return CycNum(order, coeffs)


def test_root_of_unity_is_the_row_from_powers_builds():
    for n in range(1, 65):
        for j in range(-2 * n, 2 * n):
            got, want = root_of_unity(n, j), from_powers(n, {j % n: 1})
            assert (got.order, got._num, got._den) == (want.order, want._num, want._den)


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_has_zeta_as_root():
    for n in ORDERS:
        z = cmath_root(n)
        value = sum(c * z**i for i, c in enumerate(cyclotomic_polynomial(n)))
        assert abs(value) < 1e-9


def cmath_root(n):
    import cmath

    return cmath.exp(2j * cmath.pi / n)


def test_root_of_unity_identity():
    assert root_of_unity(1, 0) == 1


def test_i_squared():
    assert root_of_unity(4, 1) ** 2 == -1


def test_primitive_cube_roots_sum():
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1


def test_inverse_pair():
    assert root_of_unity(7) * root_of_unity(7, 6) == 1


def test_additive_identity_random():
    rng = random.Random(11)
    for order in ORDERS:
        a = random_cyc(rng, order)
        assert a + 0 == a
        assert a + CycNum.zero(order) == a


def test_division_oracle_repeated_multiplication():
    # 1 / zeta_14^3 should be zeta_14^11; build the expectation by plain
    # repeated multiplication, independent of the inversion routine
    z = root_of_unity(14)
    expected = CycNum.one(14)
    for _ in range(11):
        expected = expected * z
    quotient = 1 / (z ** 3)
    assert quotient == expected
    assert quotient * z ** 3 == 1


def test_embed_trivial():
    assert abs(CycNum.one().embed() - 1.0) < 1e-15
    assert abs(root_of_unity(4).embed() - 1j) < 1e-15


def test_embed_cube_root_against_cos_sin():
    expected = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(root_of_unity(3).embed() - expected) < 1e-12


def test_embed_is_multiplicative_on_unit_roots():
    rng = random.Random(13)
    for _ in range(200):
        n, m = rng.choice(ORDERS), rng.choice(ORDERS)
        a = root_of_unity(n, rng.randrange(n))
        b = root_of_unity(m, rng.randrange(m))
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-12
        assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-12


def test_multiplicative_order_basics():
    assert CycNum.one().multiplicative_order() == 1
    assert root_of_unity(14).multiplicative_order() == 14
    assert CycNum.rational(2).multiplicative_order() is None
    assert CycNum.rational(-1).multiplicative_order() == 2


def test_multiplicative_order_of_powers():
    for n in (6, 9, 12, 14):
        for j in range(1, n):
            assert root_of_unity(n, j).multiplicative_order() == n // math.gcd(n, j)


def _count_powers(monkeypatch) -> list:
    powers, power = [], CycNum.__pow__

    def counting_pow(self, exponent):
        powers.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(CycNum, "__pow__", counting_pow)
    return powers


def test_roots_of_unity_take_their_order_without_a_power(monkeypatch):
    # -zeta_n^j = zeta_2n^(2j + n), a root of order 2n / gcd(2n, 2j + n)
    powers = _count_powers(monkeypatch)
    for n in range(1, 31):
        for j in range(n):
            z = root_of_unity(n, j)
            assert z.multiplicative_order() == n // math.gcd(n, j)
            assert (-z).multiplicative_order() == 2 * n // math.gcd(2 * n, 2 * j + n)
    assert powers == []


def test_modulus_one_without_finite_order_takes_the_exact_route(monkeypatch):
    # (3 + 4i)/5 passes the modulus filter, fails the phase candidate, and
    # the exact power test then finds no order
    powers = _count_powers(monkeypatch)
    assert CycNum(4, [Fraction(3, 5), Fraction(4, 5)]).multiplicative_order() is None
    assert powers


def test_a_root_that_torsion_log_misses_takes_its_order_from_powers(monkeypatch):
    # torsion_log's modulus filter is a float test, not a proof at every
    # conductor; a root it misses gets its order from self**L == 1, with each
    # prime of L stripped while a power is still one
    monkeypatch.setattr(CycNum, "torsion_log", lambda self: None)
    powers = _count_powers(monkeypatch)
    assert torsion_root(12, 4).multiplicative_order() == 3
    assert powers == [12, 6, 3, 1]  # L = 12, stripped to 6 and to 3, and z**1 != 1
    assert torsion_root(30, 7).multiplicative_order() == 30


def test_torsion_root_is_the_root_of_the_even_order():
    for n in range(1, 16):
        bound = math.lcm(2, n)
        for k in range(-bound, 2 * bound):
            root = torsion_root(n, k)
            assert root.order == n
            assert root == root_of_unity(bound, k)


def test_zero_is_one_shared_instance_per_order():
    assert CycNum.zero(7) is CycNum.zero(7)
    assert CycNum.zero() is not CycNum.zero(7)
    assert CycNum.zero(7).key() == CycNum.rational(0, 7).key()


def test_roots_of_unity_are_one_shared_instance_per_reduced_exponent():
    for n in range(1, 61):
        bound = math.lcm(2, n)
        for j in range(-bound, 2 * bound):
            root, torsion = root_of_unity(n, j), torsion_root(n, j)
            assert root is root_of_unity(n, j - n)
            assert torsion is torsion_root(n, j + bound)
            assert root.key() == CycNum._raw(n, _reduced_power(n, j % n), 1).key()
            # zeta_2n = -zeta_n^((n+1)/2) for odd n
            e = j if n % 2 == 0 else j * (n + 1) // 2
            fresh = CycNum._raw(n, _reduced_power(n, e % n), 1)
            assert torsion.key() == (-fresh if n % 2 and j % 2 else fresh).key()


def test_multiplicative_order_zero_rejected():
    with pytest.raises(ValueError):
        CycNum.zero().multiplicative_order()


def test_ring_axioms_random_triples():
    rng = random.Random(17)
    for _ in range(60):
        order = rng.choice(ORDERS)
        a, b, c = (random_cyc(rng, order) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # arithmetic at one order stays at that order
        assert (a + b).order == order and (a * b).order == order


def test_exact_inverse_random():
    rng = random.Random(19)
    count = 0
    while count < 40:
        a = random_cyc(rng, rng.choice(ORDERS))
        if a.is_zero():
            continue
        count += 1
        assert a * a.inverse() == 1
        assert a / a == 1


def test_division_by_zero_reported():
    with pytest.raises(ZeroDivisionError):
        root_of_unity(5) / CycNum.zero(5)


def test_mixed_order_arithmetic():
    # zeta_2 * zeta_3 = zeta_6^5, and the lcm lift keeps everything exact
    assert root_of_unity(2) * root_of_unity(3) == root_of_unity(6, 5)
    assert root_of_unity(4) * root_of_unity(6) == root_of_unity(12, 5)


def test_lift_preserves_value():
    rng = random.Random(23)
    for _ in range(40):
        order = rng.choice(ORDERS)
        a = random_cyc(rng, order)
        lifted = a.lift(order * rng.choice((2, 3, 4)))
        assert lifted == a
        assert abs(lifted.embed() - a.embed()) < 1e-10


def test_canonical_form_idempotent():
    # rebuilding from unreduced power sums lands on the same coordinates
    rng = random.Random(29)
    for _ in range(40):
        order = rng.choice(ORDERS)
        powers = {rng.randrange(3 * order): Fraction(rng.randint(-3, 3)) for _ in range(4)}
        a = from_powers(order, powers)
        b = from_powers(order, {i: c for i, c in enumerate(a.coeffs)})
        assert a == b and a.coeffs == b.coeffs


def test_power_negative_exponent():
    z = root_of_unity(9, 2)
    assert z ** -1 == z.inverse()
    assert z ** -4 == (z ** 4).inverse()


@pytest.mark.parametrize("order", [1, 7, 12, 15])
def test_binary_power_is_repeated_products(order):
    one = CycNum.one(order)
    dense = CycNum(order, [Fraction(i + 1, 2) for i in range(euler_phi(order))])
    for x in (dense, torsion_root(order, 1)):
        for e in range(-6, 13):  # e = 0 gives the one of the order
            want, factor = one, x if e >= 0 else x.inverse()
            for _ in range(abs(e)):
                want = want * factor
            assert binary_power(x, e, one).key() == want.key()
            assert (x ** e).key() == want.key()


def test_torsion_log_reads_every_root_and_inverts_it_to_its_conjugate():
    for n in range(1, 65):
        for j in range(math.lcm(2, n)):
            root = torsion_root(n, j)
            assert root.torsion_log() == j
            conjugate = CycNum._raw(n, _power_map(root._num, n, -1), root._den)
            assert root.inverse().key() == conjugate.key()


def test_torsion_log_of_a_non_root_is_none():
    three_four_i = CycNum(4, [Fraction(3, 5), Fraction(4, 5)])  # modulus one, no root
    for u in (CycNum.rational(2), 1 + root_of_unity(5), three_four_i, CycNum.zero(6)):
        assert u.torsion_log() is None


def _euler_phi_by_trial_division(n):
    """The former euler_phi, with a trial division of its own."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def test_euler_phi_matches_trial_division():
    for n in range(1, 2001):
        assert euler_phi(n) == _euler_phi_by_trial_division(n)


def test_power_table_at_large_conductor():
    # z^e mod Phi_1470 for e up to 1469 lies 1,133 steps above phi(1470) = 336;
    # the table is built iteratively, so no recursion limit is reached
    z = root_of_unity(1470)
    assert z.inverse() == root_of_unity(1470, 1469)
    assert z * z.inverse() == 1


def test_as_cycnum_is_the_one_exact_coercion():
    z = root_of_unity(5)
    assert as_cycnum(z) is z
    assert as_cycnum(3) == CycNum.rational(3)
    assert as_cycnum(Fraction(-1, 2)) == CycNum.rational(Fraction(-1, 2))
    # matrix entries, polynomial coefficients and family parameters all refuse floats
    for use in (
        lambda v: Mat2(v, 0, 0, 1),
        lambda v: HomPoly(0, [v]),
        lambda v: family_finite_order(gamma_4k3(1), v),
    ):
        with pytest.raises(TypeError, match="need an exact value"):
            use(0.5)
