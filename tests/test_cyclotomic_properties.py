"""Property tests of CycNum against the Fraction-coordinate oracle.

Hypothesis runs derandomized, so every run draws the same examples.  Each
conductor gets its own example budget; mixed-order arithmetic is drawn from
the small conductors, whose least common multiples stay small.
"""

import math
import operator
from fractions import Fraction
from functools import reduce

import pytest
from fraction_cycnum import FractionCycNum, from_powers
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superflows.cyclotomic import CycNum, euler_phi, root_of_unity

CONDUCTORS = [1, 4, 7, 12, 61, 120]
SMALL = [1, 4, 7, 12]

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def cycnums(draw, order):
    """Dense vectors, or short sums of powers of z, over a small denominator."""
    den = draw(st.integers(1, 6))
    if draw(st.booleans()):
        nums = draw(st.lists(st.integers(-4, 4), min_size=euler_phi(order), max_size=euler_phi(order)))
        return CycNum(order, [Fraction(x, den) for x in nums])
    powers = draw(st.dictionaries(st.integers(0, 3 * order), st.integers(-4, 4), max_size=3))
    return from_powers(order, {e: Fraction(c, den) for e, c in powers.items()})


def nonzero(order):
    return cycnums(order).filter(lambda a: not a.is_zero())


def oracle(a: CycNum) -> FractionCycNum:
    return FractionCycNum(a.order, a.coeffs)


def same(a: CycNum, b: FractionCycNum) -> bool:
    return a.order == b.order and a.coeffs == b.coeffs


def canonical(a: CycNum) -> bool:
    return a._den > 0 and math.gcd(a._den, *a._num) == 1


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_field_axioms(n, data):
    a, b, c = (data.draw(cycnums(n)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and (a - a).is_zero()
    assert all(canonical(x) for x in (a + b, a * b, a - c, -a))
    if not a.is_zero():
        inv = a.inverse()
        assert a * inv == 1 and canonical(inv)


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_text_round_trip_and_key(n, data):
    a, b = data.draw(cycnums(n)), data.draw(cycnums(n))
    assert ((a + b) - b).key() == a.key()
    assert (a.key() == b.key()) == (a == b)


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_mul_add_agree_with_oracle(n, data):
    a, b = data.draw(cycnums(n)), data.draw(cycnums(n))
    assert same(a * b, oracle(a) * oracle(b))
    assert same(a + b, oracle(a) + oracle(b))


@PROPERTY
@given(data=st.data())
def test_mixed_orders_agree_with_oracle(data):
    a = data.draw(cycnums(data.draw(st.sampled_from(SMALL))))
    b = data.draw(cycnums(data.draw(st.sampled_from(SMALL))))
    assert same(a * b, oracle(a) * oracle(b))
    assert same(a + b, oracle(a) + oracle(b))
    assert (a == b) == (oracle(a) == oracle(b))


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_lift_agrees_with_oracle(n, data):
    a = data.draw(cycnums(n))
    target = n * data.draw(st.sampled_from((1, 2, 3) if n <= 12 else (1, 2)))
    lifted = a.lift(target)
    assert same(lifted, oracle(a).lift(target))
    assert lifted == a and canonical(lifted)
    assert abs(lifted.embed() - a.embed()) < 1e-9


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_inverse_agrees_with_oracle(n, data):
    a = data.draw(nonzero(n))
    inv = a.inverse()
    if n <= 12:
        assert same(inv, oracle(a).inverse())
    else:
        # the oracle's own product certifies the inverse without its slow Euclid
        assert oracle(a) * oracle(inv) == FractionCycNum.rational(1)


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_pow_agrees_with_oracle(n, data):
    a = data.draw(nonzero(n) if n <= 12 else st.builds(root_of_unity, st.just(n), st.integers(0, n)))
    e = data.draw(st.integers(-4, 6))
    assert same(a ** e, oracle(a) ** e)


@pytest.mark.parametrize("n", CONDUCTORS)
@PROPERTY
@given(data=st.data())
def test_multiplicative_order_agrees_with_oracle(n, data):
    sign = data.draw(st.sampled_from((1, -1)))
    j = data.draw(st.integers(0, n - 1))
    u = sign * root_of_unity(n, j)
    # zeta_n^j has order n / gcd(n, j); -zeta_n^j = zeta_2n^(n + 2j)
    want = n // math.gcd(n, j) if sign == 1 else 2 * n // math.gcd(2 * n, n + 2 * j)
    assert u.multiplicative_order() == want
    if n <= 12:
        a = data.draw(nonzero(n))
        assert a.multiplicative_order() == oracle(a).multiplicative_order()
        assert u.multiplicative_order() == oracle(u).multiplicative_order()


def test_unit_modulus_non_root_inverse():
    # (3 + 4i) / 5 has modulus one but is no root of unity
    u = CycNum(4, [Fraction(3, 5), Fraction(4, 5)])
    assert abs(abs(u.embed()) - 1) < 1e-15
    assert u.multiplicative_order() is None
    assert same(u.inverse(), oracle(u).inverse())
    assert u.inverse() == CycNum(4, [Fraction(3, 5), Fraction(-4, 5)])


def test_inverse_falls_back_when_conjugate_fails():
    # modulus within 1e-9 of one, so torsion_log compares, but u is no root: the norm inverts it
    u = root_of_unity(7, 2) * Fraction(10**12 + 1, 10**12)
    assert abs(abs(u.embed()) - 1) <= 1e-9
    assert same(u.inverse(), oracle(u).inverse())
    assert u * u.inverse() == 1


# (order of the rational factor, order of the other factor): equal orders,
# order 1 against N, and N against a proper multiple, each way round
SCALAR_ORDERS = [(4, 4), (7, 7), (12, 12), (1, 7), (7, 1), (1, 12), (12, 1), (4, 12), (12, 4), (7, 21), (21, 7)]


def rationals(order):
    return st.builds(
        lambda p, q: CycNum.rational(Fraction(p, q), order), st.integers(-6, 6), st.integers(1, 6)
    )


@pytest.mark.parametrize("m, n", SCALAR_ORDERS)
@PROPERTY
@given(data=st.data())
def test_zero_and_rational_products_agree_with_oracle(m, n, data):
    # these products take the short-circuits of CycNum.__mul__; the result
    # must be the full product exactly, order and key included
    a = data.draw(cycnums(n))
    for r in (data.draw(rationals(m)), CycNum.zero(m)):
        for x, y in ((r, a), (a, r)):
            got, want = x * y, oracle(x) * oracle(y)
            assert same(got, want)
            assert got.order == math.lcm(m, n)
            assert got.key() == CycNum(want.order, want.coeffs).key()


@st.composite
def mixed_terms(draw):
    """1-6 terms over the small conductors: dense, zero, or rational, each at its own order."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.sampled_from(SMALL))
        kind = draw(st.sampled_from(("dense", "zero", "rational")))
        if kind == "dense":
            terms.append(draw(cycnums(order)))
        elif kind == "zero":
            terms.append(CycNum.zero(order))
        else:
            terms.append(draw(rationals(order)))
    return terms


@PROPERTY
@given(terms=mixed_terms())
def test_sum_agrees_with_fold_and_oracle(terms):
    # the order label is the lcm of every term's order, zeros included
    got = CycNum.sum(terms)
    fold = reduce(operator.add, terms)
    assert got.key() == fold.key()
    assert same(got, reduce(operator.add, map(oracle, terms)))
    assert got.order == math.lcm(*(t.order for t in terms)) and canonical(got)


def test_empty_sum_is_the_zero_of_order_one():
    assert CycNum.sum(()).key() == CycNum.zero().key()


@PROPERTY
@given(data=st.data())
def test_equality_across_orders_agrees_with_oracle(data):
    # a rational against another order is compared without lifting either side
    a, b = (
        data.draw(st.sampled_from(SMALL).flatmap(lambda n: st.one_of(cycnums(n), rationals(n))))
        for _ in range(2)
    )
    for x in (a, b, a.lift(math.lcm(a.order, 3))):
        for y in (a, b, b.lift(math.lcm(b.order, 2))):
            assert (x == y) == (oracle(x) == oracle(y))


def _brute_force_order(u):
    power, k = u, 1
    while power != 1:
        power, k = power * u, k + 1
    return k


def test_multiplicative_order_matches_brute_force_up_to_60():
    for n in range(1, 61):
        for j in range(n):
            for sign in (1, -1):
                u = sign * root_of_unity(n, j)
                assert u.multiplicative_order() == _brute_force_order(u), (n, j, sign)
        # 1 + zeta_n is zero for n = 2 and -zeta_3^2 for n = 3; otherwise |1 + zeta_n| != 1
        if n not in (2, 3):
            assert (1 + root_of_unity(n)).multiplicative_order() is None
