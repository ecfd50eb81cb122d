"""Tests for homogeneous polynomials, vector fields, and the group average."""

import random
from fractions import Fraction

import pytest
from monomial_groups import monomial_generators

from superflows import cyclotomic
from superflows.cyclotomic import CycNum, root_of_unity
from superflows.errors import NonMonomialDenominatorError, SingularPointError
from superflows.flows import catalog, nonalgebraic_field
from superflows.homog import HomPoly, RatVF, _monomial_action, monomial_field, reynolds_average
from superflows.matgroup import Mat2, MonomialGroup, alpha_group, alpha_matrix, generate_group, tau


def test_field_monomial_cancellation():
    # (x y^4) / x^3 reduces to y^4 / x^2
    field = RatVF(HomPoly(5, [0, 1, 0, 0, 0, 0]), HomPoly(5, [0] * 6), 3, 0)
    assert (field.lx, field.ly) == (2, 0)
    assert field == monomial_field(0, 0, 2, 0)


def test_zero_field_is_canonical():
    field = RatVF.monomial(0, 1) + RatVF.monomial(1, 3, root_of_unity(3))
    for z in (RatVF(HomPoly(6, [0] * 7), HomPoly(6, [0] * 7), 3, 1),
              RatVF.monomial(1, 5, 0), monomial_field(0, 1, 3, 1, coeff=0),
              field.scale(0), field.scale(Fraction(0)), field.scale(CycNum.zero(3)),
              RatVF.zero().normalized()):
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


def _eval_by_two_walks(field: RatVF, point):
    """The field's value with each component building its own powers of x and y."""
    deg = field.lx + field.ly + 2

    def walk(component, x, y):
        total = 0j
        xp, i = 1 + 0j, 0
        ypows = [1 + 0j]
        for _ in range(deg):
            ypows.append(ypows[-1] * y)
        for k, a, c in field.terms:
            if k != component:
                continue
            while i < a + field.lx:
                xp *= x
                i += 1
            total += c.embed() * xp * ypows[deg - i]
        return total

    x, y = complex(point[0]), complex(point[1])
    denom = 1 + 0j
    if field.lx:
        denom *= x ** field.lx
    if field.ly:
        denom *= y ** field.ly
    return walk(0, x, y) / denom, walk(1, x, y) / denom


def _two_walk_cases():
    """Fields, points, and one field's points on its denominator locus, for the two-walk comparisons."""
    rng = random.Random(14)

    def dense(m):
        return CycNum(m, [rng.randint(-3, 3) or 1 for _ in range(cyclotomic.euler_phi(m))])

    # degree 7 over x^2 y^3: zeros inside both numerators, nonzero ends keep lx, ly
    sparse_dense = RatVF(
        HomPoly(7, [dense(7), 0, 0, dense(7), 0, dense(9), 0, Fraction(2, 3)]),
        HomPoly(7, [0, dense(9), 0, 0, dense(7), 0, dense(7), 0]),
        2,
        3,
    )
    assert (sparse_dense.lx, sparse_dense.ly) == (2, 3)
    fields = [flow.vector_field() for flow in catalog()]
    fields += [nonalgebraic_field(), sparse_dense]
    points = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(10)]
    points += [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(10)]
    return fields, points, sparse_dense, ((0, 1 + 0.5j), (1 - 0.5j, 0))


def test_eval_field_power_table_gives_the_same_floats_as_two_walks():
    fields, points, sparse_dense, singular = _two_walk_cases()
    for field in fields:
        for p in points:
            assert field.eval_field(p) == _eval_by_two_walks(field, p)
    for p in singular:
        with pytest.raises(SingularPointError):
            sparse_dense.eval_field(p)


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def test_evaluator_gives_the_bits_of_two_walks():
    fields, points, sparse_dense, singular = _two_walk_cases()
    for field in fields:
        evaluate = field.evaluator()
        assert field.evaluator() is evaluate  # built once per field
        for p in points:
            x, y = complex(p[0]), complex(p[1])
            assert _bits(evaluate(x, y)) == _bits(_eval_by_two_walks(field, p))
    for p in singular:
        with pytest.raises(SingularPointError):
            sparse_dense.evaluator()(complex(p[0]), complex(p[1]))


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
    # exact conjugation agrees with L^(-1) V(L p) computed in floats from
    # L.embed(), which shares no exact code with either branch
    rng = random.Random(27)
    monomial = [
        Mat2.diagonal(root_of_unity(5), Fraction(3, 2)),
        alpha_matrix(7),
        tau(),
        Mat2(0, root_of_unity(5, 2), Fraction(1, 3), 0),
        # 3/5 + 4/5 i has modulus one and is no root of unity
        Mat2.diagonal(CycNum(4, [Fraction(3, 5), Fraction(4, 5)]), root_of_unity(12, 5)),
        Mat2(0, Fraction(-2), CycNum(4, [Fraction(3, 5), Fraction(4, 5)]), 0),
    ]
    generic = [Mat2(1, 1, -1, 2), Mat2(1, 1, 0, 1), Mat2(root_of_unity(3), 1, root_of_unity(4), 2)]
    cases = [(Mat2(1, 1, -1, 2), RatVF(HomPoly(2, [1, 2, 0]), HomPoly(2, [0, 0, 1])))]
    for L in monomial:
        for lx, ly in ((0, 0), (2, 0), (1, 3)):
            cases += [(L, _dense_polynomial_field(rng, 6, lx, ly)), (L, _sparse_field(rng, lx, ly))]
    for L in generic:
        cases += [(L, _dense_polynomial_field(rng, 5)), (L, _sparse_field(rng, 0, 0))]
    for L, v in cases:
        w = v.conjugate(L)
        (a, b), (c, d) = L.embed()
        det = a * d - b * c
        for _ in range(10):
            p = (complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)),
                 complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1)))
            vx, vy = v.eval_field((a * p[0] + b * p[1], c * p[0] + d * p[1]))
            expected = ((d * vx - b * vy) / det, (a * vy - c * vx) / det)
            got = w.eval_field(p)
            for u, e in zip(got, expected):
                assert abs(u - e) <= 1e-9 * max(1.0, abs(e))


def _dense_polynomial_field(rng, m: int, lx: int = 0, ly: int = 0) -> RatVF:
    def coeff():
        return root_of_unity(m, rng.randrange(m)) * Fraction(rng.randint(1, 3), rng.randint(1, 2))

    deg = lx + ly + 2
    return RatVF(
        HomPoly(deg, [coeff() for _ in range(deg + 1)]),
        HomPoly(deg, [coeff() for _ in range(deg + 1)]),
        lx,
        ly,
    )


def _poly_mul(p: dict, q: dict) -> dict:
    """The product of two polynomials held as {(power of x, power of y): coefficient}."""
    out = {}
    for (i, j), u in p.items():
        for (k, l), w in q.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + u * w
    return out


def _conjugate_by_composition(v: RatVF, L: Mat2) -> RatVF:
    """L^(-1) o V o L for a polynomial field, by substituting L into both quadratic numerators."""
    assert (v.lx, v.ly) == (0, 0)
    new_x = {(1, 0): L.a, (0, 1): L.b}  # x at L p
    new_y = {(1, 0): L.c, (0, 1): L.d}  # y at L p
    numerators = [{}, {}]
    for component, a, c in v.terms:
        image = {(0, 0): c}
        for form in [new_x] * a + [new_y] * (2 - a):
            image = _poly_mul(image, form)
        for key, w in image.items():
            numerators[component][key] = numerators[component].get(key, 0) + w
    p, q = ([num.get((i, 2 - i), 0) for i in range(3)] for num in numerators)
    dinv = L.det().inverse()
    return RatVF(
        HomPoly(2, [(L.d * u - L.b * w) * dinv for u, w in zip(p, q)]),
        HomPoly(2, [(L.a * w - L.c * u) * dinv for u, w in zip(p, q)]),
    )


def _other_monomial_matrices() -> list:
    """Diagonal and antidiagonal matrices built from entries: roots of unity, or other entries."""
    gaussian = CycNum(4, [Fraction(3, 5), Fraction(4, 5)])  # (3 + 4i)/5, of modulus one
    return [
        tau(),
        Mat2.diagonal(2, 3),
        Mat2(0, root_of_unity(5, 2), Fraction(1, 3), 0),
        Mat2.diagonal(gaussian, root_of_unity(12, 5)),
        Mat2(0, root_of_unity(12, 7), root_of_unity(4), 0),
    ]


def _power_factors(L: Mat2, ks) -> list:
    """s**k * t**(1-k) for each k, with s and t the nonzero entries of L in reading order."""
    s, t = (L.a, L.d) if L.is_diagonal() else (L.b, L.c)
    return [s ** k * t ** (1 - k) for k in ks]


def test_monomial_conjugation_matches_composition():
    # conjugate() sends monomial matrices through its factor branch, which
    # looks roots up by exponents and takes powers of other entries; the
    # substitution formula is the independent check of that branch
    rng = random.Random(43)
    for m in (3, 5, 7):
        v = _dense_polynomial_field(rng, m)
        for L in [*_other_monomial_matrices(), *alpha_group(m)]:
            assert v.conjugate(L) == _conjugate_by_composition(v, L)


def _keys(v: RatVF):
    return v.lx, v.ly, [(component, a, c.key()) for component, a, c in v.terms]


def test_conjugation_by_a_used_matrix_matches_a_fresh_build():
    # fields of other shapes first use L, which then keeps the exponents of
    # root entries; the image must still match the one a fresh matrix builds
    rng = random.Random(61)
    shapes = [(2, 0), (1, 1), (0, 2), (0, 0), (1, 0)]
    matrices = _other_monomial_matrices()
    for m in (3, 5, 7):
        matrices += alpha_group(m).elements
    for L in matrices:
        for lx, ly in shapes:
            _sparse_field(rng, lx, ly).conjugate(L)
        for lx, ly in shapes:
            for v in (_dense_polynomial_field(rng, 6, lx, ly), _sparse_field(rng, lx, ly)):
                kept, fresh = v.conjugate(L), v.conjugate(Mat2(*L.entries()))
                assert kept.to_text() == fresh.to_text()
                assert _keys(kept) == _keys(fresh)


def test_factors_read_off_the_exponents_match_the_powers():
    # a root-entry matrix looks each factor up by its exponents, which a
    # MonomialGroup element holds from construction and a matrix built from
    # its entries reads by torsion_log on first use; both must equal the
    # power s**k * t**(1-k) in value, order and key
    ks = range(-8, 11)
    groups = [alpha_group(m) for m in range(3, 41)]
    groups += [
        MonomialGroup.from_matrices(gens)
        for gens in monomial_generators()
        if any(g.is_antidiagonal() for g in gens)
    ]
    L = alpha_group(5).elements[1]
    built = [L * L, L.lift(20), *_other_monomial_matrices()]
    for M in [g for group in groups for g in group.elements] + built:
        fresh = Mat2(*M.entries())
        assert fresh._exponents is None
        powers = _power_factors(M, ks)
        for matrix in (M, fresh):
            swaps, factors = _monomial_action(matrix, ks)
            assert swaps == int(M.is_antidiagonal())
            assert factors == powers
            assert [(e.order, e.key()) for e in factors] == [(p.order, p.key()) for p in powers]
        assert fresh._exponents == M._exponents
    _, s, t = L._exponents  # powers of zeta_10, so zeta_20^(2s) and zeta_20^(2t) at conductor 20
    assert [M._exponents for M in built] == [
        (0, 2 * s % 10, 2 * t % 10), (0, 2 * s, 2 * t), (1, 0, 0), None, None, None, (1, 7, 3),
    ]


def _receivers(monkeypatch, name: str) -> list:
    """The receivers of the CycNum method `name`, recorded while the test runs."""
    calls = []
    method = getattr(CycNum, name)

    def counting(self):
        calls.append(self)
        return method(self)

    monkeypatch.setattr(CycNum, name, counting)
    return calls


@pytest.fixture
def inverse_calls(monkeypatch):
    return _receivers(monkeypatch, "inverse")


@pytest.fixture
def is_zero_calls(monkeypatch):
    return _receivers(monkeypatch, "is_zero")


def test_conjugation_by_a_monomial_group_inverts_nothing(inverse_calls):
    field = _dense_polynomial_field(random.Random(71), 9, 2, 1)
    for L in alpha_group(9).elements:
        field.conjugate(L)
    assert inverse_calls == []


def test_second_conjugation_of_a_shape_inverts_nothing(inverse_calls):
    # a root-entry matrix looks its factors up, so no conjugation by it
    # inverts, the first one included; a matrix with another entry takes
    # the powers s**k with k < 0 again on every call
    calls = inverse_calls
    rng = random.Random(67)
    cases = ((alpha_matrix(7), False), (tau(), False),
             (Mat2(0, root_of_unity(5, 2), Fraction(1, 3), 0), True))
    for L, inverts in cases:
        for field in [_dense_polynomial_field(rng, 7, 2, 1) for _ in range(2)]:
            calls.clear()
            field.conjugate(L)
            assert bool(calls) == inverts


def test_oracle_products_skip_zero_convolutions(monkeypatch):
    # monomial conjugation multiplies only nonzero terms, so it lifts and
    # reduces only inside products of nonzero operands; every image term
    # carries the key of the full product with its factor e[k]
    events, depth = [], [0]
    reduce, lift, mul = cyclotomic._reduce, CycNum.lift, CycNum.__mul__

    def counting_reduce(n, coeffs):
        if not depth[0]:
            events.append("reduce")
        return reduce(n, coeffs)

    def counting_lift(self, order):
        if not depth[0]:
            events.append("lift")
        return lift(self, order)

    def counting_mul(a, b):
        if a.is_zero() or (isinstance(b, CycNum) and b.is_zero()):
            events.append("zero operand")
        depth[0] += 1
        try:
            return mul(a, b)
        finally:
            depth[0] -= 1

    rng = random.Random(71)
    matrices = [tau(), alpha_matrix(7), Mat2(0, root_of_unity(5, 2), Fraction(1, 3), 0),
                Mat2.diagonal(CycNum(4, [Fraction(3, 5), Fraction(4, 5)]), root_of_unity(12, 5))]
    for L in matrices:
        for shape in ((0, 0), (2, 1), (1, 3)):
            v = _sparse_field(rng, *shape)
            if v.is_zero:
                continue
            lx, ly = v.lx, v.ly
            v.conjugate(L)  # a root-entry L keeps its exponents
            factors = _power_factors(L, [a - 1 + c for c, a, _ in v.terms])
            monkeypatch.setattr(cyclotomic, "_reduce", counting_reduce)
            monkeypatch.setattr(CycNum, "lift", counting_lift)
            monkeypatch.setattr(CycNum, "__mul__", counting_mul)
            monkeypatch.setattr(CycNum, "__rmul__", counting_mul)
            image = v.conjugate(L)
            monkeypatch.undo()
            assert events == []
            if L.is_diagonal():
                assert (image.lx, image.ly) == (lx, ly)
                got = image.terms
            else:
                assert (image.lx, image.ly) == (ly, lx)
                got = [(1 - c, 2 - a, u) for c, a, u in reversed(image.terms)]
            assert [(c, a) for c, a, _ in got] == [(c, a) for c, a, _ in v.terms]
            assert [u.key() for _, _, u in got] == [(u * e).key() for (_, _, u), e in zip(v.terms, factors)]
    # a zero operand that does reach __mul__ returns before any lift or reduction
    monkeypatch.setattr(cyclotomic, "_reduce", counting_reduce)
    monkeypatch.setattr(CycNum, "lift", counting_lift)
    for x, y in ((CycNum.zero(3), root_of_unity(4)), (root_of_unity(4), CycNum.zero(3))):
        assert (x * y).key() == CycNum.zero(12).key()
    assert events == []


def _sparse_field(rng, lx: int, ly: int) -> RatVF:
    """Mostly zero coefficients, each zero or value at its own order and denominator."""
    def coeff():
        order = rng.choice((1, 3, 4, 12))
        if rng.random() < 0.6:
            return CycNum.zero(order)
        return root_of_unity(order, rng.randrange(order)) * Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    deg = lx + ly + 2
    polys = [HomPoly(deg, [coeff() for _ in range(deg + 1)]) for _ in range(2)]
    return RatVF(*polys, lx, ly)


def test_sum_matches_the_pairwise_fold_across_denominators():
    rng = random.Random(53)
    points = [(0.7 + 0.2j, 1.3 - 0.4j), (1.1, -0.6 + 0.9j)]
    for _ in range(60):
        fields = [
            _sparse_field(rng, rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 6))
        ]
        total = RatVF.sum(fields)
        fold = RatVF.zero()
        for f in fields:
            fold = fold + f
        assert total == fold
        # each coefficient is one CycNum.sum of that term's nonzero inputs
        columns = {}
        for f in fields:
            for c, a, u in f.terms:
                columns.setdefault((c, a), []).append(u)
        sums = [(c, a, CycNum.sum(us)) for (c, a), us in sorted(columns.items())]
        assert _keys(total)[2] == [(c, a, u.key()) for c, a, u in sums if not u.is_zero()]
        for p in points:
            want = [sum(f.eval_field(p)[c] for f in fields) for c in (0, 1)]
            assert all(abs(g - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(total.eval_field(p), want))
    lone = _dense_polynomial_field(rng, 4, 1, 2)
    assert RatVF.sum([RatVF.zero(), lone, RatVF.zero()]) is lone
    assert RatVF.sum([]) == RatVF.zero()


def test_reynolds_average_is_one_accumulation(monkeypatch):
    # the average sums all images in one CycNum.sum per slot, never pairwise
    calls = {"add": 0, "lift": 0}
    add, lift = CycNum.__add__, CycNum.lift

    def counting_add(self, other):
        calls["add"] += 1
        return add(self, other)

    def counting_lift(self, order):
        calls["lift"] += 1
        return lift(self, order)

    monkeypatch.setattr(CycNum, "__add__", counting_add)
    monkeypatch.setattr(CycNum, "__radd__", counting_add)
    monkeypatch.setattr(CycNum, "lift", counting_lift)
    field = _dense_polynomial_field(random.Random(59), 7, 2, 0)
    avg = reynolds_average(alpha_group(7), field)
    assert calls["add"] == 0
    assert avg == monomial_field(0, 0, 2, 0).scale(avg.leading_coeff())
    # a rational against an element of another order is compared without a lift
    calls["lift"] = 0
    assert root_of_unity(7, 2) != 1 and CycNum.rational(3, 4) == 3 and CycNum.one(5) != root_of_unity(3)
    assert calls["lift"] == 0


def _definitional_average(group, field: RatVF) -> RatVF:
    """The Reynolds average as defined: the sum of every conjugate, over |G|."""
    return RatVF.sum(field.conjugate(g) for g in group).scale(Fraction(1, len(group)))


def _binary_tetrahedral():
    i = root_of_unity(4)
    half = CycNum.rational(Fraction(1, 2))
    return generate_group([
        Mat2(i, 0, 0, -i),
        Mat2((1 + i) * half, (1 + i) * half, (-1 + i) * half, (1 - i) * half),
    ])


def _order_six():
    # [[0, -1], [1, -1]] has order 3 and is neither diagonal nor antidiagonal
    return generate_group([Mat2(0, -1, 1, -1), Mat2(0, 1, 1, 0)])


def test_reynolds_average_is_the_definitional_sum_over_monomial_groups():
    rng = random.Random(73)
    for m in range(3, 16):
        groups = [
            alpha_group(m),
            generate_group([alpha_matrix(m)]),
            generate_group([alpha_matrix(m), tau()]),
        ]
        for group in groups:
            for _ in range(2):
                lx, ly = rng.randint(0, 3), rng.randint(0, 3)
                for field in (_dense_polynomial_field(rng, m, lx, ly), _sparse_field(rng, lx, ly)):
                    assert _keys(reynolds_average(group, field)) == _keys(_definitional_average(group, field))


def test_reynolds_average_is_the_definitional_sum_over_non_monomial_groups():
    rng = random.Random(79)
    for group, vanishes in ((_binary_tetrahedral(), True), (_order_six(), False)):
        for _ in range(6):
            field = _dense_polynomial_field(rng, 3)
            avg = reynolds_average(group, field)
            assert _keys(avg) == _keys(_definitional_average(group, field))
            assert avg.is_zero == vanishes


def test_reynolds_average_takes_a_bounded_number_of_products(monkeypatch):
    # each term takes one product per image slot with a nonzero factor sum,
    # and one more in the final scale: at most 4T, whatever |G| is
    calls = [0]
    mul = CycNum.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)

    rng = random.Random(83)
    nonzero = 0
    # (2, 0) and (0, 5) are the superflow denominators of m = 7 and 13
    for m in (7, 13):
        for lx, ly in ((0, 0), (2, 0), (1, 3), (0, 5)):
            field = _dense_polynomial_field(rng, m, lx, ly)
            group = alpha_group(m)
            calls[0] = 0
            monkeypatch.setattr(CycNum, "__mul__", counting_mul)
            monkeypatch.setattr(CycNum, "__rmul__", counting_mul)
            avg = reynolds_average(group, field)
            monkeypatch.undo()
            assert calls[0] <= 4 * len(field.terms)
            nonzero += not avg.is_zero
    assert nonzero >= 2


def test_reynolds_average_sums_the_factors_once_per_k(monkeypatch):
    # a dense degree-4 field at x^2 has 10 terms but only 6 values of
    # k = a - 1 + component, and alpha(7) is diagonal, so no antidiagonal
    # table is summed
    calls = [0]
    add = CycNum.sum

    def counting_sum(terms):
        calls[0] += 1
        return add(terms)

    field = _dense_polynomial_field(random.Random(89), 7, 2, 0)
    group = alpha_group(7)
    ks = {a - 1 + component for component, a, _ in field.terms}
    assert (len(field.terms), len(ks)) == (10, 6)
    monkeypatch.setattr(CycNum, "sum", staticmethod(counting_sum))
    avg = reynolds_average(group, field)
    monkeypatch.undo()
    assert calls[0] == 6
    assert _keys(avg) == _keys(_definitional_average(group, field))


def test_a_second_conjugation_tests_no_entry(is_zero_calls):
    # a group element holds its exponents from construction, and a matrix
    # with root entries reads them on its first conjugation and keeps them;
    # a later conjugation, of any field, tests no entry.  A matrix with
    # another entry is read again on every call
    rng = random.Random(97)
    groups = [alpha_group(7), MonomialGroup.from_matrices([alpha_matrix(5), tau()])]
    for L in [g for group in groups for g in group.elements]:
        narrow, wide = _dense_polynomial_field(rng, 7, 1, 0), _dense_polynomial_field(rng, 7, 2, 3)
        narrow.conjugate(L)
        is_zero_calls.clear()
        images = narrow.conjugate(L), wide.conjugate(L)
        assert is_zero_calls == []
        fresh = Mat2(*L.entries())
        assert [_keys(v) for v in images] == [_keys(narrow.conjugate(fresh)), _keys(wide.conjugate(fresh))]
    for L in _other_monomial_matrices() + [alpha_matrix(5)]:
        field, wide = _dense_polynomial_field(rng, 5, 2, 1), _dense_polynomial_field(rng, 5, 3, 3)
        first, want = field.conjugate(L), wide.conjugate(Mat2(*L.entries()))
        is_zero_calls.clear()
        assert [_keys(field.conjugate(L)), _keys(wide.conjugate(L))] == [_keys(first), _keys(want)]
        assert (is_zero_calls == []) == (L._exponents is not None)


def test_singular_and_non_monomial_matrices_are_tested_on_every_use(monkeypatch):
    field = _dense_polynomial_field(random.Random(101), 5)
    singular = Mat2.diagonal(0, 1)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            field.conjugate(singular)
    dets = [0]
    det = Mat2.det

    def counting_det(self):
        dets[0] += 1
        return det(self)

    shear = Mat2(1, 1, 0, 1)
    want = _conjugate_by_composition(field, shear)
    monkeypatch.setattr(Mat2, "det", counting_det)
    for n in (1, 2):
        assert field.conjugate(shear) == want
        assert dets[0] == n  # the generic branch, once per call
    assert shear._exponents is singular._exponents is None


def test_reynolds_average_of_the_zero_field_is_zero():
    groups = [alpha_group(7), generate_group([alpha_matrix(5), tau()]), _binary_tetrahedral(), _order_six()]
    for group in groups:
        assert reynolds_average(group, RatVF.zero()) == RatVF.zero()


def test_reynolds_average_refuses_what_conjugation_refuses():
    laurent = monomial_field(0, 0, 2, 0)
    with pytest.raises(NonMonomialDenominatorError):
        reynolds_average(_order_six(), laurent)
    for singular in (Mat2.diagonal(1, 0), Mat2(0, 0, 2, 0)):
        for field in (laurent, RatVF.zero()):
            with pytest.raises(ZeroDivisionError):
                reynolds_average([Mat2.identity(), singular], field)


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


def test_normalized_returns_the_field_only_when_scaling_keeps_every_key():
    # a leading 1 whose order does not divide some coefficient's order must
    # still scale, to relabel that coefficient at the lcm order
    z7 = root_of_unity(7)
    cases = [
        ([CycNum.one(), CycNum.zero(7), z7], True),
        ([CycNum.one(3), CycNum.zero(6), root_of_unity(6)], True),
        ([CycNum.one(3), CycNum.rational(2), root_of_unity(3)], False),
        ([CycNum.rational(2, 7), CycNum.zero(), z7], False),
    ]
    for coeffs, unchanged in cases:
        v = RatVF(HomPoly(2, coeffs), HomPoly(2, coeffs[::-1]))
        n = v.normalized()
        assert (n is v) == unchanged
        assert _keys(n) == _keys(v.scale(v.leading_coeff().inverse()))
        if not unchanged and v.leading_coeff() == 1:
            assert _keys(n) != _keys(v)


def test_field_addition_mixed_denominators():
    a = monomial_field(0, 0, 2, 0)  # y^4/x^2
    b = monomial_field(0, 0, 0, 2)  # x^0 y^2 ... /y^2 -> reduces to y^0? no: y^4/y^2 = y^2
    total = a + b
    assert (total.lx, total.ly) == (2, 0) or not total.is_zero
    diff = total - a
    assert diff == b


def test_homog_monomial_rejects_an_index_outside_the_degree():
    assert monomial_field(0, 2, 0, 0).terms == ((0, 2, CycNum.one()),)
    for i in (-1, 3, 5):
        with pytest.raises(ValueError, match="monomial index out of range"):
            monomial_field(0, i, 0, 0)
    with pytest.raises(ValueError, match="monomial index out of range"):
        monomial_field(0, 5, 1, 0)
    with pytest.raises(ValueError, match="denominator exponents"):
        monomial_field(0, 0, -1, 1)
    for component in (-1, 2):
        with pytest.raises(ValueError, match="component must be"):
            RatVF.monomial(component, 1)


def test_laurent_monomial_is_the_monomial_field_at_every_denominator_split():
    # x^i y^(D+2-i) / x^lx y^(D-lx) is the Laurent monomial a = i - lx
    coeff = root_of_unity(5, 2) * 3
    for component in (0, 1):
        for deg in range(5):
            for lx in range(deg + 1):
                for i in range(deg + 3):
                    want = monomial_field(component, i, lx, deg - lx, coeff)
                    assert _keys(RatVF.monomial(component, i - lx, coeff)) == _keys(want)


def test_pretty_forms():
    assert monomial_field(0, 0, 2, 0).pretty() == "y^4/x^2 • 0"
    assert monomial_field(1, 3, 0, 1).pretty() == "0 • x^3/y"
    square = HomPoly(2, [1, -2, 1])
    assert RatVF(square, square).pretty() == "x^2-2xy+y^2 • x^2-2xy+y^2"


def test_pretty_prints_minus_one_irrational_and_several_terms_over_a_denominator():
    # -y^3/x and zeta_3 x^3/x share the denominator x, so the first component
    # is parenthesized; -xy^2/x reads its coefficient -1 as a bare minus sign
    field = RatVF.sum([
        RatVF.monomial(0, -1, -1),
        RatVF.monomial(0, 2, root_of_unity(3)),
        RatVF.monomial(1, 0, -1),
    ])
    assert field.pretty() == "([z; z = zeta_3]x^3-y^3)/x • -xy^2/x"
