"""Tests for the invariant-space computation and superflow decision."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from monomial_groups import conjugated_by, diag, monomial_generators

from superflows import engine
from superflows.cyclotomic import CycNum, root_of_unity
from superflows.engine import (
    _eliminate,
    _least_survivors,
    _survivor_class,
    classify_alpha,
    find_superflow,
    invariant_space,
)
from superflows.homog import RatVF, monomial_field
from superflows.matgroup import (
    FiniteMatrixGroup,
    Mat2,
    MonomialGroup,
    alpha_group,
    alpha_matrix,
    generate_group,
    tau,
)


def float_character_sum(m, i, ell, component):
    """Independent numeric oracle for the averaging sums."""
    if component == "first":
        w = (-1) ** (i + ell) * cmath.exp(2j * cmath.pi * (2 * i - 2 * ell - 3) / m)
    else:
        w = (-1) ** (i + ell + 1) * cmath.exp(2j * cmath.pi * (2 * i - 2 * ell - 1) / m)
    return sum(w ** s for s in range(2 * m))


def _in_class(solved, a):
    """Whether a lies in a survivor class (r, M); None is the empty class."""
    return solved is not None and (a - solved[0]) % solved[1] == 0


def _alpha_survives(m, i, ell, component):
    """Whether x^i y^(D-i) / x^ell y^(D-2-ell) lies in <alpha(m)>'s survivor class."""
    solved = _survivor_class(alpha_group(m), ("first", "second").index(component))
    return _in_class(solved, i - ell)


def test_survival_known_cases():
    assert _alpha_survives(7, 0, 2, "first") is True
    assert _alpha_survives(7, 2, 2, "first") is False
    # exponent condition holds but the sign factor kills the second component
    assert _alpha_survives(7, 4, 0, "second") is False


def test_survival_against_float_oracle():
    # wide (i, ell) windows, every odd m up to 19
    for m in range(3, 20, 2):
        for i in range(0, 2 * m):
            for ell in range(0, m):
                for component in ("first", "second"):
                    numeric = abs(float_character_sum(m, i, ell, component)) > 1e-6
                    assert _alpha_survives(m, i, ell, component) == numeric


def test_invariant_space_trivial_group():
    triv = generate_group([Mat2.identity()])
    assert len(invariant_space(triv, 0, 0)) == 6


def test_invariant_space_known_superflow_fields():
    assert invariant_space(alpha_group(7), 2, 0) == [monomial_field(0, 0, 2, 0)]
    assert invariant_space(alpha_group(5), 0, 1) == [monomial_field(1, 3, 0, 1)]


def test_invariant_space_of_a_non_monomial_group_is_exact():
    # [[0, -1], [1, -1]] has order 3 and is neither diagonal nor antidiagonal,
    # so its averages are dense and _eliminate back-substitutes.  The
    # character count (6 + 0 + 0)/3 gives dimension 2; with tau, the group is
    # S_3 and one field is left: (x^2 - 2xy, y^2 - 2xy), up to a scalar
    rotation = Mat2(0, -1, 1, -1)
    groups = [generate_group([rotation]), generate_group([rotation, tau()])]
    assert [group.order for group in groups] == [3, 6]
    spaces = [invariant_space(group, 0, 0) for group in groups]
    assert [len(space) for space in spaces] == [2, 1]
    want = RatVF.sum([RatVF.monomial(0, 2), RatVF.monomial(0, 1, -2),
                      RatVF.monomial(1, 0), RatVF.monomial(1, 1, -2)])
    assert spaces[1] == [want.normalized()]
    for group, space in zip(groups, spaces):
        assert all(field.conjugate(g) == field for field in space for g in group)


def _reynolds_space(group, deg):
    """The Reynolds spaces over every denominator x^lx y^(deg-lx), merged."""
    return _eliminate([f for lx in range(deg + 1) for f in invariant_space(group, lx, deg - lx)])


def _monomials(field):
    """(component, a) of every Laurent monomial x^a y^(2-a) with a nonzero coefficient."""
    return {(component, a) for component, a, _ in field.terms}


def _assert_classes_span(group, deg):
    """The Reynolds merge up to degree deg is spanned by the survivor class members.

    Its fields hold only class monomials, and its dimension is the number of
    (component, a) in the classes with D(a) <= deg, halved by a swap, which
    pairs each survivor m with w.m.
    """
    monomial = MonomialGroup.from_matrices(group.generators)
    members = {(component, a) for component in (0, 1) for a in range(-deg, deg + 3)
               if _in_class(_survivor_class(monomial, component), a)}
    space = _reynolds_space(group, deg)
    assert all(_monomials(f) <= members for f in space)
    assert len(space) == len(members) // (1 if monomial.swap is None else 2)
    return space


def test_invariant_space_zero_below_minimal_degree():
    # m = 4k+3: nothing below denominator degree 2k; m = 4k+1: below 2k-1
    for k in (1, 2, 3):
        for m, least in ((4 * k + 3, 2 * k), (4 * k + 1, 2 * k - 1)):
            group = alpha_group(m)
            degree, _ = _least_survivors(group)
            assert degree == least
            if k < 3:  # the Reynolds merge agrees below and at the least degree
                assert all(_reynolds_space(group, deg) == [] for deg in range(least))
                assert _reynolds_space(group, least) != []


def test_character_and_reynolds_methods_agree():
    for m in (3, 5, 7):
        group = alpha_group(m)
        for deg in range(0, 4):
            _assert_classes_span(group, deg)


def test_find_superflow_examples():
    v7 = find_superflow(alpha_group(7), 4)
    assert v7.status == "superflow"
    assert v7.denom_degree == 2
    assert v7.field == monomial_field(0, 0, 2, 0)

    v8 = find_superflow(alpha_group(8), 6)
    assert v8.status == "none" and v8.shortcut_used

    v3 = find_superflow(alpha_group(3), 2)
    assert v3.status == "superflow"
    assert v3.denom_degree == 0
    assert v3.field == monomial_field(0, 0, 0, 0)


def test_minimal_degree_fields_for_odd_m():
    # m = 4k+3 gives y^(2k+2)/x^(2k) . 0 at degree 2k, nothing below;
    # m = 4k+1 mirrors with 0 . x^(2k+1)/y^(2k-1) at degree 2k-1
    for k in (1, 2, 3):
        m = 4 * k + 3
        verdict = find_superflow(alpha_group(m))
        assert verdict.denom_degree == 2 * k
        assert verdict.field == monomial_field(0, 0, 2 * k, 0)
        m = 4 * k + 1
        verdict = find_superflow(alpha_group(m))
        assert verdict.denom_degree == 2 * k - 1
        assert verdict.field == monomial_field(1, 2 * k + 1, 0, 2 * k - 1)


def test_diagonal_inverse_pair_is_not_unique():
    # xi = zeta^(-1) always yields at least a two-dimensional space
    for m in (5, 7):
        group = generate_group([Mat2.diagonal(root_of_unity(m), root_of_unity(m, m - 1))])
        verdict = find_superflow(group, 4)
        assert verdict.status == "not_unique"
        assert verdict.dimension >= 2


def test_scaling_a_candidate_does_not_change_the_verdict():
    group = alpha_group(7)
    space = invariant_space(group, 2, 0)
    scaled = [f.scale(root_of_unity(7, 3) * 5) for f in space]
    assert [f.normalized() for f in scaled] == space


def _assert_scans_find_nothing(group):
    """No invariant field: empty survivor classes, and the oracle's merge at each degree to n/2."""
    assert _survivor_class(group, 0) is None and _survivor_class(group, 1) is None
    for deg in range(group.n // 2 + 1):
        assert _reynolds_space(group, deg) == []


def test_shortcut_agrees_with_generic_scan():
    for m in (4, 8, 12):
        group = alpha_group(m)
        fast = find_superflow(group)
        assert fast.status == "none" and fast.shortcut_used
        _assert_scans_find_nothing(group)


def test_classification_statuses():
    statuses = {m: verdict.status for m, _, verdict in classify_alpha(3, 12)}
    for m in (3, 5, 6, 7, 9, 10, 11):
        assert statuses[m] == "superflow"
    for m in (4, 8, 12):
        assert statuses[m] == "none"


def test_classification_rows_are_the_verdicts_of_the_alpha_groups():
    rows = {m: (group, verdict) for m, group, verdict in classify_alpha(3, 12)}
    assert sorted(rows) == list(range(3, 13))
    assert rows[7][1].field == monomial_field(0, 0, 2, 0)
    assert rows[7][1].field.pretty() == "y^4/x^2 • 0"
    assert rows[6][0].order == 6 and rows[7][0].order == 14
    for m, (group, verdict) in rows.items():
        assert group.gens == alpha_group(m).gens
        assert verdict == find_superflow(alpha_group(m))


def test_classification_rows_are_decided_as_they_are_read():
    # a range of 10^12 rows would never finish if the rows were decided before the first one
    m, group, verdict = next(classify_alpha(3, 10**12))
    assert m == 3 and group.gens == alpha_group(3).gens
    assert verdict == find_superflow(alpha_group(3))


def test_an_empty_classification_range_raises_at_the_call():
    with pytest.raises(ValueError, match="3 <= m_lo <= m_hi"):
        classify_alpha(5, 4)
    with pytest.raises(ValueError, match="3 <= m_lo <= m_hi"):
        classify_alpha(2, 4)


def test_verdict_invariant_under_tau_conjugation():
    for m in (5, 7):
        group = alpha_group(m)
        conjugated = conjugated_by(group, tau())
        a = find_superflow(group)
        b = find_superflow(conjugated)
        assert a.status == b.status == "superflow"
        assert a.denom_degree == b.denom_degree
        assert b.field == a.field.conjugate(tau()).normalized()


def test_antidiagonal_group_pairs_monomials_under_the_swap():
    # <tau> contains an antidiagonal element, so each surviving monomial is
    # paired with its swap image; swap-invariant polynomial fields form a
    # 3-dim space
    group = generate_group([tau()])
    verdict = find_superflow(group, 2)
    assert verdict.status == "not_unique"
    assert verdict.denom_degree == 0
    assert verdict.dimension == 3
    space = invariant_space(group, 0, 0)
    for field in space:
        assert field.conjugate(tau()) == field


def _verdict_key(verdict):
    return (verdict.status, verdict.denom_degree, verdict.dimension, verdict.field)


def _assert_matches_oracle(group):
    """The character scan against the Reynolds-averaging scan, which shares none of its code."""
    fast = find_superflow(group)
    slow = find_superflow(group, method="reynolds")
    assert _verdict_key(fast) == _verdict_key(slow)
    assert fast.shortcut_used == slow.shortcut_used
    assert fast.scan_bound is None and slow.scan_bound is None
    return fast


@pytest.mark.parametrize("m", range(3, 13))
def test_character_scan_matches_oracle_on_alpha_groups(m):
    # the oracle averages over the Mat2 closure; the shortcut fires exactly on
    # -I (test_shortcut_agrees_with_generic_scan runs both scans past it)
    oracle = find_superflow(generate_group([alpha_matrix(m)]), method="reynolds")
    fast = find_superflow(alpha_group(m))
    assert _verdict_key(fast) == _verdict_key(oracle)
    assert fast.shortcut_used == oracle.shortcut_used == (m % 4 == 0)


@pytest.mark.parametrize("m", range(3, 11))
def test_character_scan_matches_oracle_on_tau_conjugates(m):
    _assert_matches_oracle(conjugated_by(alpha_group(m), tau()))


@pytest.mark.parametrize("generators", monomial_generators())
def test_character_scan_matches_oracle_on_monomial_groups(generators):
    _assert_matches_oracle(generate_group(generators))


def test_invariant_space_character_matches_oracle_with_antidiagonals():
    for generators in ([tau()], [diag((5, 1), (5, 4)), tau()],
                       [Mat2(0, 1, root_of_unity(3), 0)],
                       [Mat2(0, root_of_unity(4), root_of_unity(4, 3), 0)]):
        group = generate_group(generators)
        for deg in range(3):
            space = _assert_classes_span(group, deg)
            assert all(f.conjugate(g) == f for f in space for g in group)


@pytest.mark.parametrize("generators", monomial_generators())
def test_oracle_averages_each_laurent_monomial_once(generators, monkeypatch):
    # degree D adds only x^a y^(2-a) with a = -D and D + 2 to the span of
    # degree D - 1, so the scan to D averages 2 (2D + 3) monomials, and it
    # gives the merge over every denominator x^lx y^(D-lx) of each degree
    group = generate_group(generators)
    averaged = []
    average = engine.reynolds_average

    def counting_average(g, field):
        averaged.append(field)
        return average(g, field)

    monkeypatch.setattr(engine, "reynolds_average", counting_average)
    verdict = find_superflow(group, method="reynolds")
    monkeypatch.undo()
    assert not verdict.shortcut_used
    last = verdict.denom_degree
    if last is None:
        last = MonomialGroup.from_matrices(group.generators).n // 2
    assert len(averaged) == 2 * (2 * last + 3)
    assert len({f.to_text() for f in averaged}) == len(averaged)
    assert all(_reynolds_space(group, deg) == [] for deg in range(last))
    merged = _reynolds_space(group, last)
    assert verdict.dimension == len(merged)
    if verdict.status == "superflow":
        assert [verdict.field] == merged


@pytest.mark.parametrize("m", range(3, 13))
def test_character_scan_matches_oracle_with_the_swap(m):
    # <alpha(m), tau>: the oracle averages over the Mat2 closure
    n = alpha_group(m).n
    group = MonomialGroup(m, [(0, n // m, n // 2 - n // m), (1, 0, 0)])
    oracle = find_superflow(generate_group([alpha_matrix(m), tau()]), method="reynolds")
    assert _verdict_key(find_superflow(group)) == _verdict_key(oracle)


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=2),
    # no antidiagonal, any antidiagonal, or one with w^2 = I, where swap superflows live
    st.none() | st.tuples(st.integers(0, 15), st.integers(0, 15))
    | st.integers(0, 15).map(lambda u: (u, -u)),
)
def test_congruence_verdict_matches_oracle_on_random_groups(conductor, diagonals, swap):
    generators = [(0, s, t) for s, t in diagonals]
    if swap is not None:
        generators.append((1, *swap))
    group = MonomialGroup(conductor, generators)
    half = group.n // 2
    assert group.order == len(group.triples)
    assert group.has_minus_identity() == ((0, half, half) in group.triples)
    fast = find_superflow(group)
    slow = find_superflow(group, method="reynolds")
    # exact field equality: the oracle writes rational coefficients at the conductor
    assert _verdict_key(fast) == _verdict_key(slow)


def _closed_form(m):
    """README's verdict for <alpha(m)>, m not a multiple of 4: (degree, (component, a))."""
    if m % 4 == 2:
        degree, (component, a) = _closed_form(m // 2)
        return degree, (1 - component, 2 - a)  # the swap takes x^a y^(2-a) to x^(2-a) y^a
    k = m // 4
    return (2 * k, (0, -2 * k)) if m % 4 == 3 else (2 * k - 1, (1, 2 * k + 1))


def test_congruence_step_follows_the_closed_form_up_to_10000():
    for m in range(3, 10_001):
        group = alpha_group(m)
        if m % 4 == 0:
            assert group.has_minus_identity()
            continue
        assert not group.has_minus_identity()
        degree, monomial = _closed_form(m)
        assert _least_survivors(group) == (degree, [monomial])


def test_readme_closed_forms_up_to_2000():
    verdicts = {m: find_superflow(alpha_group(m)) for m in range(3, 2001)}
    for m, verdict in verdicts.items():
        k = m // 4
        if m % 4 == 0:
            assert verdict.status == "none" and verdict.shortcut_used
            continue
        assert verdict.status == "superflow"
        if m % 4 == 3:
            assert verdict.denom_degree == 2 * k
            assert verdict.field == monomial_field(0, 0, 2 * k, 0)
        elif m % 4 == 1:
            assert verdict.denom_degree == 2 * k - 1
            assert verdict.field == monomial_field(1, 2 * k + 1, 0, 2 * k - 1)
        else:
            odd = verdicts[m // 2]
            assert verdict.denom_degree == odd.denom_degree
            assert verdict.field == odd.field.conjugate(tau()).normalized()


def test_none_is_a_proof_only_after_a_full_period():
    # m = 5 has its superflow at degree 1, so a scan bounded at 0 says so
    bounded = find_superflow(alpha_group(5), max_denom_degree=0)
    assert bounded.status == "none" and bounded.scan_bound == 0
    assert bounded.describe() == "none up to denom degree 0"
    # <[[0, 1], [zeta_3, 0]]> holds zeta_3*I, which kills every field
    group = generate_group([Mat2(0, 1, root_of_unity(3), 0)])
    assert not group.has_minus_identity()
    for bound in (None, 3, 10):
        proved = find_superflow(group, max_denom_degree=bound)
        assert proved.status == "none" and proved.scan_bound is None
        assert proved.describe() == "none (degree scan)"
    assert find_superflow(group, max_denom_degree=2).scan_bound == 2


def test_elimination_reduces_overlapping_rows():
    # y^2 + xy and xy + x^2 share xy without being proportional, so reducing
    # one by the other keeps the entries that do not cancel; the third row
    # 2y^2 reduces to 2x^2, which is then back-substituted into the first two
    y2, xy, x2 = (RatVF.monomial(0, a) for a in (0, 1, 2))
    basis = _eliminate([RatVF.sum([y2, xy]), RatVF.sum([xy, x2]), y2.scale(2)])
    assert basis == [y2, xy, x2]


def test_not_unique_names_its_dimension_and_degree():
    # (n, s, t) = (6, 2, 4) is diag(zeta_3, zeta_3^2), which fixes both
    # y^2 . 0 and 0 . x^2: the least degree 0 has a 2-dimensional space
    verdict = find_superflow(MonomialGroup(3, [(0, 2, 4)]))
    assert verdict.status == "not_unique" and verdict.dimension == 2
    assert verdict.describe() == "not unique: 2-dimensional invariant space at denom degree 0"


def test_diagonal_entry_must_be_a_root_of_unity():
    fake = FiniteMatrixGroup([Mat2.diagonal(2, 1)], [Mat2.identity(), Mat2.diagonal(2, 1)], 1)
    with pytest.raises(ValueError, match="not a power of zeta_2"):
        find_superflow(fake)


def test_rejects_non_monomial_preserving_groups():
    shear = Mat2(1, 1, 0, -1)
    group = generate_group([shear])
    with pytest.raises(ValueError):
        find_superflow(group)


def test_shortcut_decides_non_monomial_groups_that_hold_minus_identity():
    # the binary tetrahedral group, one of the primitive groups, holds -I
    i = root_of_unity(4)
    half = CycNum.rational(Fraction(1, 2))
    group = generate_group([
        Mat2(i, 0, 0, -i),
        Mat2((1 + i) * half, (1 + i) * half, (-1 + i) * half, (1 - i) * half),
    ])
    assert group.order == 24 and group.has_minus_identity()
    verdict = find_superflow(group)
    assert verdict.status == "none" and verdict.shortcut_used
    # without -I a non-monomial group still has no exponent form
    group = generate_group([Mat2(0, -1, 1, -1)])
    assert group.order == 3 and not group.has_minus_identity()
    with pytest.raises(ValueError, match="diagonal or antidiagonal"):
        find_superflow(group)


def test_negative_scan_bound_is_rejected():
    with pytest.raises(ValueError, match="max_denom_degree"):
        find_superflow(alpha_group(7), max_denom_degree=-1)
    with pytest.raises(ValueError, match="max_denom_degree"):
        find_superflow(alpha_group(4), max_denom_degree=-1)
    assert find_superflow(alpha_group(7), max_denom_degree=0).scan_bound == 0


def test_find_superflow_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        find_superflow(alpha_group(5), method="auto")


def test_classify_rejects_bad_range():
    with pytest.raises(ValueError):
        classify_alpha(5, 4)
    with pytest.raises(ValueError):
        classify_alpha(1, 4)
