"""Tests for the invariant-space computation and superflow decision."""

import cmath
import random

import pytest
from monomial_groups import diag, monomial_generators

from superflows.cyclotomic import root_of_unity
from superflows.engine import _Characters, classify_alpha, find_superflow, invariant_space
from superflows.homog import monomial_field
from superflows.matgroup import (
    FiniteMatrixGroup,
    Mat2,
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


def _alpha_survives(m, i, ell, component):
    """Whether x^i y^(D-i) / x^ell y^(D-2-ell) survives <alpha(m)> in the scan's predicate."""
    return _Characters(alpha_group(m)).survives(("first", "second").index(component), i - ell)


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


def test_invariant_space_zero_below_minimal_degree():
    # m = 4k+3: nothing below denominator degree 2k; m = 4k+1: below 2k-1
    for k in (1, 2, 3):
        group = alpha_group(4 * k + 3)
        for deg in range(2 * k):
            for lx in range(deg + 1):
                assert invariant_space(group, lx, deg - lx) == []
        group = alpha_group(4 * k + 1)
        for deg in range(2 * k - 1):
            for lx in range(deg + 1):
                assert invariant_space(group, lx, deg - lx) == []


def test_character_and_reynolds_methods_agree():
    for m in (3, 5, 7):
        group = alpha_group(m)
        for deg in range(0, 4):
            for lx in range(deg + 1):
                fast = invariant_space(group, lx, deg - lx, method="character")
                slow = invariant_space(group, lx, deg - lx, method="reynolds")
                assert fast == slow


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


def test_shortcut_agrees_with_generic_scan():
    for m in (4, 8, 12):
        group = alpha_group(m)
        fast = find_superflow(group)
        slow = find_superflow(group, max_denom_degree=group.order, minus_i_shortcut=False)
        assert fast.status == slow.status == "none"
        assert fast.shortcut_used and not slow.shortcut_used


def test_classification_statuses():
    rows = classify_alpha(3, 12)
    statuses = {row.m: row.status for row in rows}
    for m in (3, 5, 6, 7, 9, 10, 11):
        assert statuses[m] == "superflow"
    for m in (4, 8, 12):
        assert statuses[m] == "none"


def test_classification_fields_and_reductions():
    rows = {row.m: row for row in classify_alpha(3, 12)}
    assert rows[7].field == monomial_field(0, 0, 2, 0)
    assert rows[7].field.pretty() == "y^4/x^2 • 0"
    assert rows[6].reduction == 3
    assert rows[10].reduction == 5
    assert rows[7].reduction is None
    assert rows[6].group_order == 6


def test_verdict_invariant_under_tau_conjugation():
    for m in (5, 7):
        group = alpha_group(m)
        conjugated = group.conjugated_by(tau())
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
    # the oracle averages over the Mat2 closure and scans in full; with the -I
    # shortcut the character scan must still reach the same verdict, and the
    # shortcut fires exactly on -I
    oracle = find_superflow(
        generate_group([alpha_matrix(m)]), method="reynolds", minus_i_shortcut=False
    )
    for shortcut in (False, True):
        fast = find_superflow(alpha_group(m), minus_i_shortcut=shortcut)
        assert _verdict_key(fast) == _verdict_key(oracle)
        assert fast.shortcut_used == (shortcut and m % 4 == 0)


@pytest.mark.parametrize("m", range(3, 11))
def test_character_scan_matches_oracle_on_tau_conjugates(m):
    _assert_matches_oracle(alpha_group(m).conjugated_by(tau()))


@pytest.mark.parametrize("generators", monomial_generators())
def test_character_scan_matches_oracle_on_monomial_groups(generators):
    _assert_matches_oracle(generate_group(generators))


def test_invariant_space_character_matches_oracle_with_antidiagonals():
    for generators in ([tau()], [diag((5, 1), (5, 4)), tau()],
                       [Mat2(0, 1, root_of_unity(3), 0)],
                       [Mat2(0, root_of_unity(4), root_of_unity(4, 3), 0)]):
        group = generate_group(generators)
        for lx, ly in ((0, 0), (1, 0), (0, 2), (1, 1)):
            fast = invariant_space(group, lx, ly, method="character")
            assert fast == invariant_space(group, lx, ly, method="reynolds")
            assert all(f.conjugate(g) == f for f in fast for g in group)


def test_readme_closed_forms_up_to_60():
    verdicts = {m: find_superflow(alpha_group(m)) for m in range(3, 61)}
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


def test_diagonal_entry_must_be_a_root_of_unity():
    fake = FiniteMatrixGroup([Mat2.diagonal(2, 1)], [Mat2.identity(), Mat2.diagonal(2, 1)], 1)
    with pytest.raises(ValueError, match="not a power of zeta_2"):
        find_superflow(fake)


def test_rejects_non_monomial_preserving_groups():
    shear = Mat2(1, 1, 0, -1)
    group = generate_group([shear])
    with pytest.raises(ValueError):
        find_superflow(group)


def test_classify_rejects_bad_range():
    with pytest.raises(ValueError):
        classify_alpha(5, 4)
    with pytest.raises(ValueError):
        classify_alpha(1, 4)
