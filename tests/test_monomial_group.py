"""The exponent-form closure of MonomialGroup against the Mat2 closure of generate_group.

generate_group multiplies matrices of CycNum entries and shares no code with
the integer closure, so equal element sets, orders and -I membership on the
same generators check the exponent arithmetic, the discrete logs of
`from_matrices` and the Mat2 materialisation together.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from monomial_groups import monomial_generators

from superflows.cyclotomic import CycNum, root_of_unity
from superflows.engine import find_superflow
from superflows.matgroup import (
    Mat2,
    MonomialGroup,
    alpha_group,
    alpha_matrix,
    generate_group,
    tau,
)


def _keys(group, order):
    return {g.lift(order).key() for g in group}


def _assert_same_group(monomial, oracle):
    order = monomial.n
    assert _keys(monomial, order) == _keys(oracle, order)
    assert monomial.order == oracle.order == len(list(monomial))
    assert monomial.has_minus_identity() == oracle.has_minus_identity()


@pytest.mark.parametrize("m", range(3, 41))
def test_alpha_group_matches_matrix_closure(m):
    group = alpha_group(m)
    oracle = generate_group([alpha_matrix(m)])
    assert group.conductor == oracle.conductor
    # at the group's own conductor the materialised keys are the closure's keys
    assert {g.key() for g in group} == {g.key() for g in oracle}
    _assert_same_group(group, oracle)


@pytest.mark.parametrize("m", range(3, 41))
def test_tau_conjugate_matches_matrix_closure(m):
    conjugated = alpha_group(m).conjugated_by(tau())
    _assert_same_group(MonomialGroup.from_matrices(conjugated.generators), conjugated)


@pytest.mark.parametrize("generators", monomial_generators())
def test_monomial_groups_match_matrix_closure(generators):
    _assert_same_group(MonomialGroup.from_matrices(generators), generate_group(generators))


def _exponent_matrix(n, kind, s, t):
    u, v = root_of_unity(n, s), root_of_unity(n, t)
    return Mat2(0, u, v, 0) if kind else Mat2.diagonal(u, v)


def _verdict_key(verdict):
    return (verdict.status, verdict.denom_degree, verdict.dimension, verdict.field,
            verdict.shortcut_used, verdict.scan_bound)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]),  # every conductor with n <= 12
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 11), st.integers(0, 11)),
             min_size=1, max_size=3),
)
def test_random_exponent_generators(conductor, triples):
    group = MonomialGroup(conductor, triples)
    matrices = [_exponent_matrix(group.n, *g) for g in triples]
    _assert_same_group(group, generate_group(matrices))
    read_back = MonomialGroup.from_matrices(matrices)
    assert read_back.n == group.n and read_back.triples == group.triples
    assert _verdict_key(find_superflow(read_back)) == _verdict_key(find_superflow(group))


def test_diagonal_logs_generate_the_diagonal_subgroup():
    # the Schreier generators close to exactly the diagonal elements
    for generators in monomial_generators():
        group = MonomialGroup.from_matrices(generators)
        diagonal = MonomialGroup(group.conductor, [(0, s, t) for s, t in group.diagonal_logs()])
        assert diagonal.triples == {g for g in group.triples if g[0] == 0}


def test_root_is_written_at_the_conductor():
    for conductor in (1, 3, 4, 5, 12):
        group = MonomialGroup(conductor, [(0, 1, 0)])
        for k in range(2 * group.n):
            root = group.root(k)
            assert root.order == conductor
            assert root == root_of_unity(group.n, k)


def test_from_matrices_rejects_other_generators():
    with pytest.raises(ValueError, match="diagonal or antidiagonal"):
        MonomialGroup.from_matrices([Mat2(1, 1, 0, -1)])
    with pytest.raises(ValueError, match="not a power of zeta_2"):
        MonomialGroup.from_matrices([Mat2.diagonal(2, 1)])
    with pytest.raises(ValueError):
        MonomialGroup(3, [])


def test_membership_of_matrices():
    group = alpha_group(8)
    minus_identity = Mat2(*(CycNum.rational(c, 3) for c in (-1, 0, 0, -1)))
    assert minus_identity in group and group.has_minus_identity()
    assert alpha_matrix(4) not in group and tau() not in group
