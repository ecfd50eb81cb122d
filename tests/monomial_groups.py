"""Generator sets of monomial groups shared by the engine and group tests.

`cyclic_group(N, u)` and `dihedral_group(N)` build, in exponent form, the
two families that every scalar-free finite subgroup of U(2) is conjugate to
a member of.
"""

import math

from superflows.cyclotomic import root_of_unity
from superflows.matgroup import Mat2, MonomialGroup, generate_group, tau


def cyclic_group(N: int, u: int) -> MonomialGroup:
    """C(N, u) = <diag(zeta_N^(u+1), zeta_N^u)>, with zeta_N = zeta_n^(n/N), n = lcm(2, N)."""
    k = math.lcm(2, N) // N
    return MonomialGroup(N, [(0, (u + 1) * k, u * k)])


def dihedral_group(N: int) -> MonomialGroup:
    """Dih(N) = <diag(zeta_N, zeta_N^(-1)), tau>, of order 2N for odd N."""
    k = math.lcm(2, N) // N
    return MonomialGroup(N, [(0, k, -k), (1, 0, 0)])


def conjugated_by(group, L):
    """The group L^(-1) G L, regenerated from conjugated generators."""
    linv = L.inverse()
    return generate_group([linv * g * L for g in group.generators])


def diag(*entries):
    """diag(zeta_n1^k1, zeta_n2^k2) from the pairs (n1, k1), (n2, k2)."""
    return Mat2.diagonal(*(root_of_unity(n, k) for n, k in entries))


def monomial_generators():
    """Diagonal, two-generator diagonal, dihedral and antidiagonal generator sets."""
    return [
        [diag((5, 1), (5, 4))],  # diag(zeta, zeta^-1): not unique
        [diag((7, 1), (7, 6))],
        [diag((3, 1), (1, 0)), diag((1, 0), (2, 1))],
        [diag((2, 1), (1, 0)), diag((1, 0), (3, 1))],
        [diag((5, 1), (5, 3)), diag((5, 2), (5, 1))],
        [diag((3, 1), (3, 1)), diag((1, 0), (2, 1))],  # none without -I
        [diag((2, 1), (5, 4))],  # first invariants at degree 3, near n/2 = 5
        [tau()],
        [diag((3, 1), (3, 2)), tau()],  # dihedral
        [diag((5, 1), (5, 4)), tau()],
        [Mat2(0, 1, root_of_unity(3), 0)],  # monomial, no -I, no invariant field
        # antidiagonals with w^2 = I and nonzero exponents: w.m carries a root of unity
        [Mat2(0, root_of_unity(4), root_of_unity(4, 3), 0)],
        [diag((5, 1), (5, 4)), Mat2(0, root_of_unity(5), root_of_unity(5, 4), 0)],
        [diag((3, 1), (3, 2)), Mat2(0, root_of_unity(6), root_of_unity(6, 5), 0)],
    ]
