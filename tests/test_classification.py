"""The classification in closed form, checked against find_superflow.

A finite subgroup of U(2) that holds a scalar other than 1 has no superflow.
A scalar-free reducible group is cyclic, C(N, u) = <diag(zeta_N^(u+1),
zeta_N^u)>, and a scalar-free irreducible one is dihedral, Dih(N) =
<diag(zeta_N, zeta_N^(-1)), tau> with N odd.  The closed forms below give
each verdict from integers alone: status, denominator degree, dimension and
the (component, a) of the field's monomials x^a y^(2-a).  The field is
built only for the final comparison.
"""

import math

from monomial_groups import cyclic_group, dihedral_group

from superflows.engine import find_superflow
from superflows.homog import RatVF
from superflows.matgroup import MonomialGroup, alpha_group


def cyclic_closed_form(N: int, u: int):
    """(status, degree, dimension, monomials) of C(N, u).

    Component 0 keeps a = 1 - u (mod N) and component 1 keeps a = -u
    (mod N).  With v = u mod N in 1..N-2, the nearest members to {0, 1, 2}
    are a = 1 - v in component 0, of degree v - 1, and a = N - v in
    component 1, of degree N - 2 - v; they tie when 2v = N - 1.  u = 0 or
    -1 makes C(N, u) a pseudo-reflection group, with two fields of degree 0.
    """
    if N <= 2:
        return "not_unique", 0, 6 if N == 1 else 3, ()
    v = u % N
    if v in (0, N - 1):
        return "not_unique", 0, 2, ()
    if 2 * v == N - 1:
        return "not_unique", (N - 3) // 2, 2, ()
    if 2 * v < N - 1:
        return "superflow", v - 1, 1, ((0, 1 - v),)
    return "superflow", N - 2 - v, 1, ((1, N - v),)


def dihedral_closed_form(N: int):
    """(status, degree, dimension, monomials) of Dih(N), N odd: x^(-k) y^(k+2) • x^(k+2) y^(-k), k = (N-3)/2."""
    if N == 1:
        return "not_unique", 0, 3, ()
    k = (N - 3) // 2
    return "superflow", k, 1, ((0, -k), (1, k + 2))


def reads_as(verdict, closed_form) -> bool:
    status, degree, dimension, monomials = closed_form
    if (verdict.status, verdict.denom_degree, verdict.dimension) != (status, degree, dimension):
        return False
    if not monomials:
        return verdict.field is None
    return verdict.field == sum((RatVF.monomial(*monomial) for monomial in monomials), RatVF.zero())


def alpha_exponent(m: int) -> int:
    """u with <alpha(m)> = C(2m, u) for odd m: (m-1)/2, or its swap image (3m-1)/2 when m = 1 (mod 4)."""
    return (m - 1) // 2 + (m if m % 4 == 1 else 0)


def with_scalar(group: MonomialGroup, k: int) -> MonomialGroup:
    """<group, zeta_k I>, every generator rescaled to the common n."""
    conductor = math.lcm(group.conductor, k)
    n = math.lcm(2, conductor)
    scale = n // group.n
    gens = [(kind, s * scale, t * scale) for kind, s, t in group.gens]
    return MonomialGroup(conductor, [*gens, (0, n // k, n // k)])


def test_every_cyclic_group_up_to_120_reads_as_its_closed_form():
    wrong = [(N, u) for N in range(1, 121) for u in range(N)
             if not reads_as(find_superflow(cyclic_group(N, u)), cyclic_closed_form(N, u))]
    assert wrong == []


def test_every_odd_dihedral_group_up_to_121_reads_as_its_closed_form():
    wrong = [N for N in range(1, 122, 2)
             if not reads_as(find_superflow(dihedral_group(N)), dihedral_closed_form(N))]
    assert wrong == []
    assert dihedral_group(7).order == 14 and not dihedral_group(7).has_minus_identity()


def test_the_swap_maps_u_to_minus_one_minus_u():
    for N in (5, 12, 31):
        for u in range(N):
            swapped = cyclic_group(N, u).triples
            assert {(0, t, s) for _, s, t in swapped} == cyclic_group(N, -1 - u).triples


def test_alpha_of_odd_m_is_a_cyclic_group_and_classify_is_its_slice():
    for m in range(3, 200, 2):
        assert alpha_group(m).triples == cyclic_group(2 * m, alpha_exponent(m)).triples, m
    wrong = [m for m in range(3, 2001, 2)
             if not reads_as(find_superflow(alpha_group(m)), cyclic_closed_form(2 * m, alpha_exponent(m)))]
    assert wrong == []


def test_a_scalar_other_than_one_leaves_no_superflow():
    groups = [cyclic_group(N, u) for N in range(1, 13) for u in range(N)]
    groups += [dihedral_group(N) for N in range(1, 13, 2)]
    for group in groups:
        for k in range(2, 7):
            assert find_superflow(with_scalar(group, k)).status == "none", (group.gens, k)
