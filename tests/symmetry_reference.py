"""Reference symmetry computations that the package's finite-order laws are checked against.

`matrix_finite_order` finds an exact matrix's order by powering it, the
brute force behind `symmetry.family_finite_order`.  `diagonal_symmetry_solve`
solves for the diagonal symmetries of a single-monomial field, the family
that the radical flows' symmetry families must equal.  Neither is run by a
command, so they live here and not in the package.
"""

from superflows.homog import RatVF
from superflows.matgroup import Mat2
from superflows.symmetry import SymmetryFamily


def matrix_finite_order(matrix: Mat2, bound: int = 10_000):
    """Least k <= bound with matrix**k == I, or None when no such k exists."""
    if matrix.det().is_zero():
        raise ValueError("matrix must be invertible")
    ident = Mat2.identity(matrix.conductor)
    power = matrix
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = power * matrix
    return None


def diagonal_symmetry_solve(field: RatVF):
    """All diagonal symmetries diag(s, t) of a single-monomial field.

    Conjugation by diag(s, t) scales the term x^a y^(2-a) of component c
    by s^k t^(1-k), k = a - 1 + c, so invariance is one exponent equation
    s^k t^(1-k) = 1 per nonzero component.  k and 1 - k are coprime, so the
    solutions form exactly the one-parameter family (c^(k-1), c^k).
    Returns a diagonal power family, or None when the two components force
    incompatible equations.
    """
    if field.is_zero:
        raise ValueError("the zero field has every symmetry")
    components = [component for component, _, _ in field.terms]
    if len(set(components)) < len(components):
        raise ValueError("field numerators must be single monomials")
    equations = {a - 1 + component for component, a, _ in field.terms}
    if len(equations) > 1:
        return None
    k, = equations
    e1, e2 = k - 1, k
    if e1 < 0 or (e1 == 0 and e2 < 0):
        e1, e2 = -e1, -e2
    return SymmetryFamily("diagonal_power", (e1, e2), f"diag(c^{e1}, c^{e2})")
