"""Parametrized symmetry families of the cataloged flows and fields.

Verification-first: the checks confirm that sampled members of a family fix
a flow or a field (exactly where the data is exact, numerically otherwise)
and that randomly drawn matrices outside the family fail.  No attempt is
made to solve for the full symmetry group of an arbitrary field beyond the
diagonal exponent solve for single-monomial fields.

Families:

  diagonal power   diag(c^e1, c^e2), c in C*  (covers the radical flows:
                   exponents (2k+2, 2k+1) and (2k, 2k+1))
  delta_tilde      [[d^2, b], [0, d]], b in C, d in C*   (parabolic flow)
  gamma_sph        [[d^2-b, b], [d^2-d-b, d+b]]          (sph_inf flow)

gamma_sph is delta_tilde conjugated by [[1, 0], [-1, 1]], so the two share
their finite-order law: finite order exactly when d is a root of unity,
except d = 1 with b != 0, which is of infinite order.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd, lcm, tau

from .cyclotomic import CycNum
from .errors import BranchError
from .flows import ClosedFormFlow, VerificationRecord, _as_numeric_matrix
from .homog import RatVF
from .matgroup import Mat2, matrix_finite_order

__all__ = [
    "SymmetryFamily",
    "gamma_4k3",
    "gamma_4k1",
    "delta_tilde",
    "gamma_sph",
    "check_field_symmetry",
    "check_flow_symmetry",
    "check_family_draws",
    "diagonal_symmetry_solve",
    "family_finite_order",
    "cross_check_finite_order",
    "flow_symmetry_family",
    "FAMILIES",
]

SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class SymmetryFamily:
    kind: str  # "diagonal_power" | "delta_tilde" | "gamma_sph"
    exponents: tuple[int, int] | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("diagonal_power", "delta_tilde", "gamma_sph"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "diagonal_power" and self.exponents is None:
            raise ValueError("diagonal power family needs exponents")

    def matrix_numeric(self, params):
        """Family member with complex parameters, as nested tuples."""
        if self.kind == "diagonal_power":
            c = complex(params)
            e1, e2 = self.exponents
            return ((c ** e1, 0j), (0j, c ** e2))
        if self.kind == "delta_tilde":
            b, d = complex(params[0]), complex(params[1])
            return ((d * d, b), (0j, d))
        d, b = complex(params[0]), complex(params[1])
        return ((d * d - b, b), (d * d - d - b, d + b))

    def matrix_exact(self, params) -> Mat2:
        """Family member with exact (CycNum or rational) parameters."""
        if self.kind == "diagonal_power":
            c = _exact(params)
            e1, e2 = self.exponents
            return Mat2.diagonal(c ** e1, c ** e2)
        if self.kind == "delta_tilde":
            b, d = _exact(params[0]), _exact(params[1])
            return Mat2(d * d, b, CycNum.zero(), d)
        d, b = _exact(params[0]), _exact(params[1])
        return Mat2(d * d - b, b, d * d - d - b, d + b)

    def sample_params(self, rng):
        """A random parameter draw from a region clear of degeneracies."""
        if self.kind == "diagonal_power":
            return _random_unit_annulus(rng)
        if self.kind == "delta_tilde":
            return (_random_disk(rng), _random_unit_annulus(rng))
        return (_random_unit_annulus(rng), _random_disk(rng))


def _exact(value) -> CycNum:
    out = CycNum._coerce(value)
    if out is None:
        raise TypeError(f"need an exact parameter, got {value!r}")
    return out


def _random_unit_annulus(rng) -> complex:
    radius = rng.uniform(0.6, 1.4)
    angle = rng.uniform(0.0, tau)
    return radius * cmath.exp(1j * angle)


def _random_disk(rng) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def gamma_4k3(k: int) -> SymmetryFamily:
    """diag(c^(2k+2), c^(2k+1)): the symmetries of the radical_x(k) flow."""
    if k < 1:
        raise ValueError("k >= 1")
    return SymmetryFamily("diagonal_power", (2 * k + 2, 2 * k + 1), f"gamma_4k3(k={k})")


def gamma_4k1(k: int) -> SymmetryFamily:
    """diag(c^(2k), c^(2k+1)): the symmetries of the radical_y(k) flow."""
    if k < 1:
        raise ValueError("k >= 1")
    return SymmetryFamily("diagonal_power", (2 * k, 2 * k + 1), f"gamma_4k1(k={k})")


def delta_tilde() -> SymmetryFamily:
    return SymmetryFamily("delta_tilde", None, "delta_tilde")


def gamma_sph() -> SymmetryFamily:
    return SymmetryFamily("gamma_sph", None, "gamma_sph")


# family name -> (flow family it fixes, maker; the radical makers take the flow's k)
FAMILIES = {
    "gamma_4k3": ("radical_x", gamma_4k3),
    "gamma_4k1": ("radical_y", gamma_4k1),
    "delta_tilde": ("parabolic", delta_tilde),
    "gamma_sph": ("sph_inf", gamma_sph),
}


def flow_symmetry_family(flow: ClosedFormFlow) -> SymmetryFamily:
    """The symmetry family attached to a cataloged flow."""
    for flow_family, make in FAMILIES.values():
        if flow_family == flow.family:
            return make(flow.k) if flow.k else make()
    raise ValueError(f"no cataloged symmetry family for {flow.label}")


def _numeric_field_residual(L, field: RatVF, samples) -> float:
    (a, b), (c, d) = _as_numeric_matrix(L)
    det = a * d - b * c
    if abs(det) < 1e-14:
        raise ZeroDivisionError("matrix is numerically singular")
    worst = 0.0
    for p in samples:
        x, y = complex(p[0]), complex(p[1])
        wx, wy = field.eval_field((a * x + b * y, c * x + d * y))
        gx = (d * wx - b * wy) / det
        gy = (a * wy - c * wx) / det
        vx, vy = field.eval_field((x, y))
        worst = max(worst, abs(gx - vx), abs(gy - vy))
    return worst


def check_field_symmetry(L, field: RatVF, samples=None, tol: float = SYMMETRY_TOL, resample=None):
    """Whether L^(-1) o V o L == V; returns (bool, max residual).

    Exact matrices take the exact symbolic route whenever the conjugation
    stays inside monomial denominators (diagonal or antidiagonal L, or a
    polynomial field); the numeric route compares values at sample points
    and needs `samples`.  When `resample` (a zero-argument callable yielding
    fresh samples) is given, a failing numeric check is repeated once on new
    points to filter conditioning flukes near singular loci.
    """
    if isinstance(L, Mat2) and (
        L.is_diagonal() or L.is_antidiagonal() or (field.lx == 0 and field.ly == 0)
    ):
        if field.conjugate(L) == field:
            return True, 0.0
        if samples is None:
            return False, float("inf")
        return False, _numeric_field_residual(L, field, samples)
    if samples is None:
        raise ValueError("numeric symmetry check needs sample points")
    resid = _numeric_field_residual(L, field, samples)
    if resid > tol and resample is not None:
        resid = _numeric_field_residual(L, field, resample())
    return resid <= tol, resid


def _flow_symmetry_residual(L, flow: ClosedFormFlow, samples) -> float:
    (a, b), (c, d) = _as_numeric_matrix(L)
    det = a * d - b * c
    if abs(det) < 1e-14:
        raise ZeroDivisionError("matrix is numerically singular")
    worst = 0.0
    for p, t in samples:
        x, y = complex(p[0]), complex(p[1])
        u, v = flow.eval((a * x + b * y, c * x + d * y), t)
        gx = (d * u - b * v) / det
        gy = (a * v - c * u) / det
        fx, fy = flow.eval((x, y), t)
        worst = max(worst, abs(gx - fx), abs(gy - fy))
    return worst


def check_flow_symmetry(L, flow: ClosedFormFlow, samples, tol: float = SYMMETRY_TOL, resample=None):
    """Whether L^(-1)(phi^t(L p)) == phi^t(p) at every sample (p, t).

    Branch trouble (the conjugated radicand path meeting zero) propagates as
    BranchError, distinct from a residual failure.  A failing check is
    repeated once on fresh samples when `resample` is provided.
    """
    worst = _flow_symmetry_residual(L, flow, samples)
    if worst > tol and resample is not None:
        worst = _flow_symmetry_residual(L, flow, resample())
    return worst <= tol, worst


def check_family_draws(flow: ClosedFormFlow, samples, rng, draws: int) -> VerificationRecord:
    """The flow's symmetry family at `draws` random members; the worst one is the sample."""
    family = flow_symmetry_family(flow)
    worst, worst_member = 0.0, None
    for _ in range(draws):
        member = family.matrix_numeric(family.sample_params(rng))
        _, resid = check_flow_symmetry(member, flow, samples)
        if resid > worst:
            worst, worst_member = resid, member
    return VerificationRecord(flow.label, "symmetry", draws, worst, worst_member, SYMMETRY_TOL)


def diagonal_symmetry_solve(field: RatVF):
    """All diagonal symmetries diag(s, t) of a single-monomial field.

    Conjugation by diag(s, t) scales the monomial x^i y^(D-i) / x^lx y^ly by
    s^(i-lx-1) t^(D-i-ly) (first component; one less s and one more 1/t on
    the second), so invariance is one exponent equation s^a t^b = 1 per
    nonzero component.  Because a + b = 1 the exponents are coprime and the
    solutions form exactly the one-parameter family (c^-b, c^a).  Returns a
    diagonal power family, or None when the two components force
    incompatible equations.
    """
    if field.is_zero:
        raise ValueError("the zero field has every symmetry")
    deg = field.num_x.degree
    equations = []
    for component, poly in ((0, field.num_x), (1, field.num_y)):
        nonzero = [i for i, c in enumerate(poly.coeffs) if not c.is_zero()]
        if not nonzero:
            continue
        if len(nonzero) > 1:
            raise ValueError("field numerators must be single monomials")
        i = nonzero[0]
        if component == 0:
            eq = (i - field.lx - 1, deg - i - field.ly)
        else:
            eq = (i - field.lx, deg - i - field.ly - 1)
        equations.append(eq)
    first = equations[0]
    for other in equations[1:]:
        if other != first:
            return None
    a, b = first
    e1, e2 = -b, a
    if e1 < 0 or (e1 == 0 and e2 < 0):
        e1, e2 = -e1, -e2
    return SymmetryFamily("diagonal_power", (e1, e2), f"diag(c^{e1}, c^{e2})")


def family_finite_order(family: SymmetryFamily, params):
    """Order of the family member, or None for infinite order.

    Parameters must be exact (CycNum or rationals) where root-of-unity
    membership decides the answer; the off-diagonal parameter b of the
    triangular families only matters through the d = 1, b != 0 escape and
    may be any complex number.
    """
    if family.kind == "diagonal_power":
        c = _exact(params)
        order = c.multiplicative_order()
        if order is None:
            return None
        e1, e2 = family.exponents
        o1 = order // gcd(order, e1 % order if e1 % order else order)
        o2 = order // gcd(order, e2 % order if e2 % order else order)
        return lcm(o1, o2)
    if family.kind == "delta_tilde":
        b, d = params
    else:
        d, b = params
    d = _exact(d)
    if d == 1:
        return 1 if _is_zero_param(b) else None
    order = d.multiplicative_order()
    if order is None:
        return None
    # eigenvalues d^2 and d are distinct, so the matrix is diagonalizable
    return lcm(order // gcd(order, 2), order)


def _is_zero_param(b) -> bool:
    if isinstance(b, CycNum):
        return b.is_zero()
    return complex(b) == 0


def cross_check_finite_order(family: SymmetryFamily, params, bound: int = 200):
    """matrix_finite_order on the exact member; for tests against the criterion."""
    member = family.matrix_exact(params)
    return matrix_finite_order(member, bound)
