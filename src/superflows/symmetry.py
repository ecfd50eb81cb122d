"""Parametrized symmetry families of the cataloged flows and fields.

Verification-first: the checks confirm that sampled members of a family fix
a flow or a field (exactly where the data is exact, numerically otherwise)
and that randomly drawn matrices outside the family fail.  No attempt is
made to solve for the symmetry group of a field.

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
from math import gcd, tau

from .cyclotomic import CycNum, as_cycnum
from .errors import BranchError
from .flows import ClosedFormFlow, VerificationRecord, residual_sup
from .homog import RatVF
from .matgroup import Mat2

__all__ = [
    "SymmetryFamily",
    "gamma_4k3",
    "gamma_4k1",
    "delta_tilde",
    "gamma_sph",
    "check_field_symmetry",
    "check_flow_symmetry",
    "check_family_draws",
    "draw_samples",
    "family_finite_order",
    "flow_symmetry_family",
    "FAMILIES",
]

SYMMETRY_TOL = 1e-8


def draw_samples(flow: ClosedFormFlow, rng) -> list:
    """The 20 (point, time) pairs a flow's symmetry checks run at, each point drawn first."""
    return [(flow.sample_point(rng), flow.sample_time(rng)) for _ in range(20)]


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

    def _entries(self, params, scalar):
        """The member's entries a, b, c, d, with each parameter read by `scalar`."""
        if self.kind == "diagonal_power":
            c = scalar(params)
            e1, e2 = self.exponents
            return c ** e1, scalar(0), scalar(0), c ** e2
        if self.kind == "delta_tilde":
            b, d = scalar(params[0]), scalar(params[1])
            return d * d, b, scalar(0), d
        d, b = scalar(params[0]), scalar(params[1])
        return d * d - b, b, d * d - d - b, d + b

    def matrix_numeric(self, params):
        """Family member with complex parameters, as nested tuples."""
        a, b, c, d = self._entries(params, complex)
        return ((a, b), (c, d))

    def matrix_exact(self, params) -> Mat2:
        """Family member with exact (CycNum or rational) parameters."""
        return Mat2(*self._entries(params, as_cycnum))

    def sample_params(self, rng):
        """A random parameter draw from a region clear of degeneracies."""
        if self.kind == "diagonal_power":
            return _random_unit_annulus(rng)
        if self.kind == "delta_tilde":
            return (_random_disk(rng), _random_unit_annulus(rng))
        return (_random_unit_annulus(rng), _random_disk(rng))


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


def _conjugation_residual(L, image, values, samples) -> list[float]:
    """|L^(-1) image(L p, t) - values[i]| at the samples (p, t): both components, sample by sample.

    L is a Mat2 or nested pairs of numbers, read as complex entries once per
    call.  `image(x, y, t)` takes complex scalars: a flow's time map, or a
    field's evaluator with the time ignored.  Each point is a pair of
    complex numbers, and `values` holds the L-free side, one (fx, fy) per
    sample, computed once.
    """
    if isinstance(L, Mat2):
        (a, b), (c, d) = L.embed()
    else:
        (a, b), (c, d) = ((complex(e) for e in row) for row in L)
    det = a * d - b * c
    if abs(det) < 1e-14:
        raise ZeroDivisionError("matrix is numerically singular")
    residuals = []
    for ((x, y), t), (fx, fy) in zip(samples, values):
        u, v = image(a * x + b * y, c * x + d * y, t)
        residuals.append(abs((d * u - b * v) / det - fx))
        residuals.append(abs((a * v - c * u) / det - fy))
    return residuals


def _flow_side(flow: ClosedFormFlow, samples):
    """The samples (p, t) as complex scalars, and phi^t(p) at each: the side no L changes."""
    points = [((complex(p[0]), complex(p[1])), complex(t)) for p, t in samples]
    if not points:
        raise ValueError("flow symmetry check needs sample points")
    phi = flow.time_map
    return points, [phi(x, y, t) for (x, y), t in points]


def check_field_symmetry(L, field: RatVF, samples=None):
    """Whether L^(-1) o V o L == V; returns (bool, max residual).

    Exact matrices take the exact symbolic route whenever the conjugation
    stays inside monomial denominators (diagonal or antidiagonal L, or a
    polynomial field); the numeric route compares values at sample points
    and needs at least one.
    """
    exact = isinstance(L, Mat2) and (
        L.is_diagonal() or L.is_antidiagonal() or (field.lx == 0 and field.ly == 0)
    )
    if exact and field.conjugate(L) == field:
        return True, 0.0
    points = [((complex(p[0]), complex(p[1])), None) for p in samples or ()]
    if not points:
        if exact:
            return False, float("inf")
        raise ValueError("numeric symmetry check needs sample points")

    evaluate = field.evaluator()
    values = [evaluate(x, y) for (x, y), _ in points]
    residuals = _conjugation_residual(L, lambda x, y, _: evaluate(x, y), values, points)
    resid = residual_sup([(residuals, None)])[1]
    # an exact conjugate that differs fails whatever the samples show
    return not exact and resid <= SYMMETRY_TOL, resid


def check_flow_symmetry(L, flow: ClosedFormFlow, samples):
    """Whether L^(-1)(phi^t(L p)) == phi^t(p) at every sample (p, t).

    Branch trouble (the conjugated radicand path meeting zero) propagates as
    BranchError, distinct from a residual failure.
    """
    points, values = _flow_side(flow, samples)
    worst = residual_sup([(_conjugation_residual(L, flow.time_map, values, points), None)])[1]
    return worst <= SYMMETRY_TOL, worst


def check_family_draws(flow: ClosedFormFlow, samples, rng, draws: int) -> VerificationRecord:
    """The flow's symmetry family at `draws` random members; the worst one is the sample.

    phi^t(p) is evaluated once per sample and shared by every member.  Each
    member's residuals enter the sup as one sample's, so the member that
    first exceeds the sup so far is the worst.
    """
    family = flow_symmetry_family(flow)
    points, values = _flow_side(flow, samples)
    phi = flow.time_map

    def residuals():
        for _ in range(draws):
            member = family.matrix_numeric(family.sample_params(rng))
            yield _conjugation_residual(member, phi, values, points), member

    return VerificationRecord(flow.label, "symmetry", *residual_sup(residuals()), SYMMETRY_TOL)


def family_finite_order(family: SymmetryFamily, params):
    """Order of the family member, or None for infinite order.

    Parameters must be exact (CycNum or rationals) where root-of-unity
    membership decides the answer; the off-diagonal parameter b of the
    triangular families only matters through the d = 1, b != 0 escape and
    may be any complex number.
    """
    if family.kind == "diagonal_power":
        c = as_cycnum(params)
        order = c.multiplicative_order()
        if order is None:
            return None
        return order // gcd(order, *family.exponents)
    if family.kind == "delta_tilde":
        b, d = params
    else:
        d, b = params
    d = as_cycnum(d)
    if d == 1:
        return 1 if _is_zero_param(b) else None
    # distinct eigenvalues d^2 and d: diagonalizable, of the order of d
    return d.multiplicative_order()


def _is_zero_param(b) -> bool:
    if isinstance(b, CycNum):
        return b.is_zero()
    return complex(b) == 0
