"""Closed-form flows, their numeric verification, and orbit checks.

A flow phi acts through its time-t map phi^t(p) = phi(p*t)/t, which satisfies
the translation identity phi^(t+s) = phi^s o phi^t and tends to the identity
as t -> 0.  The catalog holds five explicit families.  Three are the one
monomial flow of the term (1/n) x^a y^(2-a) in one component: it moves that
coordinate u, keeps the other one v, and has a = 1 - n in component 0 and
a = n + 1 in component 1.

  monomial     phi^t(u) = (u^n + t v^(n+1))^(1/n)
  parabolic    component 0, n = 1
  radical_x k  component 0, n = 2k+1
  radical_y k  component 1, n = 2k
  sph_inf      phi^t = ((x-y)^2 t + x, (x-y)^2 t + y)
  level0       phi^t = (x, y) / ((x+y) t + 1)

For n = 1 the flow is the polynomial u + t v^2.  For n > 1 the root is the
branch that continues the value u from t = 0 along the straight segment to
t.  The radicand is affine in t, so the segment subtends less than pi at the
origin and the continued argument is the principal argument of the endpoint
ratio; the evaluation refuses (BranchError) when the segment meets zero.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .cyclotomic import as_cycnum
from .errors import BranchError, SingularityApproachError, SingularPointError
from .homog import HomPoly, RatVF

__all__ = [
    "ClosedFormFlow",
    "OrbitFunction",
    "VerificationRecord",
    "residual_sup",
    "verify_translation",
    "extract_vector_field",
    "verify_pde",
    "integrate_trajectory",
    "orbit_residual",
    "verify_orbit_ode",
    "check_translation",
    "check_pde",
    "check_orbits",
    "nonalgebraic_field",
    "catalog",
]

FAMILIES = ("parabolic", "sph_inf", "level0", "radical_x", "radical_y")

EXTRACTION_STEP = 1e-5  # time step of the field extraction's differences
DIFFERENCE_STEP = 1e-6  # spatial step of the PDE and orbit-ODE partials
SINGULAR_DISTANCE = 1e-3  # RK4 aborts this close to the denominator's zero locus


def _segment_min_abs(z0: complex, z1: complex) -> float:
    """Minimum of |z| over the straight segment from z0 to z1."""
    dz = z1 - z0
    length2 = abs(dz) ** 2
    if length2 == 0.0:
        return abs(z0)
    s = -(z0.real * dz.real + z0.imag * dz.imag) / length2
    s = min(1.0, max(0.0, s))
    return abs(z0 + s * dz)


def _anchored_root(anchor: complex, rate: complex, t: complex, n: int) -> complex:
    """Continue (anchor^n + t*rate)^(1/n) from the value `anchor` at t = 0."""
    if anchor == 0:
        raise SingularPointError("radical anchor vanishes")
    base = anchor ** n
    tip = base + t * rate
    scale = max(abs(base), abs(tip))
    if _segment_min_abs(base, tip) <= 1e-12 * scale:
        raise BranchError("radicand path passes through zero; branch undefined")
    return anchor * cmath.exp(cmath.log(tip / base) / n)


@dataclass(frozen=True)
class ClosedFormFlow:
    """A member of the explicit flow catalog; k matters only for radicals."""

    family: str
    k: int = 0
    _monomial = None  # (component, n) of a monomial flow, bound by __post_init__

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("radical_x", "radical_y"):
            if self.k < 1:
                raise ValueError("radical families need k >= 1")
        elif self.k != 0:
            raise ValueError(f"family {self.family!r} takes no k parameter")
        k = self.k
        monomial = {"parabolic": (0, 1), "radical_x": (0, 2 * k + 1), "radical_y": (1, 2 * k)}
        object.__setattr__(self, "_monomial", monomial.get(self.family))

    @property
    def label(self) -> str:
        return f"{self.family}(k={self.k})" if self.k else self.family

    def eval(self, point, t) -> tuple[complex, complex]:
        """phi^t(point), branch anchored at t = 0 for the radical families."""
        x, y = complex(point[0]), complex(point[1])
        t = complex(t)
        if self._monomial is not None:
            component, n = self._monomial
            anchor, other = (x, y) if component == 0 else (y, x)
            rate = other ** (n + 1)
            # n = 1 stays a polynomial: the root's exp/log would change its bits
            moved = rate * t + anchor if n == 1 else _anchored_root(anchor, rate, t, n)
            return (moved, y) if component == 0 else (x, moved)
        if self.family == "sph_inf":
            d = (x - y) ** 2
            return (d * t + x, d * t + y)
        denom = (x + y) * t + 1
        if abs(denom) < 1e-12:
            raise SingularPointError("flow denominator (x+y)t + 1 vanishes")
        return (x / denom, y / denom)

    def vector_field(self) -> RatVF:
        """The exact 2-homogeneous rational vector field of the flow."""
        if self._monomial is not None:
            component, n = self._monomial
            a = 1 - n if component == 0 else n + 1
            return RatVF.from_terms([(component, a, as_cycnum(Fraction(1, n)))])
        if self.family == "sph_inf":
            sq = HomPoly(2, [1, -2, 1])
            return RatVF(sq, sq)
        return RatVF(HomPoly(2, [0, -1, -1]), HomPoly(2, [-1, -1, 0]))

    # -- seeded sample domains (branch-valid by construction) ---------------

    def sample_point(self, rng) -> tuple[float, float]:
        if self.family in ("parabolic", "sph_inf"):
            return (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if self.family == "level0":
            return (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        if self.family == "radical_x":
            return (rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7))
        return (rng.uniform(0.3, 0.7), rng.uniform(0.8, 1.2))

    def sample_time(self, rng) -> float:
        if self.family in ("parabolic", "sph_inf"):
            return rng.uniform(-1, 1)
        if self.family == "level0":
            return rng.uniform(-0.15, 0.15)
        return rng.uniform(-0.05, 0.05)


def catalog() -> list[ClosedFormFlow]:
    """The flows exercised by the acceptance checks."""
    return [
        ClosedFormFlow("parabolic"),
        ClosedFormFlow("sph_inf"),
        ClosedFormFlow("level0"),
        ClosedFormFlow("radical_x", 1),
        ClosedFormFlow("radical_x", 2),
        ClosedFormFlow("radical_y", 1),
        ClosedFormFlow("radical_y", 2),
    ]


@dataclass(frozen=True)
class VerificationRecord:
    """One check; it passes when it saw samples and its max residual meets tol."""

    flow: str
    check: str
    n_samples: int
    max_residual: float
    worst_sample: object
    tol: float | None = None

    @property
    def passed(self) -> bool:
        return self.tol is not None and self.n_samples > 0 and self.max_residual <= self.tol

    def as_dict(self) -> dict:
        return {
            "flow": self.flow,
            "check": self.check,
            "n_samples": self.n_samples,
            "max_residual": self.max_residual,
            "worst_sample": _serialize_sample(self.worst_sample),
        }


def _serialize_sample(sample):
    if isinstance(sample, complex):
        return [sample.real, sample.imag]
    if isinstance(sample, (int, float)):
        return [float(sample), 0.0]
    if isinstance(sample, (tuple, list)):
        return [_serialize_sample(item) for item in sample]
    return sample


def residual_sup(pairs: Iterable) -> tuple[int, float, object]:
    """(count, sup, worst sample) of (residuals, sample) pairs: the one rule of every check.

    Each pair holds the residuals of one sample, one per component, and
    count is the number of samples.  The sup runs over components and
    samples alike.  It starts at 0.0 with no sample, and a sample becomes the
    worst only by exceeding the sup so far, so ties keep the first.  A NaN
    residual exceeds everything and makes the sup NaN, so no check passes
    on it.
    """
    count, worst, worst_sample = 0, 0.0, None
    for residuals, sample in pairs:
        count += 1
        for r in residuals:
            if r > worst or (r != r and worst == worst):  # x != x exactly when x is NaN
                worst, worst_sample = r, sample
    return count, worst, worst_sample


def verify_translation(flow: ClosedFormFlow, samples: Iterable) -> VerificationRecord:
    """Max over (p, t, s) of |phi^(t+s)(p) - phi^s(phi^t(p))| in the sup norm."""
    def residuals():
        for p, t, s in samples:
            lhs = flow.eval(p, t + s)
            rhs = flow.eval(flow.eval(p, t), s)
            yield (abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1])), (p, t, s)

    return VerificationRecord(flow.label, "translation", *residual_sup(residuals()))


def extract_vector_field(flow: ClosedFormFlow, point):
    """d/dt phi^t(point) at t = 0 by Richardson-extrapolated central differences."""
    h = EXTRACTION_STEP

    def g(t):
        return flow.eval(point, t)

    g1p, g1m = g(h), g(-h)
    g2p, g2m = g(2 * h), g(-2 * h)
    return tuple(
        (8 * (a - b) - (c - d)) / (12 * h)
        for a, b, c, d in zip(g1p, g1m, g2p, g2m)
    )


def verify_pde(flow: ClosedFormFlow, field: RatVF, samples: Iterable) -> VerificationRecord:
    """Residual of u_x (w - x) + u_y (r - y) + u = 0 for both flow components.

    u and v are the components of the time-1 map and w . r is the vector
    field; spatial partials are central finite differences.
    """
    h = DIFFERENCE_STEP

    def residuals():
        for p in samples:
            x, y = complex(p[0]), complex(p[1])
            w, r = field.eval_field((x, y))
            f0 = flow.eval((x, y), 1.0)
            fxp = flow.eval((x + h, y), 1.0)
            fxm = flow.eval((x - h, y), 1.0)
            fyp = flow.eval((x, y + h), 1.0)
            fym = flow.eval((x, y - h), 1.0)
            yield [
                abs(
                    (fxp[c] - fxm[c]) / (2 * h) * (w - x)  # u_x (w - x)
                    + (fyp[c] - fym[c]) / (2 * h) * (r - y)  # u_y (r - y)
                    + f0[c]
                )
                for c in (0, 1)
            ], (x, y)

    return VerificationRecord(flow.label, "pde", *residual_sup(residuals()))


def integrate_trajectory(
    field: RatVF, start, t_end: float, steps: int
) -> list[tuple[complex, complex]]:
    """Classical fixed-step RK4 along the field, aborting near singularities.

    Raises SingularityApproachError as soon as a stage point comes within
    SINGULAR_DISTANCE of the vanishing locus of the denominator.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    h = t_end / steps

    def guarded(q, step_index):
        if field.lx and abs(q[0]) < SINGULAR_DISTANCE:
            raise SingularityApproachError(q, step_index)
        if field.ly and abs(q[1]) < SINGULAR_DISTANCE:
            raise SingularityApproachError(q, step_index)
        return field.eval_field(q)

    path = [(complex(start[0]), complex(start[1]))]
    p = path[0]
    for step in range(steps):
        k1 = guarded(p, step)
        k2 = guarded((p[0] + 0.5 * h * k1[0], p[1] + 0.5 * h * k1[1]), step)
        k3 = guarded((p[0] + 0.5 * h * k2[0], p[1] + 0.5 * h * k2[1]), step)
        k4 = guarded((p[0] + h * k3[0], p[1] + h * k3[1]), step)
        p = (
            p[0] + h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6,
            p[1] + h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6,
        )
        path.append(p)
    return path


@dataclass(frozen=True)
class OrbitFunction:
    """A 1-homogeneous function constant along the orbits of its flow.

    kinds: "coordinate_y" (W = y, level 1), "coordinate_x" (W = x, level 1),
    and "nonalgebraic_example" (W = exp(-x/y - x^2/(2 y^2)) * y, the orbit
    function of x^2+xy+y^2 . xy+y^2, which has no rational power).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("coordinate_y", "coordinate_x", "nonalgebraic_example"):
            raise ValueError(f"unknown orbit function {self.kind!r}")

    def evaluate(self, point) -> complex:
        x, y = complex(point[0]), complex(point[1])
        if self.kind == "coordinate_y":
            return y
        if self.kind == "coordinate_x":
            return x
        if y == 0:
            raise SingularPointError("orbit function undefined at y = 0")
        return cmath.exp(-x / y - x * x / (2 * y * y)) * y


def nonalgebraic_field() -> RatVF:
    """x^2 + xy + y^2 . xy + y^2, whose orbits are not algebraic curves."""
    return RatVF(HomPoly(2, [1, 1, 1]), HomPoly(2, [1, 1, 0]))


def orbit_residual(orbit: OrbitFunction, path) -> float:
    """Max relative drift of the orbit function along a trajectory."""
    ref = orbit.evaluate(path[0])
    if ref == 0:
        raise SingularPointError("orbit function vanishes at the start point")
    drift = residual_sup(((abs(orbit.evaluate(p) - ref),), None) for p in path)[1]
    return drift / abs(ref)


def verify_orbit_ode(orbit: OrbitFunction, field: RatVF, samples: Iterable) -> VerificationRecord:
    """Residual of W * r + W_x * (y*w - x*r) = 0 with W_x by central differences."""
    h = DIFFERENCE_STEP

    def residuals():
        for p in samples:
            x, y = complex(p[0]), complex(p[1])
            w, r = field.eval_field((x, y))
            wval = orbit.evaluate((x, y))
            wx = (orbit.evaluate((x + h, y)) - orbit.evaluate((x - h, y))) / (2 * h)
            yield (abs(wval * r + wx * (y * w - x * r)),), (x, y)

    return VerificationRecord(orbit.kind, "orbit_ode", *residual_sup(residuals()))


# -- the acceptance checks: seeded draws held to their tolerances ------------


def check_translation(flow: ClosedFormFlow, rng, n: int) -> VerificationRecord:
    """Translation identity at n drawn (p, t, s); the rational flows must hold to 1e-10."""
    triples = [
        (flow.sample_point(rng), flow.sample_time(rng), flow.sample_time(rng))
        for _ in range(n)
    ]
    tol = 1e-10 if flow.family in ("parabolic", "level0") else 1e-9
    return replace(verify_translation(flow, triples), tol=tol)


def check_pde(flow: ClosedFormFlow, rng, n: int) -> list[VerificationRecord]:
    """The flow PDE at n drawn points; then, at n more, the extracted field vs the exact one."""
    field = flow.vector_field()
    pde = verify_pde(flow, field, [flow.sample_point(rng) for _ in range(n)])

    def residuals():
        for p in [flow.sample_point(rng) for _ in range(n)]:
            fd = extract_vector_field(flow, p)
            exact = field.eval_field(p)
            scale = max(1.0, max(abs(v) for v in exact))
            # division by scale > 0 is monotone: the same sup as dividing the component max
            yield (abs(fd[0] - exact[0]) / scale, abs(fd[1] - exact[1]) / scale), p

    extraction = VerificationRecord(
        flow.label, "vector_field_extraction", *residual_sup(residuals()), 1e-7
    )
    return [replace(pde, tol=1e-6), extraction]


def check_orbits(rng, n: int, steps: int) -> list[VerificationRecord]:
    """Per orbit case: drift of W along an RK4 path from (1, 1), then the orbit ODE at n points."""
    cases = [
        ("coordinate_y", ClosedFormFlow("radical_x", 1).vector_field(), 0.5, 1e-9),
        ("coordinate_x", ClosedFormFlow("radical_y", 1).vector_field(), 0.5, 1e-9),
        ("nonalgebraic_example", nonalgebraic_field(), 0.3, 1e-6),
    ]
    records = []
    for kind, field, t_end, drift_tol in cases:
        orbit = OrbitFunction(kind)
        drift = orbit_residual(orbit, integrate_trajectory(field, (1.0, 1.0), t_end, steps))
        records.append(
            VerificationRecord(kind, "orbit_conservation", steps, drift, None, drift_tol)
        )
        points = [(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)) for _ in range(n)]
        records.append(replace(verify_orbit_ode(orbit, field, points), tol=1e-6))
    return records
