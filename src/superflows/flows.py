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

Each flow binds its time map phi(x, y, t) on complex scalars once, and the
checks call it directly, as they call a field's evaluator.  The checks draw
each sample from the seeded generator, and take each RK4 point, as the
residual loop reads it, so their memory does not grow with the sample or
step count; the draws come in the same order as when all n were drawn first.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable

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

EXTRACTION_STEP = 1e-5  # time step of the field extraction's differences
DIFFERENCE_STEP = 1e-6  # spatial step of the PDE and orbit-ODE partials
SINGULAR_DISTANCE = 1e-3  # RK4 aborts this close to the denominator's zero locus


def _segment_min_abs(z0: complex, z1: complex) -> float:
    """Minimum of |z| over the straight segment from z0 to z1."""
    dz = z1 - z0
    length2 = abs(dz) ** 2
    if length2 == 0.0:
        if dz == 0:
            return abs(z0)
        # |dz|^2 underflows: project onto the unit direction of dz instead
        length = abs(dz)
        u = dz / length
        s = -(z0.real * u.real + z0.imag * u.imag) / length
    else:
        s = -(z0.real * dz.real + z0.imag * dz.imag) / length2
    s = min(1.0, max(0.0, s))
    return abs(z0 + s * dz)


def _guarded_ratio(base: complex, tip: complex) -> complex:
    """tip / base, refused (BranchError) when the segment from base to tip nears zero.

    Near means within 1e-12 times the larger of |base| and |tip|.
    """
    scale = max(abs(base), abs(tip))
    if _segment_min_abs(base, tip) <= 1e-12 * scale:
        raise BranchError("radicand path passes through zero; branch undefined")
    return tip / base


def _monomial_map(component: int, n: int):
    """phi(x, y, t) of the monomial flow that moves coordinate `component`."""
    p = n + 1
    first = component == 0
    if n == 1:
        # a polynomial: the root's exp/log would change its bits
        if first:
            return lambda x, y, t: (y ** p * t + x, y)
        return lambda x, y, t: (x, x ** p * t + y)

    def radical(x, y, t):
        anchor, other = (x, y) if first else (y, x)
        rate = other ** p
        if anchor == 0:
            raise SingularPointError("radical anchor vanishes")
        base = anchor ** n
        tip = base + t * rate
        # Fast accept: |w - 1| < 1/2 keeps the segment |base|/2 away from
        # zero, so the full test would pass.  Within the bounds on |base|
        # that test's squares stay finite, and abs(w - 1) overflows only
        # where the full test overflows too.
        if not (1e-150 < abs(base) < 1e150 and abs((w := tip / base) - 1) < 0.5):
            w = _guarded_ratio(base, tip)
        moved = anchor * cmath.exp(cmath.log(w) / n)
        return (moved, y) if first else (x, moved)

    return radical


def _sph_inf_map(x, y, t):
    d = (x - y) ** 2
    return (d * t + x, d * t + y)


def _level0_map(x, y, t):
    denom = (x + y) * t + 1
    if abs(denom) < 1e-12:
        raise SingularPointError("flow denominator (x+y)t + 1 vanishes")
    return (x / denom, y / denom)


# family -> the (low, high) ranges that x, y and t are drawn from, branch-valid by construction
SAMPLE_RANGES = {
    "parabolic": ((-1, 1), (-1, 1), (-1, 1)),
    "sph_inf": ((-1, 1), (-1, 1), (-1, 1)),
    "level0": ((-0.4, 0.4), (-0.4, 0.4), (-0.15, 0.15)),
    "radical_x": ((0.8, 1.2), (0.3, 0.7), (-0.05, 0.05)),
    "radical_y": ((0.3, 0.7), (0.8, 1.2), (-0.05, 0.05)),
}
FAMILIES = tuple(SAMPLE_RANGES)
# each range as (low, high - low): low + width * random() is what random.uniform computes
_DRAWS = {
    family: tuple((lo, hi - lo) for lo, hi in ranges) for family, ranges in SAMPLE_RANGES.items()
}


@dataclass(frozen=True)
class ClosedFormFlow:
    """A member of the explicit flow catalog; k matters only for radicals."""

    family: str
    k: int = 0
    _monomial = None  # (component, n) of a monomial flow, bound by __post_init__
    time_map = None  # phi(x, y, t) on complex scalars, bound by __post_init__

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
        monomial = monomial.get(self.family)
        object.__setattr__(self, "_monomial", monomial)
        if monomial is not None:
            time_map = _monomial_map(*monomial)
        else:
            time_map = _sph_inf_map if self.family == "sph_inf" else _level0_map
        object.__setattr__(self, "time_map", time_map)

    @property
    def label(self) -> str:
        return f"{self.family}(k={self.k})" if self.k else self.family

    def eval(self, point, t) -> tuple[complex, complex]:
        """phi^t(point), branch anchored at t = 0 for the radical families."""
        return self.time_map(complex(point[0]), complex(point[1]), complex(t))

    def vector_field(self) -> RatVF:
        """The exact 2-homogeneous rational vector field of the flow."""
        if self._monomial is not None:
            component, n = self._monomial
            a = 1 - n if component == 0 else n + 1
            return RatVF.monomial(component, a, Fraction(1, n))
        if self.family == "sph_inf":
            sq = HomPoly(2, [1, -2, 1])
            return RatVF(sq, sq)
        return RatVF(HomPoly(2, [0, -1, -1]), HomPoly(2, [-1, -1, 0]))

    # -- seeded sample domains (SAMPLE_RANGES) --------------------------------

    def sample_point(self, rng) -> tuple[float, float]:
        (x0, xw), (y0, yw), _ = _DRAWS[self.family]
        return (x0 + xw * rng.random(), y0 + yw * rng.random())

    def sample_time(self, rng) -> float:
        t0, tw = _DRAWS[self.family][2]
        return t0 + tw * rng.random()


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
    """Max over (p, t, s) of |phi^(t+s)(p) - phi^s(phi^t(p))| in the sup norm.

    A sample that both sides leave at its start point checks nothing, so it
    is not counted; its residual would be 0, so only the count changes.
    """
    phi = flow.time_map

    def residuals():
        for p, t, s in samples:
            x, y = complex(p[0]), complex(p[1])
            lhs_x, lhs_y = phi(x, y, complex(t + s))
            u, v = phi(x, y, complex(t))
            rhs_x, rhs_y = phi(u, v, complex(s))
            if lhs_x == x and lhs_y == y and rhs_x == x and rhs_y == y:
                continue
            yield (abs(lhs_x - rhs_x), abs(lhs_y - rhs_y)), (p, t, s)

    return VerificationRecord(flow.label, "translation", *residual_sup(residuals()))


def extract_vector_field(flow: ClosedFormFlow, point):
    """d/dt phi^t(point) at t = 0 by Richardson-extrapolated central differences."""
    h = EXTRACTION_STEP
    phi = flow.time_map
    x, y = complex(point[0]), complex(point[1])
    a0, a1 = phi(x, y, complex(h))
    b0, b1 = phi(x, y, complex(-h))
    c0, c1 = phi(x, y, complex(2 * h))
    d0, d1 = phi(x, y, complex(-2 * h))
    return ((8 * (a0 - b0) - (c0 - d0)) / (12 * h), (8 * (a1 - b1) - (c1 - d1)) / (12 * h))


def verify_pde(flow: ClosedFormFlow, field: RatVF, samples: Iterable) -> VerificationRecord:
    """Residual of u_x (w - x) + u_y (r - y) + u = 0 for both flow components.

    u and v are the components of the time-1 map and w . r is the vector
    field; spatial partials are central finite differences.
    """
    h = DIFFERENCE_STEP
    phi, evaluate, one = flow.time_map, field.evaluator(), complex(1.0)

    def residuals():
        for p in samples:
            x, y = complex(p[0]), complex(p[1])
            w, r = evaluate(x, y)
            f0 = phi(x, y, one)
            fxp = phi(x + h, y, one)
            fxm = phi(x - h, y, one)
            fyp = phi(x, y + h, one)
            fym = phi(x, y - h, one)
            yield [
                abs(
                    (fxp[c] - fxm[c]) / (2 * h) * (w - x)  # u_x (w - x)
                    + (fyp[c] - fym[c]) / (2 * h) * (r - y)  # u_y (r - y)
                    + f0[c]
                )
                for c in (0, 1)
            ], (x, y)

    return VerificationRecord(flow.label, "pde", *residual_sup(residuals()))


def _rk4_points(field: RatVF, start, t_end: float, steps: int):
    """The points of integrate_trajectory, yielded as each step ends."""
    if steps < 1:
        raise ValueError("steps must be positive")
    h = t_end / steps
    evaluate, lx, ly = field.evaluator(), field.lx, field.ly

    def guarded(x, y, step_index):
        if (lx and abs(x) < SINGULAR_DISTANCE) or (ly and abs(y) < SINGULAR_DISTANCE):
            raise SingularityApproachError((x, y), step_index)
        return evaluate(x, y)

    x, y = complex(start[0]), complex(start[1])
    yield x, y
    for step in range(steps):
        k1x, k1y = guarded(x, y, step)
        k2x, k2y = guarded(x + 0.5 * h * k1x, y + 0.5 * h * k1y, step)
        k3x, k3y = guarded(x + 0.5 * h * k2x, y + 0.5 * h * k2y, step)
        k4x, k4y = guarded(x + h * k3x, y + h * k3y, step)
        x = x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6
        y = y + h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6
        yield x, y


def integrate_trajectory(
    field: RatVF, start, t_end: float, steps: int
) -> list[tuple[complex, complex]]:
    """Classical fixed-step RK4 along the field, aborting near singularities.

    Raises SingularityApproachError as soon as a stage point comes within
    SINGULAR_DISTANCE of the vanishing locus of the denominator.
    """
    return list(_rk4_points(field, start, t_end, steps))


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


def orbit_residual(orbit: OrbitFunction, path: Iterable) -> float:
    """Max relative drift of the orbit function along a trajectory, read point by point."""
    points = iter(path)
    start = next(points, None)
    if start is None:
        raise ValueError("empty trajectory")
    ref = orbit.evaluate(start)
    if ref == 0:
        raise SingularPointError("orbit function vanishes at the start point")
    pairs = (((abs(orbit.evaluate(p) - ref),), None) for p in chain((start,), points))
    return residual_sup(pairs)[1] / abs(ref)


def verify_orbit_ode(orbit: OrbitFunction, field: RatVF, samples: Iterable) -> VerificationRecord:
    """Residual of W * r + W_x * (y*w - x*r) = 0 with W_x by central differences."""
    h = DIFFERENCE_STEP
    evaluate = field.evaluator()

    def residuals():
        for p in samples:
            x, y = complex(p[0]), complex(p[1])
            w, r = evaluate(x, y)
            wval = orbit.evaluate((x, y))
            wx = (orbit.evaluate((x + h, y)) - orbit.evaluate((x - h, y))) / (2 * h)
            yield (abs(wval * r + wx * (y * w - x * r)),), (x, y)

    return VerificationRecord(orbit.kind, "orbit_ode", *residual_sup(residuals()))


# -- the acceptance checks: seeded draws held to their tolerances ------------


def check_translation(flow: ClosedFormFlow, rng, n: int) -> VerificationRecord:
    """Translation identity at n drawn (p, t, s); the rational flows must hold to 1e-10."""
    triples = (
        (flow.sample_point(rng), flow.sample_time(rng), flow.sample_time(rng))
        for _ in range(n)
    )
    tol = 1e-10 if flow.family in ("parabolic", "level0") else 1e-9
    return replace(verify_translation(flow, triples), tol=tol)


def check_pde(flow: ClosedFormFlow, rng, n: int) -> list[VerificationRecord]:
    """The flow PDE at n drawn points; then, at n more, the extracted field vs the exact one.

    A point where the extracted and the exact field are both exactly zero
    checks nothing, so the extraction record does not count it.
    """
    field = flow.vector_field()
    pde = verify_pde(flow, field, (flow.sample_point(rng) for _ in range(n)))
    evaluate = field.evaluator()

    def residuals():
        for _ in range(n):
            p = flow.sample_point(rng)
            fd = extract_vector_field(flow, p)
            ex, ey = evaluate(complex(p[0]), complex(p[1]))
            if not (fd[0] or fd[1] or ex or ey):
                continue
            scale = max(1.0, max(abs(ex), abs(ey)))
            # division by scale > 0 is monotone: the same sup as dividing the component max
            yield (abs(fd[0] - ex) / scale, abs(fd[1] - ey) / scale), p

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
        drift = orbit_residual(orbit, _rk4_points(field, (1.0, 1.0), t_end, steps))
        records.append(
            VerificationRecord(kind, "orbit_conservation", steps, drift, None, drift_tol)
        )
        points = ((rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)) for _ in range(n))
        records.append(replace(verify_orbit_ode(orbit, field, points), tol=1e-6))
    return records
