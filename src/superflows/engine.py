"""Decision procedure for superflows of monomial groups.

A vector field is a superflow candidate for a group G when it is invariant
under conjugation by every element of G and, among invariant fields, its
common-denominator degree is minimal and the invariant space at that degree
is one-dimensional.  The engine scans denominator degrees upward and stops
at the first degree with invariant fields.

The groups here are monomial, and the scan reads them in the exponent form
of matgroup.MonomialGroup, n = lcm(2, conductor).  diag(zeta_n^s, zeta_n^t)
multiplies the Laurent monomial field x^a y^(2-a) by zeta_n to an integer
linear form in a: (a-1)s + (2-a)t in the first component, as + (1-a)t in
the second.  A monomial survives when that form is 0 mod n on generators of
the diagonal subgroup, so the scan is integer arithmetic and builds no
matrix.  Denominator degree D holds the exponents a = -D and a = D+2
(a = 0, 1, 2 at D = 0), so degrees 0..ceil(n/2) cover every residue of a
mod n: a "none" after that scan is a proof, and a scan that the caller's
bound cut short says so.  An antidiagonal w = [[0, zeta_n^s], [zeta_n^t, 0]]
maps a monomial m to zeta_n^e x^(2-a) y^a in the other component, e the
same form at (s, t), and the invariant fields are then spanned by m + w.m
over the survivors.

The generic scan by Reynolds averaging (method "reynolds") shares none of
this and is kept as the independent oracle of the tests and the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum
from .homog import RatVF, HomPoly, monomial_field, reynolds_average
from .matgroup import FiniteMatrixGroup, MonomialGroup, alpha_group

__all__ = [
    "SuperflowVerdict",
    "ClassifyRow",
    "invariant_space",
    "find_superflow",
    "classify_alpha",
]


def _exponent_form(group) -> MonomialGroup:
    """The group as a MonomialGroup; a FiniteMatrixGroup is read from its generators."""
    if isinstance(group, MonomialGroup):
        return group
    return MonomialGroup.from_matrices(group.generators)


def _exponent(component: int, a: int, s: int, t: int) -> int:
    """e with diag(zeta^s, zeta^t) taking x^a y^(2-a) in `component` to zeta^e times itself."""
    return (a - 1) * s + (2 - a) * t if component == 0 else a * s + (1 - a) * t


class _Characters:
    """The integer data of the character scan for one monomial group.

    n = lcm(2, conductor) is the order of the roots of unity in the group's
    field and `logs` holds (s, t) for generators of the diagonal subgroup.
    """

    def __init__(self, group: MonomialGroup):
        self.group = group
        self.n = group.n
        self.logs = group.diagonal_logs()

    def survives(self, component: int, a: int) -> bool:
        """Whether x^a y^(2-a) in `component` is fixed by every diagonal element."""
        n = self.n
        return all(_exponent(component, a, s, t) % n == 0 for s, t in self.logs)

    def basis(self, monomials) -> list[RatVF]:
        """Basis of the invariant fields spanned by the surviving monomials.

        `monomials` yields (component, a, lx, ly): x^a y^(2-a) in `component`,
        written over x^lx y^ly.  With a swap in the group, each survivor m
        becomes m + w.m.
        """
        swap = self.group.swap
        fields = []
        for component, a, lx, ly in monomials:
            if not self.survives(component, a):
                continue
            field = monomial_field(component, a + lx, lx, ly)
            if swap is not None:
                image = self.group.root(_exponent(component, a, swap[1], swap[2]))
                field = field + _laurent_monomial(1 - component, 2 - a, image)
            fields.append(field)
        return _eliminate(fields)

    def degree_basis(self, deg: int) -> list[RatVF]:
        """Basis of the invariant fields whose monomials have denominator degree deg."""
        exponents = (0, 1, 2) if deg == 0 else (-deg, deg + 2)
        return self.basis(
            (component, a, max(-a, 0), max(a - 2, 0))
            for component in (0, 1)
            for a in exponents
        )


def _laurent_monomial(component: int, a: int, coeff=1) -> RatVF:
    """coeff x^a y^(2-a) in one component, over its minimal monomial denominator."""
    lx, ly = max(-a, 0), max(a - 2, 0)
    return monomial_field(component, a + lx, lx, ly, coeff)


def _eliminate(fields: list[RatVF]) -> list[RatVF]:
    """Exact reduced-row-echelon basis, as canonical normalized fields.

    Fields are embedded into the coordinate space of a common monomial
    denominator; the output depends only on the span.
    """
    fields = [f for f in fields if not f.is_zero]
    if not fields:
        return []
    lx = max(f.lx for f in fields)
    ly = max(f.ly for f in fields)
    deg = lx + ly + 2
    width = 2 * (deg + 1)

    rows: list[tuple[int, list[CycNum]]] = []  # (pivot column, unit-pivot row)
    for f in fields:
        fx = f.num_x.shift(lx - f.lx, ly - f.ly)
        fy = f.num_y.shift(lx - f.lx, ly - f.ly)
        vec = list(fx.coeffs) + list(fy.coeffs)
        for col, prow in rows:
            if not vec[col].is_zero():
                factor = vec[col]
                vec = [v - factor * p for v, p in zip(vec, prow)]
        pivot = next((j for j in range(width) if not vec[j].is_zero()), None)
        if pivot is None:
            continue
        inv = vec[pivot].inverse()
        vec = [v * inv for v in vec]
        for idx, (col, prow) in enumerate(rows):
            if not prow[pivot].is_zero():
                factor = prow[pivot]
                rows[idx] = (col, [p - factor * v for p, v in zip(prow, vec)])
        rows.append((pivot, vec))
    rows.sort(key=lambda item: item[0])

    basis = []
    for _, vec in rows:
        nx = HomPoly(deg, vec[: deg + 1])
        ny = HomPoly(deg, vec[deg + 1 :])
        basis.append(RatVF(nx, ny, lx, ly).normalized())
    return basis


def invariant_space(
    group: FiniteMatrixGroup, lx: int, ly: int, method: str = "auto"
) -> list[RatVF]:
    """Exact basis of the group averages of the monomial fields over x^lx y^ly.

    For a diagonal group that is the space of invariant fields with that
    denominator.  method "character" (or "auto") keeps the monomials that
    pass the integer character test and, when the group has an antidiagonal
    element w, pairs each survivor m with w.m; "reynolds" averages every
    monomial field over the whole group.
    """
    monomial = _exponent_form(group)
    if lx < 0 or ly < 0:
        raise ValueError("denominator exponents must be non-negative")
    deg = lx + ly + 2
    if method in ("auto", "character"):
        return _Characters(monomial).basis(
            (component, i - lx, lx, ly) for component in (0, 1) for i in range(deg + 1)
        )
    if method != "reynolds":
        raise ValueError(f"unknown method {method!r}")
    averages = [
        reynolds_average(group, monomial_field(component, i, lx, ly))
        for component in (0, 1)
        for i in range(deg + 1)
    ]
    return _eliminate(averages)


@dataclass(frozen=True)
class SuperflowVerdict:
    """Outcome of the minimal-denominator invariant-field search.

    status "superflow" means the first denominator degree with invariant
    fields carries a one-dimensional space (field holds its canonical
    generator); "not_unique" means that space has dimension >= 2; "none"
    means no degree has invariant fields.  A "none" is proved by -I in the
    group (shortcut_used) or by a scan over one period of monomials; when
    the caller's bound stopped the scan earlier, scan_bound is the last
    degree scanned and the "none" holds only up to it.
    """

    status: str
    field: RatVF | None
    denom_degree: int | None
    dimension: int
    shortcut_used: bool = False
    scan_bound: int | None = None

    def describe(self) -> str:
        if self.status == "superflow":
            return (
                f"superflow: {self.field.pretty()}, denom degree {self.denom_degree}"
            )
        if self.status == "not_unique":
            return (
                f"not unique: {self.dimension}-dimensional invariant space at "
                f"denom degree {self.denom_degree}"
            )
        if self.scan_bound is not None:
            return f"none up to denom degree {self.scan_bound}"
        via = "minus-identity shortcut" if self.shortcut_used else "degree scan"
        return f"none ({via})"


def find_superflow(
    group: FiniteMatrixGroup,
    max_denom_degree: int | None = None,
    minus_i_shortcut: bool = True,
    method: str = "auto",
) -> SuperflowVerdict:
    """Scan denominator degrees upward and report the first nonzero space.

    The scan ends at degree ceil(n/2), n = lcm(2, conductor), where every
    residue of the monomial exponent has been seen, or earlier at
    max_denom_degree.  When -I belongs to the group, conjugation negates
    every 2-homogeneous field, so the verdict is "none" without scanning;
    pass minus_i_shortcut=False to force the scan (the two must agree).
    method "auto" and "character" scan with integer characters; "reynolds"
    merges the averaged spaces over every denominator x^l y^(deg-l) at each
    degree, the independent oracle.
    """
    monomial = _exponent_form(group)
    if minus_i_shortcut and group.has_minus_identity():
        return SuperflowVerdict("none", None, None, 0, shortcut_used=True)
    period_degree = monomial.n // 2
    last = period_degree if max_denom_degree is None else min(max_denom_degree, period_degree)
    if method in ("auto", "character"):
        space_at = _Characters(monomial).degree_basis
    elif method == "reynolds":
        def space_at(deg):
            return _eliminate(
                [f for lx in range(deg + 1) for f in invariant_space(group, lx, deg - lx, method)]
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    for deg in range(last + 1):
        basis = space_at(deg)
        if basis:
            if len(basis) == 1:
                return SuperflowVerdict("superflow", basis[0], deg, 1)
            return SuperflowVerdict("not_unique", None, deg, len(basis))
    bound = last if last < period_degree else None
    return SuperflowVerdict("none", None, None, 0, scan_bound=bound)


@dataclass(frozen=True)
class ClassifyRow:
    m: int
    group_order: int
    status: str
    denom_degree: int | None
    field: RatVF | None
    reduction: int | None  # for m = 2 mod 4, the odd order it reduces to

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "group_order": self.group_order,
            "status": self.status,
            "denom_degree": self.denom_degree,
            "field": self.field.to_text() if self.field else None,
            "field_pretty": self.field.pretty() if self.field else None,
            "reduction": self.reduction,
        }


def classify_alpha(m_lo: int, m_hi: int, method: str = "auto") -> list[ClassifyRow]:
    """One verdict row per m in [m_lo, m_hi] for the groups <alpha(m)>."""
    if not 3 <= m_lo <= m_hi:
        raise ValueError("need 3 <= m_lo <= m_hi")
    rows = []
    for m in range(m_lo, m_hi + 1):
        group = alpha_group(m)
        verdict = find_superflow(group, method=method)
        reduction = m // 2 if m % 4 == 2 else None
        rows.append(
            ClassifyRow(
                m=m,
                group_order=group.order,
                status=verdict.status,
                denom_degree=verdict.denom_degree,
                field=verdict.field,
                reduction=reduction,
            )
        )
    return rows
