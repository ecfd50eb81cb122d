"""Decision procedure for superflows of monomial groups.

A vector field is a superflow candidate for a group G when it is invariant
under conjugation by every element of G and, among invariant fields, its
common-denominator degree is minimal and the invariant space at that degree
is one-dimensional.

The groups here are monomial, read in the exponent form of
matgroup.MonomialGroup, n = lcm(2, conductor).  diag(zeta_n^s, zeta_n^t)
multiplies the Laurent monomial field x^a y^(2-a) by zeta_n to an integer
linear form in a: (a-1)s + (2-a)t in the first component, as + (1-a)t in
the second.  The monomial survives when that form is 0 mod n on generators
of the diagonal subgroup: a(s-t) = s-2t, respectively -t (mod n).  These
congruences have no common solution, a proof of "none", or one class
a = r (mod M), solved once per component by gcd steps; the fields of least
denominator degree D(a) = max(-a, a-2, 0) are the members nearest to
{0, 1, 2}.  An antidiagonal w = [[0, zeta_n^s], [zeta_n^t, 0]] maps a
monomial m to zeta_n^e x^(2-a) y^a in the other component, e the same form
at (s, t), and the invariant fields are then spanned by m + w.m.

The generic scan by Reynolds averaging (method "reynolds") shares none of
this and is kept as the independent oracle of the tests and the benchmark.
It averages each Laurent monomial field once: the space at degree D is
spanned by the averages of x^a y^(2-a) for -D <= a <= D+2, so each degree
adds two monomials per component to those of the degree below.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .cyclotomic import CycNum
from .homog import RatVF, reynolds_average
from .matgroup import FiniteMatrixGroup, MonomialGroup, alpha_group

__all__ = [
    "SuperflowVerdict",
    "invariant_space",
    "find_superflow",
    "classify_alpha",
]


def _exponent(component: int, a: int, s: int, t: int) -> int:
    """e with diag(zeta^s, zeta^t) taking x^a y^(2-a) in `component` to zeta^e times itself."""
    return (a - 1) * s + (2 - a) * t if component == 0 else a * s + (1 - a) * t


def _survivor_class(group: MonomialGroup, component: int):
    """None, or (r, M): every diagonal element fixes x^a y^(2-a) in `component` iff a = r (mod M).

    e(a) = (s - t) a + e(0), so diag(zeta^s, zeta^t) fixes the monomial iff
    c a = d (mod n), c = s - t and d = -e(0).  On the class so far,
    a = r + M k, that reads (cM) k = d - c r (mod n): solvable iff
    g = gcd(cM, n) divides d - c r, and then k is one class mod n/g.
    """
    n, r, M = group.n, 0, 1
    for s, t in group.diagonal_logs:
        c, d = s - t, -_exponent(component, 0, s, t)
        g = math.gcd(c * M, n)
        if (d - c * r) % g:
            return None
        k = (d - c * r) // g * pow(c * M // g, -1, n // g)
        r, M = (r + M * k) % (M * n // g), M * n // g
    return r, M


def _least_survivors(group: MonomialGroup):
    """(D, [(component, a), ...]): the surviving monomials of least degree D, or (None, []).

    x^a y^(2-a) has denominator degree D(a) = max(-a, a-2, 0), least at the
    members of a = r (mod M) nearest to {0, 1, 2}; with 0 <= r < M, those lie
    among r - M, r, r + M and r + 2M.
    """
    members = []
    for component in (0, 1):
        solved = _survivor_class(group, component)
        if solved is not None:
            r, M = solved
            members += [(max(-a, a - 2, 0), component, a)
                        for a in (r - M, r, r + M, r + 2 * M)]
    degree = min((d for d, _, _ in members), default=None)
    return degree, [(component, a) for d, component, a in members if d == degree]


def _subtract(row: dict, factor: CycNum, other: dict) -> dict:
    """row - factor * other over (component, a), without the keys that cancel."""
    out = dict(row)
    for key, p in other.items():
        v = out.get(key, CycNum.zero()) - factor * p
        if v.is_zero():
            out.pop(key, None)
        else:
            out[key] = v
    return out


def _eliminate(fields: list[RatVF]) -> list[RatVF]:
    """Exact reduced-row-echelon basis, as canonical normalized fields.

    Each field is a row over the columns (component, a), its Laurent
    monomials x^a y^(2-a), and a row's pivot is its least key: the order of
    the terms, first component first, ascending power of x.  Only nonzero
    entries are stored.  The output depends only on the span.
    """
    rows: list[tuple[tuple[int, int], dict]] = []  # (pivot column, unit-pivot row)
    for field in fields:
        vec = {(component, a): c for component, a, c in field.terms}
        for col, prow in rows:
            if col in vec:
                vec = _subtract(vec, vec[col], prow)
        if not vec:
            continue
        pivot = min(vec)
        inv = vec[pivot].inverse()
        vec = {key: v * inv for key, v in vec.items()}
        for idx, (col, prow) in enumerate(rows):
            if pivot in prow:
                rows[idx] = (col, _subtract(prow, prow[pivot], vec))
        rows.append((pivot, vec))
    rows.sort(key=lambda item: item[0])
    return [RatVF.from_terms((*key, vec[key]) for key in sorted(vec)).normalized()
            for _, vec in rows]


def invariant_space(group: FiniteMatrixGroup, lx: int, ly: int) -> list[RatVF]:
    """Exact basis of the group averages of the monomial fields over x^lx y^ly.

    For a diagonal group that is the space of invariant fields with that
    denominator.  Every monomial field is averaged over the whole group
    (Reynolds averaging), so this shares no code with the character scan.
    """
    if lx < 0 or ly < 0:
        raise ValueError("denominator exponents must be non-negative")
    averages = [
        reynolds_average(group, RatVF.monomial(component, a))
        for component in (0, 1)
        for a in range(-lx, ly + 3)
    ]
    return _eliminate(averages)


@dataclass(frozen=True)
class SuperflowVerdict:
    """Outcome of the minimal-denominator invariant-field search.

    status "superflow" means the first denominator degree with invariant
    fields carries a one-dimensional space (field holds its canonical
    generator); "not_unique" means that space has dimension >= 2; "none"
    means no degree has invariant fields.  A "none" is proved by -I in the
    group (shortcut_used) or by empty survivor classes; when the caller's
    bound is below the least degree and below n/2, scan_bound is that bound
    and the "none" holds only up to it.
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
    method: str = "character",
) -> SuperflowVerdict:
    """The invariant fields of least denominator degree, and the verdict they give.

    When -I belongs to the group, conjugation negates every 2-homogeneous
    field, so the verdict is "none" for any group.  Otherwise the group must
    be monomial.  method "character" solves each component's survivor
    congruences once and takes the class members of least degree D(a);
    "reynolds", the independent oracle, scans degrees upward and eliminates
    the group averages of every Laurent monomial x^a y^(2-a) with
    -deg <= a <= deg+2, the span of every denominator x^l y^(deg-l).
    The least degree is at most n/2, n = lcm(2, conductor), where every
    residue of a has been seen; max_denom_degree (at least 0) caps it.
    """
    if method not in ("character", "reynolds"):
        raise ValueError(f"unknown method {method!r}")
    if max_denom_degree is not None and max_denom_degree < 0:
        raise ValueError(f"max_denom_degree must be at least 0, got {max_denom_degree}")
    if group.has_minus_identity():
        return SuperflowVerdict("none", None, None, 0, shortcut_used=True)
    # the exponent form; a FiniteMatrixGroup is read from its generators
    monomial = (group if isinstance(group, MonomialGroup)
                else MonomialGroup.from_matrices(group.generators))
    period_degree = monomial.n // 2
    last = period_degree if max_denom_degree is None else min(max_denom_degree, period_degree)
    bound = last if last < period_degree else None
    if method == "reynolds":
        averages = []
        for deg in range(last + 1):
            # degree deg adds to the span only x^a y^(2-a) with a = -deg and deg + 2
            new = (0, 1, 2) if deg == 0 else (-deg, deg + 2)
            averages += [reynolds_average(group, RatVF.monomial(component, a))
                         for component in (0, 1) for a in new]
            basis = _eliminate(averages)
            if basis:
                if len(basis) == 1:
                    return SuperflowVerdict("superflow", basis[0], deg, 1)
                return SuperflowVerdict("not_unique", None, deg, len(basis))
        return SuperflowVerdict("none", None, None, 0, scan_bound=bound)
    degree, least = _least_survivors(monomial)
    if degree is None or degree > last:
        return SuperflowVerdict("none", None, None, 0, scan_bound=bound)
    swap = monomial.swap
    # with a swap, each survivor m pairs with w.m, and the pair spans one field m + w.m
    dimension = len(least) // (1 if swap is None else 2)
    if dimension > 1:
        return SuperflowVerdict("not_unique", None, degree, dimension)
    component, a = least[0]
    field = RatVF.monomial(component, a)
    if swap is not None:
        image = monomial.root(_exponent(component, a, swap[1], swap[2]))
        field = field + RatVF.monomial(1 - component, 2 - a, image)
    return SuperflowVerdict("superflow", field.normalized(), degree, 1)


def classify_alpha(m_lo: int, m_hi: int) -> Iterator[tuple[int, MonomialGroup, SuperflowVerdict]]:
    """(m, <alpha(m)>, verdict) for m in [m_lo, m_hi], decided when read; a bad range raises at once."""
    if not 3 <= m_lo <= m_hi:
        raise ValueError("need 3 <= m_lo <= m_hi")
    return ((m, group, find_superflow(group)) for m in range(m_lo, m_hi + 1) for group in [alpha_group(m)])
