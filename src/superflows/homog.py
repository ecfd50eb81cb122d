"""Homogeneous bivariate polynomials and 2-homogeneous rational vector fields.

A HomPoly of degree d stores the coefficient of x^i y^(d-i) at index i.  A
RatVF is a pair of numerators over one shared monomial denominator
x^lx y^ly, with numerator degree minus lx minus ly equal to 2, so both
components are 2-homogeneous rational functions.

Construction always cancels the monomial gcd between numerators and
denominator, so representations are canonical up to a scalar;
RatVF.normalized() additionally scales the first nonzero coefficient (in lex
order, first component before second, ascending power of x) to one.  The
zero field is kept as an explicit object and never normalized.

Everything in this module is exact; floating point appears only in the
eval_* helpers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .cyclotomic import CycNum, as_cycnum
from .errors import NonMonomialDenominatorError, SingularPointError
from .matgroup import Mat2

__all__ = ["HomPoly", "RatVF", "common_denominator", "monomial_field", "reynolds_average"]


class HomPoly:
    """A homogeneous polynomial in x, y with CycNum coefficients."""

    __slots__ = ("degree", "coeffs", "_embedded")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(c if c.__class__ is CycNum else as_cycnum(c) for c in coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_embedded", None)

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    @staticmethod
    def zero(degree: int) -> "HomPoly":
        return HomPoly(degree, [CycNum.zero()] * (degree + 1))

    @staticmethod
    def monomial(degree: int, i: int, coeff=1) -> "HomPoly":
        vec = [CycNum.zero()] * (degree + 1)
        vec[i] = as_cycnum(coeff)
        return HomPoly(degree, vec)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return self.degree == other.degree and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomPoly(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HomPoly(self.degree, [-c for c in self.coeffs])

    def scale(self, factor) -> "HomPoly":
        f = as_cycnum(factor)
        return HomPoly(self.degree, [c * f for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        out = [CycNum.zero() for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return HomPoly(self.degree + other.degree, out)

    def min_exponents(self):
        """(min power of x, min power of y) over nonzero monomials; None if zero."""
        idx = [i for i, c in enumerate(self.coeffs) if not c.is_zero()]
        if not idx:
            return None
        return (min(idx), min(self.degree - i for i in idx))

    def divide_monomial(self, dx: int, dy: int) -> "HomPoly":
        """Exact division by x^dx y^dy (every nonzero term must be divisible)."""
        me = self.min_exponents()
        if me is not None and (me[0] < dx or me[1] < dy):
            raise ValueError("polynomial is not divisible by the monomial")
        deg = self.degree - dx - dy
        return HomPoly(deg, [self.coeffs[i + dx] for i in range(deg + 1)])

    def compose_linear(self, a, b, c, d) -> "HomPoly":
        """P(a*x + b*y, c*x + d*y), exact."""
        a, b, c, d = (as_cycnum(v) for v in (a, b, c, d))
        deg = self.degree
        row1 = HomPoly(1, [b, a])
        row2 = HomPoly(1, [d, c])
        pow1 = [HomPoly(0, [1])]
        pow2 = [HomPoly(0, [1])]
        for _ in range(deg):
            pow1.append(pow1[-1] * row1)
            pow2.append(pow2[-1] * row2)
        total = HomPoly.zero(deg)
        for i, u in enumerate(self.coeffs):
            if not u.is_zero():
                total = total + (pow1[i] * pow2[deg - i]).scale(u)
        return total

    def embedded_coeffs(self):
        if self._embedded is None:
            object.__setattr__(self, "_embedded", tuple(c.embed() for c in self.coeffs))
        return self._embedded

    def to_text(self) -> str:
        terms = [
            "{%s}*x^%d*y^%d" % (c.to_text(), i, self.degree - i)
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"HomPoly({self.to_text()})"


_POLY_TERM_RE = re.compile(r"\{([^}]*)\}\*x\^(\d+)\*y\^(\d+)")


def _parse_poly(text: str):
    """Parse the exact to_text() form; returns (degree, {i: CycNum})."""
    text = text.strip()
    if text == "0":
        return None
    # coefficient text may itself contain " + ", so match whole terms and
    # require them to tile the input
    matches = list(_POLY_TERM_RE.finditer(text))
    if " + ".join(m.group(0) for m in matches) != text:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms = {}
    degree = None
    for m in matches:
        coeff = CycNum.parse(m.group(1))
        i, j = int(m.group(2)), int(m.group(3))
        if degree is None:
            degree = i + j
        elif degree != i + j:
            raise ValueError("terms are not homogeneous of one degree")
        terms[i] = terms.get(i, CycNum.zero()) + coeff
    return degree, terms


class RatVF:
    """A 2-homogeneous rational vector field P/x^lx y^ly . Q/x^lx y^ly.

    The shared denominator is a monomial; general relative-invariant
    denominators are out of scope because the minimal non-monomial
    candidates have far higher degree than anything the decision procedure
    scans.  The constructor cancels the monomial gcd, so (lx, ly) is minimal
    for the stored numerators, and the zero field is the canonical pair of
    zero numerators over denominator 1.
    """

    __slots__ = ("num_x", "num_y", "lx", "ly")

    def __init__(self, num_x: HomPoly, num_y: HomPoly, lx: int = 0, ly: int = 0):
        if lx < 0 or ly < 0:
            raise ValueError("denominator exponents must be non-negative")
        if num_x.degree != num_y.degree:
            raise ValueError("numerators must share one degree")
        if num_x.degree - lx - ly != 2:
            raise ValueError("components must be 2-homogeneous")
        if num_x.is_zero() and num_y.is_zero():
            num_x = num_y = HomPoly.zero(2)
            lx = ly = 0
        else:
            mex = num_x.min_exponents()
            mey = num_y.min_exponents()
            big = num_x.degree
            cancel_x = min(lx, mex[0] if mex else big, mey[0] if mey else big)
            cancel_y = min(ly, mex[1] if mex else big, mey[1] if mey else big)
            if cancel_x or cancel_y:
                num_x = num_x.divide_monomial(cancel_x, cancel_y)
                num_y = num_y.divide_monomial(cancel_x, cancel_y)
                lx -= cancel_x
                ly -= cancel_y
        object.__setattr__(self, "num_x", num_x)
        object.__setattr__(self, "num_y", num_y)
        object.__setattr__(self, "lx", lx)
        object.__setattr__(self, "ly", ly)

    def __setattr__(self, name, value):
        raise AttributeError("RatVF is immutable")

    @staticmethod
    def _raw(num_x: HomPoly, num_y: HomPoly, lx: int, ly: int) -> "RatVF":
        """A field whose numerators are already canonical over x^lx y^ly."""
        obj = object.__new__(RatVF)
        object.__setattr__(obj, "num_x", num_x)
        object.__setattr__(obj, "num_y", num_y)
        object.__setattr__(obj, "lx", lx)
        object.__setattr__(obj, "ly", ly)
        return obj

    @staticmethod
    def zero() -> "RatVF":
        return RatVF(HomPoly.zero(2), HomPoly.zero(2))

    @property
    def is_zero(self) -> bool:
        return self.num_x.is_zero() and self.num_y.is_zero()

    @property
    def denom_degree(self) -> int:
        return self.lx + self.ly

    def __eq__(self, other):
        if not isinstance(other, RatVF):
            return NotImplemented
        return (
            self.lx == other.lx
            and self.ly == other.ly
            and self.num_x == other.num_x
            and self.num_y == other.num_y
        )

    __hash__ = None

    def scale(self, factor) -> "RatVF":
        if self.is_zero:
            return self
        f = as_cycnum(factor)
        if f.is_zero():
            return RatVF.zero()
        return RatVF(self.num_x.scale(f), self.num_y.scale(f), self.lx, self.ly)

    @staticmethod
    def sum(fields) -> "RatVF":
        """The exact sum of fields, with one cancellation for the whole sum.

        Zero fields are skipped and a lone nonzero field comes back as it is.
        Otherwise every field is written over their common denominator, and
        each coefficient slot is one CycNum.sum of its column, so the orders
        match a pairwise + fold.
        """
        fields = [f for f in fields if not f.is_zero]
        if len(fields) < 2:
            return fields[0] if fields else RatVF.zero()
        lx, ly, vectors = common_denominator(fields)
        total = [CycNum.sum(col) for col in zip(*vectors)]
        deg = lx + ly + 2
        return RatVF(HomPoly(deg, total[: deg + 1]), HomPoly(deg, total[deg + 1 :]), lx, ly)

    def __add__(self, other):
        if not isinstance(other, RatVF):
            return NotImplemented
        return RatVF.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, RatVF):
            return NotImplemented
        return self + other.scale(-1)

    def leading_coeff(self) -> CycNum:
        """First nonzero coefficient in lex order (num_x then num_y, ascending i)."""
        for poly in (self.num_x, self.num_y):
            for c in poly.coeffs:
                if not c.is_zero():
                    return c
        raise ValueError("zero field has no leading coefficient")

    def normalized(self) -> "RatVF":
        """Scalar-canonical form: leading coefficient scaled to one.

        A leading 1 whose order divides every coefficient's order returns
        self: scaling by it would keep every value, order and key.  A leading
        1 of any other order still scales, to relabel the other coefficients.
        """
        if self.is_zero:
            return self
        lead = self.leading_coeff()
        if lead == 1 and all(
            c.order % lead.order == 0 for poly in (self.num_x, self.num_y) for c in poly.coeffs
        ):
            return self
        return self.scale(lead.inverse())

    # -- numerics ----------------------------------------------------------

    def eval_field(self, point):
        """Numeric value at a complex 2-vector; raises on the denominator locus.

        Both numerators read one table of x^i and one of y^j per point.
        """
        x, y = complex(point[0]), complex(point[1])
        denom = 1 + 0j
        if self.lx:
            if x == 0:
                raise SingularPointError("denominator vanishes: x = 0")
            denom *= x ** self.lx
        if self.ly:
            if y == 0:
                raise SingularPointError("denominator vanishes: y = 0")
            denom *= y ** self.ly
        xpows, ypows = [1 + 0j], [1 + 0j]
        for _ in range(self.num_x.degree):
            xpows.append(xpows[-1] * x)
            ypows.append(ypows[-1] * y)
        fx = fy = 0j
        for cx, cy, xp, yp in zip(
            self.num_x.embedded_coeffs(), self.num_y.embedded_coeffs(), xpows, reversed(ypows)
        ):
            if cx:
                fx += cx * xp * yp
            if cy:
                fy += cy * xp * yp
        return fx / denom, fy / denom

    # -- group action ------------------------------------------------------

    def conjugate(self, L: Mat2) -> "RatVF":
        """Exact L^(-1) o V o L.

        A diagonal or antidiagonal L, whatever the denominator, takes the
        monomial branch: each coefficient is multiplied by one factor from a
        running product, and an antidiagonal L also reverses the coefficients
        and swaps the denominator exponents.  The factors depend only on L
        and the field's shape (numerator degree, lx), so L builds them once
        per shape, in its `_factors` slot, and every later field of that
        shape reuses them.  The factors are nonzero, so the image keeps the
        support and the cancelled denominator of this field: a zero
        coefficient is multiplied by nothing, and the image is not rescanned.
        Any other invertible L needs a trivial denominator and takes the
        generic branch, which substitutes L into the numerators with
        HomPoly.compose_linear; with a nontrivial denominator the image
        denominator would not be a monomial, and NonMonomialDenominatorError
        is raised.
        """
        diagonal = L.is_diagonal()
        if diagonal or L.is_antidiagonal():
            s, t = (L.a, L.d) if diagonal else (L.b, L.c)
            if s.is_zero() or t.is_zero():
                raise ZeroDivisionError("conjugating matrix is singular")
            if self.is_zero:
                return self
            deg, lx, ly = self.num_x.degree, self.lx, self.ly
            # e[k] = s^(k-lx-1) t^(deg-k-ly) for 0 <= k <= deg+1.  For
            # L = diag(s, t) the coefficients of x^i y^(deg-i) map as
            # u_i -> u_i e[i] and v_i -> v_i e[i+1].  For L = antidiag(s, t),
            # x -> s*y and y -> t*x, so u_i -> u_i e[i] lands in the second
            # component and v_i -> v_i e[i+1] in the first, both at the
            # x^(deg-i) y^i slot.  e[lx+1] = t, and e steps by s/t upward.
            # ly = deg - lx - 2, so (deg, lx) fixes e; L keeps it.
            if L._factors is None:
                object.__setattr__(L, "_factors", {})
            e = L._factors.get((deg, lx))
            if e is None:
                down, up = t * s.inverse(), s * t.inverse()
                e = [t]
                for _ in range(lx + 1):
                    e.append(e[-1] * down)
                e.reverse()
                for _ in range(deg - lx):
                    e.append(e[-1] * up)
                e = L._factors[deg, lx] = tuple(e)
            # a zero slot gets the zero that the full product would label
            cx = [CycNum.zero(math.lcm(u.order, f.order)) if u.is_zero() else u * f
                  for u, f in zip(self.num_x.coeffs, e)]
            cy = [CycNum.zero(math.lcm(v.order, f.order)) if v.is_zero() else v * f
                  for v, f in zip(self.num_y.coeffs, e[1:])]
            if diagonal:
                return RatVF._raw(HomPoly(deg, cx), HomPoly(deg, cy), lx, ly)
            return RatVF._raw(HomPoly(deg, cy[::-1]), HomPoly(deg, cx[::-1]), ly, lx)
        det = L.det()
        if det.is_zero():
            raise ZeroDivisionError("conjugating matrix is singular")
        if self.is_zero:
            return self
        if self.lx or self.ly:
            raise NonMonomialDenominatorError(
                "conjugation image denominator is not monomial: matrix is neither "
                "diagonal nor antidiagonal and the field has a nontrivial denominator"
            )
        px = self.num_x.compose_linear(L.a, L.b, L.c, L.d)
        qy = self.num_y.compose_linear(L.a, L.b, L.c, L.d)
        dinv = det.inverse()
        new_x = (px.scale(L.d) - qy.scale(L.b)).scale(dinv)
        new_y = (qy.scale(L.a) - px.scale(L.c)).scale(dinv)
        return RatVF(new_x, new_y, 0, 0)

    # -- text form ---------------------------------------------------------

    def _denom_text(self) -> str:
        return f"x^{self.lx}*y^{self.ly}"

    def to_text(self) -> str:
        """Exact round-trip form "P / x^a*y^b . Q / x^a*y^b" (bullet separator)."""
        def comp(poly):
            body = poly.to_text()
            if poly.is_zero() or (self.lx == 0 and self.ly == 0):
                return body
            return f"{body} / {self._denom_text()}"

        return f"{comp(self.num_x)} • {comp(self.num_y)}"

    @staticmethod
    def parse(text: str) -> "RatVF":
        halves = text.split("•")
        if len(halves) != 2:
            raise ValueError("expected exactly one bullet separator")
        parsed = []
        denoms = []
        for half in halves:
            half = half.strip()
            num_text, slash, denom_text = half.rpartition(" / ")
            if slash:
                m = re.fullmatch(r"x\^(\d+)\*y\^(\d+)", denom_text.strip())
                if not m:
                    raise ValueError(f"cannot parse denominator {denom_text!r}")
                denoms.append((int(m.group(1)), int(m.group(2))))
                half = num_text.strip()
            parsed.append(_parse_poly(half))
        if denoms and len(set(denoms)) > 1:
            raise ValueError("components must share one denominator")
        lx, ly = denoms[0] if denoms else (0, 0)
        deg = lx + ly + 2
        polys = []
        for p in parsed:
            if p is None:
                polys.append(HomPoly.zero(deg))
                continue
            pdeg, terms = p
            if pdeg != deg:
                raise ValueError("numerator degree does not match the denominator")
            vec = [terms.get(i, CycNum.zero()) for i in range(deg + 1)]
            polys.append(HomPoly(deg, vec))
        return RatVF(polys[0], polys[1], lx, ly)

    def pretty(self) -> str:
        """Human-oriented rendering such as "y^4/x^2 . 0" or "x^2+xy+y^2 . xy+y^2"."""
        def var(sym, e):
            if e == 0:
                return ""
            return sym if e == 1 else f"{sym}^{e}"

        def comp(poly):
            if poly.is_zero():
                return "0"
            pieces = []
            for i in range(poly.degree, -1, -1):
                c = poly.coeffs[i]
                if c.is_zero():
                    continue
                mono = var("x", i) + var("y", poly.degree - i)
                if c == 1 and mono:
                    coeff = ""
                elif c == -1 and mono:
                    coeff = "-"
                elif c.is_rational():
                    q = c.as_fraction()
                    coeff = f"({q})" if q.denominator != 1 else str(q)
                else:
                    coeff = "[" + c.to_text() + "]"
                pieces.append((coeff + mono) if mono else (coeff or "1"))
            body = "+".join(pieces).replace("+-", "-")
            denom = var("x", self.lx) + var("y", self.ly)
            if denom:
                if len(pieces) > 1:
                    body = f"({body})"
                return f"{body}/{denom}"
            return body

        return f"{comp(self.num_x)} • {comp(self.num_y)}"

    def __repr__(self):
        return f"RatVF({self.pretty()})"


def common_denominator(fields) -> tuple[int, int, list[tuple]]:
    """(lx, ly, vectors): the fields written over x^max(lx) y^max(ly).

    Each vector holds one field's numerator coefficients over that
    denominator, the first component's then the second's, so all vectors
    have length 2 (lx + ly + 3).
    """
    lx, ly = max(f.lx for f in fields), max(f.ly for f in fields)
    pad = CycNum.zero()
    vectors = []
    for f in fields:
        left, right = (pad,) * (lx - f.lx), (pad,) * (ly - f.ly)
        vectors.append(left + f.num_x.coeffs + right + left + f.num_y.coeffs + right)
    return lx, ly, vectors


def monomial_field(component: int, i: int, lx: int, ly: int, coeff=1) -> RatVF:
    """The basis field with x^i y^(lx+ly+2-i) / x^lx y^ly in one component."""
    if component not in (0, 1):
        raise ValueError("component must be 0 (first) or 1 (second)")
    deg = lx + ly + 2
    if not 0 <= i <= deg:
        raise ValueError("monomial index out of range")
    num = HomPoly.monomial(deg, i, coeff)
    zero = HomPoly.zero(deg)
    if component == 0:
        return RatVF(num, zero, lx, ly)
    return RatVF(zero, num, lx, ly)


def reynolds_average(group, field: RatVF) -> RatVF:
    """The exact group average (1/|G|) sum of g^(-1) o V o g over g in G.

    The result is invariant under conjugation by every group element and the
    operator is idempotent.  A vanishing average comes back as the explicit
    zero field.
    """
    return RatVF.sum(field.conjugate(g) for g in group).scale(Fraction(1, len(group)))
