"""2-homogeneous rational vector fields, stored as their nonzero Laurent terms.

A RatVF is the sorted tuple of its nonzero terms (component, a, c): c is
the coefficient of x^a y^(2-a) in the first (component 0) or the second
(component 1) component, and the terms ascend in (component, a).  The
shared monomial denominator x^lx y^ly is read off the exponents,
lx = max(0, -min a) and ly = max(0, max a - 2), so a field is canonical up
to a scalar as it is built, and the zero field is the empty tuple.  A zero
is never stored, so it carries no order label: the label of a coefficient
is the lcm of the labels of the nonzero terms summed into it.

A HomPoly of degree d holds the coefficient of x^i y^(d-i) at index i.  It
is only the dense input form: RatVF(num_x, num_y, lx, ly) reads two of
them over x^lx y^ly, so the term at index i has a = i - lx.  A single
Laurent monomial field is built by RatVF.monomial, and monomial_field
indexes the same fields by a denominator.  RatVF.normalized() scales the
first term's coefficient to one.

Everything in this module is exact; floating point appears only in a
field's evaluator.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum, as_cycnum, torsion_root
from .errors import NonMonomialDenominatorError, SingularPointError
from .matgroup import Mat2

__all__ = ["HomPoly", "RatVF", "monomial_field", "reynolds_average"]


class HomPoly:
    """A homogeneous polynomial in x, y with CycNum coefficients, dense by index."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple([c if c.__class__ is CycNum else as_cycnum(c) for c in coeffs])
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        self.degree = degree
        self.coeffs = coeffs


class RatVF:
    """A 2-homogeneous rational vector field P/x^lx y^ly . Q/x^lx y^ly.

    `terms` holds the nonzero coefficients as (component, a, c), c the
    coefficient of x^a y^(2-a), in ascending (component, a); lx and ly are
    the least exponents that clear every term.  The shared denominator is a
    monomial; general relative-invariant denominators are out of scope
    because the minimal non-monomial candidates have far higher degree than
    anything the decision procedure scans.
    """

    __slots__ = ("terms", "lx", "ly", "_evaluator")

    def __init__(self, num_x: HomPoly, num_y: HomPoly, lx: int = 0, ly: int = 0):
        if lx < 0 or ly < 0:
            raise ValueError("denominator exponents must be non-negative")
        if num_x.degree != num_y.degree:
            raise ValueError("numerators must share one degree")
        if num_x.degree - lx - ly != 2:
            raise ValueError("components must be 2-homogeneous")
        _set_terms(self, tuple(
            (component, i - lx, c)
            for component, poly in enumerate((num_x, num_y))
            for i, c in enumerate(poly.coeffs)
            if not c.is_zero()
        ))

    def __setattr__(self, name, value):
        raise AttributeError("RatVF is immutable")

    @staticmethod
    def from_terms(terms) -> "RatVF":
        """The field with these terms: nonzero (component, a, c), one per key, in ascending (component, a)."""
        field = object.__new__(RatVF)
        _set_terms(field, tuple(terms))
        return field

    @staticmethod
    def zero() -> "RatVF":
        return RatVF.from_terms(())

    @staticmethod
    def monomial(component: int, a: int, coeff=1) -> "RatVF":
        """coeff x^a y^(2-a) in component 0 (first) or 1 (second), over its least denominator."""
        if component not in (0, 1):
            raise ValueError("component must be 0 (first) or 1 (second)")
        c = as_cycnum(coeff)
        return RatVF.from_terms(((component, a, c),) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RatVF):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def scale(self, factor) -> "RatVF":
        if self.is_zero:
            return self
        f = as_cycnum(factor)
        if f.is_zero():
            return RatVF.zero()
        return RatVF.from_terms([(component, a, c * f) for component, a, c in self.terms])

    @staticmethod
    def sum(fields) -> "RatVF":
        """The exact sum of fields: one CycNum.sum per (component, a).

        Zero fields are skipped and a lone nonzero field comes back as it is.
        Otherwise each Laurent monomial's nonzero coefficients are summed in
        field order, and a total that cancels is dropped.
        """
        fields = [f for f in fields if f.terms]
        if len(fields) < 2:
            return fields[0] if fields else RatVF.zero()
        columns = {}
        for f in fields:
            for component, a, c in f.terms:
                columns.setdefault((component, a), []).append(c)
        totals = ((key, CycNum.sum(columns[key])) for key in sorted(columns))
        return RatVF.from_terms((*key, c) for key, c in totals if not c.is_zero())

    def __add__(self, other):
        if not isinstance(other, RatVF):
            return NotImplemented
        return RatVF.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, RatVF):
            return NotImplemented
        return self + other.scale(-1)

    def leading_coeff(self) -> CycNum:
        """The first term's coefficient (first component first, ascending power of x)."""
        if not self.terms:
            raise ValueError("zero field has no leading coefficient")
        return self.terms[0][2]

    def normalized(self) -> "RatVF":
        """Scalar-canonical form: leading coefficient scaled to one.

        A leading 1 whose order divides every coefficient's order returns
        self: scaling by it would keep every value, order and key.  A leading
        1 of any other order still scales, to relabel the other coefficients.
        """
        if self.is_zero:
            return self
        lead = self.leading_coeff()
        if lead == 1 and all(c.order % lead.order == 0 for _, _, c in self.terms):
            return self
        return self.scale(lead.inverse())

    # -- numerics ----------------------------------------------------------

    def eval_field(self, point):
        """Numeric value at a complex 2-vector; raises on the denominator locus."""
        return self.evaluator()(complex(point[0]), complex(point[1]))

    def evaluator(self):
        """The field's value as a function of complex x and y, built once per field."""
        if self._evaluator is None:
            object.__setattr__(self, "_evaluator", _field_evaluator(self.terms, self.lx, self.ly))
        return self._evaluator

    # -- group action ------------------------------------------------------

    def conjugate(self, L: Mat2) -> "RatVF":
        """Exact L^(-1) o V o L.

        A nonsingular diagonal or antidiagonal L, whatever the denominator,
        takes the monomial branch: `_monomial_action` gives each term's
        factor s^k t^(1-k), k = a - 1 + c, and antidiag(s, t) also sends
        the term (c, a) to (1 - c, 2 - a), which reverses the term order.
        Any other invertible L needs a trivial denominator and takes the
        generic branch, which substitutes L into the at most six terms; with
        a nontrivial denominator the image denominator would not be a
        monomial, and NonMonomialDenominatorError is raised.
        """
        action = _monomial_action(L, [a - 1 + component for component, a, _ in self.terms])
        if action is not None:
            swaps, factors = action
            terms = [(component, a, c * e) for (component, a, c), e in zip(self.terms, factors)]
            return RatVF.from_terms(_swapped(terms) if swaps else terms)
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
        # x^a y^(2-a) at (a x + b y, c x + d y) is the product of two linear
        # forms, each written (coefficient of y, coefficient of x)
        forms = ((L.d, L.c), (L.b, L.a))
        images = ([[], [], []], [[], [], []])
        for component, a, c in self.terms:
            (p0, p1), (q0, q1) = forms[a >= 1], forms[a == 2]
            for i, w in enumerate((p0 * q0, p0 * q1 + p1 * q0, p1 * q1)):
                images[component][i].append(c * w)
        px, qy = ([CycNum.sum(col) for col in image] for image in images)
        dinv = det.inverse()
        new_x = [(p * L.d - q * L.b) * dinv for p, q in zip(px, qy)]
        new_y = [(q * L.a - p * L.c) * dinv for p, q in zip(px, qy)]
        return RatVF(HomPoly(2, new_x), HomPoly(2, new_y))

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Exact output form "P / x^a*y^b . Q / x^a*y^b" (bullet separator)."""
        lx, ly = self.lx, self.ly

        def comp(component):
            body = " + ".join(
                "{%s}*x^%d*y^%d" % (c.to_text(), a + lx, 2 - a + ly)
                for k, a, c in self.terms if k == component
            )
            if not body:
                return "0"
            return f"{body} / x^{lx}*y^{ly}" if lx or ly else body

        return f"{comp(0)} • {comp(1)}"

    def pretty(self) -> str:
        """Human-oriented rendering such as "y^4/x^2 . 0" or "x^2+xy+y^2 . xy+y^2"."""
        def var(sym, e):
            if e == 0:
                return ""
            return sym if e == 1 else f"{sym}^{e}"

        def comp(component):
            pieces = []
            for k, a, c in reversed(self.terms):
                if k != component:
                    continue
                mono = var("x", a + self.lx) + var("y", 2 - a + self.ly)
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
            if not pieces:
                return "0"
            body = "+".join(pieces).replace("+-", "-")
            denom = var("x", self.lx) + var("y", self.ly)
            if denom:
                if len(pieces) > 1:
                    body = f"({body})"
                return f"{body}/{denom}"
            return body

        return f"{comp(0)} • {comp(1)}"

    def __repr__(self):
        return f"RatVF({self.pretty()})"


def _set_terms(field: RatVF, terms: tuple) -> None:
    """Store canonical terms and the least denominator x^lx y^ly that clears them."""
    exponents = [a for _, a, _ in terms] or [0]
    object.__setattr__(field, "terms", terms)
    object.__setattr__(field, "lx", max(0, -min(exponents)))
    object.__setattr__(field, "ly", max(0, max(exponents) - 2))
    object.__setattr__(field, "_evaluator", None)


def _field_evaluator(terms, lx: int, ly: int):
    """evaluate(x, y) of the field with these terms over x^lx y^ly; raises on the denominator locus.

    The denominator is 1 + 0j times x^lx, then y^ly.  Each point reads one
    table of x^i and one of y^j, each only as long as the terms need, and
    each component sums its terms in ascending i from 0j.
    """
    deg = lx + ly + 2
    plans = ([], [])  # per component: (i, j, embedded coefficient) of x^i y^j
    for component, a, c in terms:
        plans[component].append((a + lx, deg - lx - a, c.embed()))
    plan_x, plan_y = plans
    x_steps = range(max((i for plan in plans for i, _, _ in plan), default=0))
    y_steps = range(max((j for plan in plans for _, j, _ in plan), default=0))

    def evaluate(x, y):
        denom = 1 + 0j
        if lx:
            if x == 0:
                raise SingularPointError("denominator vanishes: x = 0")
            denom *= x ** lx
        if ly:
            if y == 0:
                raise SingularPointError("denominator vanishes: y = 0")
            denom *= y ** ly
        xp = yp = 1 + 0j
        xpows, ypows = [xp], [yp]
        for _ in x_steps:
            xp *= x
            xpows.append(xp)
        for _ in y_steps:
            yp *= y
            ypows.append(yp)
        fx = fy = 0j
        for i, j, c in plan_x:
            fx += c * xpows[i] * ypows[j]
        for i, j, c in plan_y:
            fy += c * xpows[i] * ypows[j]
        return fx / denom, fy / denom

    return evaluate


def _monomial_action(L: Mat2, ks):
    """(swaps, [e_k for k in ks]) for a nonsingular diagonal or antidiagonal L, else None.

    x -> s x, y -> t y (diag(s, t)) takes c x^a y^(2-a) in the first
    component to c s^(a-1) t^(2-a) x^a y^(2-a), and in the second to
    c s^a t^(1-a) x^a y^(2-a): the term (component, a) is multiplied by
    e_k = s^k t^(1-k), k = a - 1 + component.  antidiag(s, t) takes
    x -> s y and y -> t x with the same factors, and `swaps` is 1: it
    sends the term to (1 - component, 2 - a).  When L.monomial_exponents()
    holds the exponents of roots s = zeta_n^i and t = zeta_n^j, e_k is the
    root zeta_n^(j + k(i - j)), looked up with no product; otherwise it is
    the power s**k * t**(1-k).
    """
    read = L.monomial_exponents()
    if read is None:
        return None
    swaps, s, t = read
    if s.__class__ is int:
        order, step = L.conductor, s - t
        return swaps, [torsion_root(order, t + k * step) for k in ks]
    return swaps, [s ** k * t ** (1 - k) for k in ks]


def _swapped(terms) -> list:
    """Ascending terms moved as an antidiagonal matrix moves them, ascending again.

    The term (component, a) goes to (1 - component, 2 - a).
    """
    return [(1 - component, 2 - a, c) for component, a, c in reversed(terms)]


def monomial_field(component: int, i: int, lx: int, ly: int, coeff=1) -> RatVF:
    """x^i y^(lx+ly+2-i) / x^lx y^ly in one component: RatVF.monomial at a = i - lx."""
    if lx < 0 or ly < 0:
        raise ValueError("denominator exponents must be non-negative")
    if not 0 <= i <= lx + ly + 2:
        raise ValueError("monomial index out of range")
    return RatVF.monomial(component, i - lx, coeff)


def reynolds_average(group, field: RatVF) -> RatVF:
    """The exact group average (1/|G|) sum of g^(-1) o V o g over g in G.

    By linearity each term c x^a y^(2-a) averages on its own.  A diagonal
    or antidiagonal g multiplies the term by its factor e_k,
    k = a - 1 + component, and keeps or swaps its slot (see
    `_monomial_action`), so per k and image slot the factors of those
    elements are added in one CycNum.sum, which every term with that k
    shares, and each term's coefficient takes one product with a nonzero
    total.  A slot no element maps to is skipped.  Any other element
    conjugates the whole field.  The pieces are added in one RatVF.sum.
    Every element is summed over; this shares none of the congruences that
    decide the verdict.

    The result is invariant under conjugation by every group element and the
    operator is idempotent.  A vanishing average comes back as the explicit
    zero field.
    """
    ks = [a - 1 + component for component, a, _ in field.terms]
    distinct = list(set(ks))
    tables = ([], [])  # the factors e of the diagonal, then of the antidiagonal elements
    pieces = []
    for g in group:
        action = _monomial_action(g, distinct)
        if action is None:
            pieces.append(field.conjugate(g))
        else:
            swaps, e = action
            tables[swaps].append(e)
    for swaps, factors in enumerate(tables):
        if not factors:
            continue
        # a list, not a generator: tuple() of a generator is built by
        # resizing, not from the tuple free list, yet freed onto it, so
        # that list would grow to its cap and raise the peak RSS
        totals = {k: CycNum.sum([e[i] for e in factors]) for i, k in enumerate(distinct)}
        terms = [
            (component, a, c * totals[k])
            for (component, a, c), k in zip(field.terms, ks)
            if not totals[k].is_zero()
        ]
        pieces.append(RatVF.from_terms(_swapped(terms) if swaps else terms))
    return RatVF.sum(pieces).scale(Fraction(1, len(group)))
