"""Reference Q(zeta_N) arithmetic with one fractions.Fraction per coordinate.

This is the straightforward layout that `superflows.cyclotomic.CycNum`
replaced with integer numerators over one shared denominator.  It reduces
modulo Phi_N by its own long division of Fraction polynomials, and shares
only phi and the coefficients of Phi_N with the package, so it serves as
the differential oracle of the cyclotomic tests, reduction included.
`from_powers` builds a CycNum from a sum of powers of z by the same
Fraction reduction, the reference the constructors are checked against.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from superflows.cyclotomic import CycNum, cyclotomic_polynomial, euler_phi

_ZERO = Fraction(0)
_ONE = Fraction(1)


def from_powers(order: int, powers: dict) -> CycNum:
    """The CycNum sum of c * z^e over an {exponent: coefficient} mapping."""
    out = [_ZERO] * euler_phi(order)
    for e, c in powers.items():
        for j, r in enumerate(_power(order, e % order)):
            out[j] += Fraction(c) * r
    return CycNum(order, out)


def _remainder(order: int, poly) -> list:
    """The phi(order) Fraction coordinates of the polynomial poly(z) modulo Phi_order."""
    _, rem = _poly_divmod(poly, [Fraction(c) for c in cyclotomic_polynomial(order)])
    deg = euler_phi(order)
    return (rem + [_ZERO] * deg)[:deg]


@lru_cache(maxsize=None)
def _power(order: int, e: int) -> tuple:
    """Coordinates of z^e modulo Phi_order, the remainder of x^e by long division."""
    return tuple(_remainder(order, [_ZERO] * e + [_ONE]))


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(_ZERO + (a[i] if i < len(a) else 0)) - (b[i] if i < len(b) else 0) for i in range(n)]
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    if len(a) < len(b):
        return [], _poly_trim(a)
    inv_lead = 1 / b[-1]
    quot = [_ZERO] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            quot[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return quot, _poly_trim(a)


class FractionCycNum:
    """An element of Q(zeta_N) as a tuple of Fraction coordinates."""

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == euler_phi(order)

    @staticmethod
    def rational(value, order: int = 1) -> "FractionCycNum":
        return FractionCycNum(order, [value] + [0] * (euler_phi(order) - 1))

    def lift(self, order: int) -> "FractionCycNum":
        k = order // self.order
        poly = [_ZERO] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * k] = c
        return FractionCycNum(order, _remainder(order, poly))

    def _common(self, other):
        if self.order == other.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._common(other)
        return FractionCycNum(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._common(other)
        prod = [_ZERO] * (2 * len(a.coeffs) - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        prod[i + j] += ci * cj
        return FractionCycNum(a.order, _remainder(a.order, prod))

    def __eq__(self, other):
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def inverse(self) -> "FractionCycNum":
        """Extended Euclidean algorithm modulo Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        n = self.order
        r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r1 = _poly_trim(list(self.coeffs))
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[0]
        deg = euler_phi(n)
        return FractionCycNum(n, ([x / c for x in s1] + [_ZERO] * deg)[:deg])

    def __pow__(self, exponent: int) -> "FractionCycNum":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FractionCycNum.rational(1, self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def embed(self) -> complex:
        n = self.order
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(2j * cmath.pi * i / n)
        return total

    def multiplicative_order(self):
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        if abs(abs(self.embed()) - 1.0) > 1e-9:
            return None
        one = FractionCycNum.rational(1)
        bound = math.lcm(2, self.order)
        for k in range(1, bound + 1):
            if bound % k == 0 and self ** k == one:
                return k
        return None
