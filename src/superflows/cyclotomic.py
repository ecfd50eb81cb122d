"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycNum of order N is a vector of rational coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N), kept reduced modulo the N-th cyclotomic
polynomial.  Because Phi_N is the minimal polynomial of zeta_N, the reduced
representation is canonical: two CycNum of the same order are equal exactly
when their coefficient vectors are equal.  Arithmetic between elements of
different orders lifts both operands into Q(zeta_lcm) first.

The coordinates are stored as integer numerators over one shared positive
denominator (the layout of FLINT's fmpq_poly), kept canonical with
gcd(den, *num) == 1, so equality is a tuple comparison and cancellation of
root-of-unity sums is exact, never a floating-point call.  One rule reduces
modulo Phi_N: every power z^e with e >= h folds down by z^h = -1 (h = N/2,
N even) or z^h = 1 (h = N, N odd), and the rest is divided by the monic
Phi_N from the top.  A product is an integer convolution reduced by it, and
z^e is a unit vector for e < phi(N) and one reduction above, each row built
on first use, so no table of every power of a conductor is ever held.  Phi_N
itself is the product of (x^(N/d) - 1)^mu(d) over the squarefree d | N.
Two products skip the convolution: a zero factor gives the zero of the common
order before anything is lifted, and a rational factor scales the other
factor's numerators, lifting them only when the rational's order does not
divide theirs.  Both return exactly the full product, order and key
included.  Values are immutable, so the zero of each order, and each root
of unity of each order and reduced exponent, is one shared instance, built
once.  A root of unity zeta_L^j is inverted by its exponent, as
zeta_L^(-j); any other element through its norm, the product of its Galois
conjugates.

CycNum.sum adds any number of terms in one accumulation: the lcm of their
orders and of their denominators, integer numerators summed with a lift only
for nonzero terms of another order and a scaling only for those of another
denominator, and one cancellation at the end; binary + is its two-term
case.  Equality across orders lifts nothing when either side is rational,
because 1 heads every power basis.  Which root of unity an element is, if
any, is read once, by torsion_log: the phase of its embedding names the
exponent, and one exact comparison confirms it.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CycNum", "as_cycnum", "root_of_unity", "torsion_root", "cyclotomic_polynomial", "euler_phi",
]

# an embedding this close to modulus one makes an element a root-of-unity candidate
_UNIT_MODULUS_TOL = 1e-9


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending order, monic of degree phi(n).

    Phi_n is the product of (x^(n/d) - 1)^mu(d) over the squarefree d | n:
    the factors of mu(d) = +1 multiply in first, and each of mu(d) = -1 then
    divides out exactly, one binomial at a time.
    """
    binomials = [(n, 1)]  # (n/d, mu(d))
    for p in _prime_divisors(n):
        binomials += [(k // p, -mu) for k, mu in binomials]
    poly = [1]
    for k, mu in sorted(binomials, key=lambda b: -b[1]):
        if mu > 0:  # poly * (x^k - 1)
            poly = [a - b for a, b in zip([0] * k + poly, poly + [0] * k)]
        else:  # poly / (x^k - 1): q[j] = q[j - k] - poly[j], bottom up
            poly = [-c for c in poly[:-k]]
            for j in range(k, len(poly)):
                poly[j] += poly[j - k]
    return tuple(poly)


@lru_cache(maxsize=None)
def _modulus(n: int) -> tuple:
    """(phi(n), h, sign, terms) for the reduction modulo Phi_n.

    z^h = sign in Q(zeta_n), with h = n/2 and sign -1 for even n, h = n and
    sign +1 for odd n; terms are the nonzero (i, c) of Phi_n below its top.
    """
    deg = euler_phi(n)
    h, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
    terms = tuple((i, c) for i, c in enumerate(cyclotomic_polynomial(n)[:deg]) if c)
    return deg, h, sign, terms


def _reduce(n: int, coeffs: list) -> list:
    """Coordinates modulo Phi_n of sum coeffs[e] * z^e, len(coeffs) >= phi(n).

    Every power z^e with e >= h folds down to sign * z^(e-h), and what is
    left of degree phi(n) or more is divided by the monic Phi_n from the top.
    coeffs is an integer list that the reduction pops from the top and returns.
    """
    deg, h, sign, terms = _modulus(n)
    for e in range(len(coeffs) - h - 1, -1, -1):  # pop z^(e+h) = sign * z^e
        c = coeffs.pop()
        if c:
            coeffs[e] += sign * c
    for s in range(len(coeffs) - deg - 1, -1, -1):  # pop z^(s+deg) = z^s * (z^deg - Phi_n)
        c = coeffs.pop()
        if c:
            for i, p in terms:
                coeffs[s + i] -= c * p
    return coeffs


@lru_cache(maxsize=None)
def _reduced_power(n: int, e: int) -> tuple[int, ...]:
    """Coordinates of z^e modulo Phi_n for 0 <= e < n (integer vector), built on first use."""
    deg = euler_phi(n)
    if e < deg:
        return (0,) * e + (1,) + (0,) * (deg - e - 1)
    return tuple(_reduce(n, [0] * e + [1]))


def _power_map(num, n: int, k: int) -> tuple:
    """Integer coordinates at order n of sum num[i] * z^(i*k), z = zeta_n."""
    out = [0] * euler_phi(n)
    for i, c in enumerate(num):
        if c:
            for j, r in enumerate(_reduced_power(n, (i * k) % n)):
                if r:
                    out[j] += c * r
    return tuple(out)


def _canonical(order: int, num, den: int) -> "CycNum":
    """The CycNum num/den (den > 0), with the common factor of num and den removed."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return CycNum._raw(order, tuple(num), den)


class CycNum:
    """An element of Q(zeta_N), stored reduced modulo Phi_N.

    Values are immutable and may be shared; CycNum.zero(N) returns one
    instance per order, and root_of_unity and torsion_root one per order
    and reduced exponent.  The `order` is the label N of the ambient field,
    not the conductor of the element itself (a rational number can carry any
    order).  The rational coordinates are `coeffs`; they are stored as
    integer numerators `_num` over one positive denominator `_den` with
    gcd(_den, *_num) == 1.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        deg = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != deg:
            raise ValueError(f"expected {deg} coordinates for order {order}, got {len(coeffs)}")
        den = math.lcm(*(c.denominator for c in coeffs))
        _set_order(self, order)
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    @staticmethod
    def _raw(order: int, num: tuple, den: int) -> "CycNum":
        obj = object.__new__(CycNum)
        _set_order(obj, order)
        _set_num(obj, num)
        _set_den(obj, den)
        return obj

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates, as a tuple of Fractions."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @staticmethod
    def rational(value, order: int = 1) -> "CycNum":
        if not isinstance(value, int):
            value = Fraction(value)
        num = [0] * euler_phi(order)
        num[0] = value.numerator
        return CycNum._raw(order, tuple(num), value.denominator)

    @staticmethod
    def zero(order: int = 1) -> "CycNum":
        """The zero of order `order`: one shared immutable instance per order."""
        return _zero(order)

    @staticmethod
    def one(order: int = 1) -> "CycNum":
        return CycNum.rational(1, order)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self._num[0], self._den)

    def lift(self, order: int) -> "CycNum":
        """Re-express this element inside Q(zeta_order); order must be a multiple.

        The power basis of Q(zeta_N) is an integral basis, so an integer
        vector lifts to an integer vector without a new common factor and
        the denominator carries over unchanged.
        """
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        return CycNum._raw(order, _power_map(self._num, order, order // self.order), self._den)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycNum | None":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum.rational(value)
        return None

    def _common(self, other: "CycNum"):
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    @staticmethod
    def sum(terms) -> "CycNum":
        """The exact sum of CycNum terms, equal to their + fold in value, order and key.

        One pass takes the lcm of every order, zeros included, as + labels
        its result, and of every denominator; a second accumulates integer
        numerators, lifting only the nonzero terms of another order.  One
        common-factor cancellation ends it.  An empty sum is the zero of order 1.
        """
        terms = tuple(terms)
        n = den = 1
        for t in terms:
            if t.order != n:
                n = math.lcm(n, t.order)
            if t._den != den:
                den = math.lcm(den, t._den)
        out = [0] * euler_phi(n)
        for t in terms:
            if any(t._num):
                num = t._num if t.order == n else t.lift(n)._num
                k = den // t._den
                if k == 1:
                    out = list(map(operator.add, out, num))
                else:
                    out = [x + y * k for x, y in zip(out, num)]
        return _canonical(n, out, den)

    def __add__(self, other):
        if other.__class__ is not CycNum:
            other = CycNum._coerce(other)
            if other is None:
                return NotImplemented
        return CycNum.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.order, tuple([-x for x in self._num]), self._den)

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not CycNum:
            other = CycNum._coerce(other)
            if other is None:
                return NotImplemented
        if not any(other._num[1:]):
            return other._scale(self)
        if not any(self._num[1:]):
            return self._scale(other)
        a, b = (self, other) if self.order == other.order else self._common(other)
        x, y = a._num, b._num
        deg = len(x)
        y_terms = [(j, c) for j, c in enumerate(y) if c]
        prod = [0] * (2 * deg - 1)
        for i, c in enumerate(x):
            if c:
                for j, d in y_terms:
                    prod[i + j] += c * d
        return _canonical(a.order, _reduce(a.order, prod), a._den * b._den)

    __rmul__ = __mul__

    def _scale(self, other: "CycNum") -> "CycNum":
        """self * other for a rational self, equal to the full product in order and key.

        other is lifted only when self's order does not divide its own, and a
        zero factor gives the zero of the common order before any lift.
        """
        n = math.lcm(self.order, other.order)
        p = self._num[0]
        if not p or not any(other._num):
            return CycNum.zero(n)
        if n != other.order:
            other = other.lift(n)
        return _canonical(n, [p * v for v in other._num], self._den * other._den)

    def inverse(self) -> "CycNum":
        """Multiplicative inverse.

        A rational inverts its one coordinate.  A root of unity zeta_L^j
        (torsion_log) inverts to zeta_L^(-j), one reduced power of z.
        Any other u, those of modulus one included, is inverted through its
        norm: the product P of its Galois conjugates z -> z^k, 1 < k < N
        coprime to N, is N(u) / u with N(u) rational, so 1/u = P / N(u).
        """
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.order})")
        n, num, den = self.order, self._num, self._den
        if self.is_rational():
            return CycNum.rational(Fraction(den, num[0]), n)
        j = self.torsion_log()
        if j is not None:
            return torsion_root(n, -j)
        others = CycNum.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                others = others * CycNum._raw(n, _power_map(num, n, k), den)
        return others * CycNum.rational(1 / (self * others).as_fraction(), n)

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        return binary_power(self, exponent, CycNum.one(self.order))

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.order != b.order:
            # 1 heads every power basis, so a rational has the same
            # coordinates at every order and equals only another rational
            if a.is_rational() or b.is_rational():
                return (
                    a.is_rational()
                    and b.is_rational()
                    and a._num[0] == b._num[0]
                    and a._den == b._den
                )
            a, b = a._common(b)
        return a._num == b._num and a._den == b._den

    # equality lifts across orders, so hashing is unsafe; key() serves maps
    __hash__ = None

    def key(self):
        """Hashable identity valid among elements of the same order."""
        return (self.order, self._num, self._den)

    # -- numerics ----------------------------------------------------------

    def embed(self) -> complex:
        """Evaluate in C at zeta_N = exp(2*pi*i/N), double precision."""
        n, den = self.order, self._den
        total = 0j
        for i, c in enumerate(self._num):
            if c:
                # int / int is correctly rounded, the same double as float(Fraction(c, den))
                total += (c / den) * cmath.exp(2j * cmath.pi * i / n)
        return total

    def torsion_log(self):
        """The j, 0 <= j < L = lcm(2, N), with self == torsion_root(N, j), or None.

        The roots of unity in Q(zeta_N) are the powers of zeta_L.  For an
        embedding of modulus one, its phase names the one candidate j, and
        one exact comparison at the element's own order confirms it.
        """
        z = self.embed()
        if abs(abs(z) - 1.0) > _UNIT_MODULUS_TOL:
            return None
        bound = math.lcm(2, self.order)
        j = round(cmath.phase(z) * bound / math.tau) % bound
        return j if self == torsion_root(self.order, j) else None

    def multiplicative_order(self):
        """Smallest k >= 1 with self**k == 1, or None if not a root of unity.

        A root zeta_L^j, L = lcm(2, N), read by torsion_log, has order
        L / gcd(L, j).  An element of modulus one that torsion_log does not
        confirm is a root of unity exactly when self**L == 1; its order
        divides L, and each prime p of L is stripped from it while
        self**(order/p) is still one.
        """
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        bound = math.lcm(2, self.order)
        j = self.torsion_log()
        if j is not None:
            return bound // math.gcd(bound, j)
        if abs(abs(self.embed()) - 1.0) > _UNIT_MODULUS_TOL or self ** bound != 1:
            return None
        order = bound
        for p in _prime_divisors(bound):
            while order % p == 0 and (self ** (order // p)) == 1:
                order //= p
        return order

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Render as "a0 + a1*z + ...; z = zeta_N", the exact output form."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        lhs = " ".join(parts) if parts else "0"
        return f"{lhs}; z = zeta_{self.order}"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"CycNum({self.to_text()!r})"


# slot setters that bypass the immutability guard of CycNum.__setattr__
_set_order = CycNum.__dict__["order"].__set__
_set_num = CycNum.__dict__["_num"].__set__
_set_den = CycNum.__dict__["_den"].__set__


@lru_cache(maxsize=None)
def _zero(order: int) -> CycNum:
    return CycNum.rational(0, order)


def as_cycnum(value) -> CycNum:
    """value as an exact CycNum: a CycNum as it is, an int or Fraction as a rational."""
    out = CycNum._coerce(value)
    if out is None:
        raise TypeError(f"need an exact value (CycNum, int or Fraction), got {value!r}")
    return out


def binary_power(base, exponent: int, one):
    """base**exponent by square-and-multiply from `one`; a negative exponent inverts base first."""
    if exponent < 0:
        base, exponent = base.inverse(), -exponent
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def root_of_unity(order: int, power: int = 1) -> CycNum:
    """zeta_order**power in canonical reduced form: z^(power % order) reduced modulo Phi_order.

    Values are immutable, so each order and reduced exponent power % order
    has one shared instance, built on first use.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _root(order, power % order)


def torsion_root(order: int, power: int) -> CycNum:
    """zeta_L**power, L = lcm(2, order), written at `order`: one shared instance per power % L.

    For odd N, zeta_2N = -zeta_N^((N+1)/2).
    """
    if order % 2:
        return _odd_torsion(order, power % (2 * order))
    return _root(order, power % order)


@lru_cache(maxsize=None)
def _root(order: int, e: int) -> CycNum:
    return CycNum._raw(order, _reduced_power(order, e), 1)


@lru_cache(maxsize=None)
def _odd_torsion(order: int, j: int) -> CycNum:
    value = root_of_unity(order, j * (order + 1) // 2)
    return -value if j % 2 else value
