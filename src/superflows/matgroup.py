"""2x2 matrices over cyclotomic fields and finite matrix group enumeration.

Matrices carry exact CycNum entries, all lifted to one common conductor, so
deduplication during group closure is exact coefficient comparison, never a
floating-point hash.  Groups are stored as the deduplicated element list
produced by breadth-first closure under multiplication; a cap guards against
accidentally infinite groups.
"""

from __future__ import annotations

import math

from .cyclotomic import CycNum, root_of_unity
from .errors import CapExceededError

__all__ = [
    "Mat2",
    "FiniteMatrixGroup",
    "generate_group",
    "alpha_matrix",
    "alpha_group",
    "tau",
    "matrix_finite_order",
    "is_real_conjugate_candidate",
]


def _entry(value) -> CycNum:
    if isinstance(value, CycNum):
        return value
    coerced = CycNum._coerce(value)
    if coerced is None:
        raise TypeError(f"cannot use {value!r} as a matrix entry")
    return coerced


class Mat2:
    """An invertible-or-not 2x2 matrix with entries in one cyclotomic field."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = [_entry(v) for v in (a, b, c, d)]
        order = 1
        for e in entries:
            order = math.lcm(order, e.order)
        entries = [e.lift(order) for e in entries]
        object.__setattr__(self, "a", entries[0])
        object.__setattr__(self, "b", entries[1])
        object.__setattr__(self, "c", entries[2])
        object.__setattr__(self, "d", entries[3])

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @staticmethod
    def identity(order: int = 1) -> "Mat2":
        one = CycNum.one(order)
        zero = CycNum.zero(order)
        return Mat2(one, zero, zero, one)

    @staticmethod
    def diagonal(s, t) -> "Mat2":
        return Mat2(s, 0, 0, t)

    @property
    def conductor(self) -> int:
        return self.a.order

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def lift(self, order: int) -> "Mat2":
        if order == self.conductor:
            return self
        return Mat2(*(e.lift(order) for e in self.entries()))

    def det(self) -> CycNum:
        return self.a * self.d - self.b * self.c

    def trace(self) -> CycNum:
        return self.a + self.d

    def is_diagonal(self) -> bool:
        return self.b.is_zero() and self.c.is_zero()

    def is_antidiagonal(self) -> bool:
        return self.a.is_zero() and self.d.is_zero()

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("matrix is singular")
        inv = det.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Mat2.identity(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return all(x == y for x, y in zip(self.entries(), other.entries()))

    __hash__ = None

    def key(self):
        """Hashable identity; compare only among matrices at one conductor."""
        return tuple(e.key() for e in self.entries())

    def embed(self):
        """Entries as complex doubles, row-major nested tuples."""
        return (
            (self.a.embed(), self.b.embed()),
            (self.c.embed(), self.d.embed()),
        )

    def to_text(self) -> str:
        return "[[{}, {}], [{}, {}]]".format(*(e.to_text() for e in self.entries()))

    def __repr__(self):
        return f"Mat2({self.to_text()})"


def tau() -> Mat2:
    """The coordinate swap [[0, 1], [1, 0]]."""
    return Mat2(0, 1, 1, 0)


def alpha_matrix(m: int) -> Mat2:
    """diag(zeta_m, -zeta_m^(-1)), the generator of the cyclic groups studied here."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    zeta = root_of_unity(m)
    return Mat2.diagonal(zeta, -root_of_unity(m, m - 1))


class FiniteMatrixGroup:
    """A finite group of 2x2 matrices, stored as a full element list.

    The element list is closed under multiplication and inversion and always
    contains the identity; `order` is the number of distinct elements.  All
    elements share one conductor, fixed at construction, and membership is a
    lookup of the matrix key at that conductor.
    """

    def __init__(self, generators, elements, conductor):
        self.generators = list(generators)
        self.elements = list(elements)
        self.conductor = conductor
        self._keys = frozenset(g.lift(conductor).key() for g in self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, matrix):
        if not isinstance(matrix, Mat2):
            return False
        if self.conductor % matrix.conductor:
            # entries labelled outside the group's field: compare by lifting
            return any(matrix == g for g in self.elements)
        return matrix.lift(self.conductor).key() in self._keys

    def has_minus_identity(self) -> bool:
        minus_i = Mat2(-1, 0, 0, -1)
        return minus_i in self

    def is_diagonal(self) -> bool:
        return all(g.is_diagonal() for g in self.generators)

    def conjugated_by(self, L: Mat2, cap: int = 10_000) -> "FiniteMatrixGroup":
        """The group L^(-1) G L, regenerated from conjugated generators."""
        linv = L.inverse()
        return generate_group([linv * g * L for g in self.generators], cap=cap)

    def to_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "generators": [[e.to_text() for e in g.entries()] for g in self.generators],
            "order": self.order,
        }

    def __repr__(self):
        return f"FiniteMatrixGroup(order={self.order}, conductor={self.conductor})"


def generate_group(generators, cap: int = 10_000) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    Raises CapExceededError once the closure grows past `cap`, which signals
    an infinite (or just too large) group.  A finite closure of invertible
    matrices is automatically a group, so no explicit inverses are needed.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    conductor = 1
    for g in gens:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")
        conductor = math.lcm(conductor, g.conductor)
    gens = [g.lift(conductor) for g in gens]
    ident = Mat2.identity(conductor)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for m in frontier:
            for g in gens:
                p = m * g
                k = p.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(
                            f"group closure exceeded cap of {cap} elements"
                        )
                    seen[k] = p
                    next_frontier.append(p)
        frontier = next_frontier
    return FiniteMatrixGroup(gens, list(seen.values()), conductor)


def alpha_group(m: int, cap: int = 10_000) -> FiniteMatrixGroup:
    """The cyclic group generated by diag(zeta_m, -zeta_m^(-1)) for m >= 3.

    The order comes out of the closure enumeration (2m for odd m, m for even
    m); no closed-form order is trusted anywhere.
    """
    if m < 3:
        raise ValueError("alpha_group requires m >= 3")
    return generate_group([alpha_matrix(m)], cap=cap)


def matrix_finite_order(matrix: Mat2, bound: int = 10_000):
    """Least k <= bound with matrix**k == I, or None when no such k exists."""
    if matrix.det().is_zero():
        raise ValueError("matrix must be invertible")
    ident = Mat2.identity(matrix.conductor)
    power = matrix
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = power * matrix
    return None


def is_real_conjugate_candidate(matrix: Mat2, tol: float = 1e-12) -> bool:
    """Whether trace(M) is real; False certifies M is not conjugate into GL(2, R)."""
    return abs(matrix.trace().embed().imag) <= tol
