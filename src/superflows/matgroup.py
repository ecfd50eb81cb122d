"""2x2 matrices over cyclotomic fields and finite matrix groups.

Matrices carry exact CycNum entries, all lifted to one common conductor, so
deduplication is exact coefficient comparison, never a floating-point hash.
generate_group closes a FiniteMatrixGroup by matrix products, with a cap
against infinite groups.  The groups the verdict decides are monomial, and
MonomialGroup closes them as exponent triples mod n = lcm(2, conductor)
with integer additions, building a matrix only when one is asked for.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from .cyclotomic import CycNum, root_of_unity
from .errors import CapExceededError

__all__ = [
    "Mat2",
    "FiniteMatrixGroup",
    "MonomialGroup",
    "generate_group",
    "alpha_matrix",
    "alpha_group",
    "tau",
    "matrix_finite_order",
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

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return self.order

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _keys(self) -> frozenset:
        return frozenset(g.lift(self.conductor).key() for g in self.elements)

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

    def conjugated_by(self, L: Mat2, cap: int = 10_000) -> "FiniteMatrixGroup":
        """The group L^(-1) G L, regenerated from conjugated generators."""
        linv = L.inverse()
        return generate_group([linv * g * L for g in self.generators], cap=cap)

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, conductor={self.conductor})"


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


def _discrete_log(u: CycNum, n: int) -> int:
    """The k with u == zeta_n^k: guessed from the embedding, confirmed exactly."""
    k = round(cmath.phase(u.embed()) * n / math.tau) % n
    if root_of_unity(n, k) != u:
        raise ValueError(f"{u.to_text()} is not a power of zeta_{n}")
    return k


def _times(g, h, n: int):
    """Product of two exponent triples; an antidiagonal left factor swaps h's pair."""
    kind, s, t = g
    h_kind, hs, ht = h
    if kind:
        hs, ht = ht, hs
    return (kind ^ h_kind, (s + hs) % n, (t + ht) % n)


def _inverse(g, n: int):
    kind, s, t = g
    return (1, -t % n, -s % n) if kind else (0, -s % n, -t % n)


class MonomialGroup(FiniteMatrixGroup):
    """A finite group of diagonal and antidiagonal matrices, in exponent form.

    With n = lcm(2, conductor), the triple (0, s, t) is diag(zeta_n^s,
    zeta_n^t) and (1, s, t) is [[0, zeta_n^s], [zeta_n^t, 0]].  `gens`
    holds the generators and `triples` the closed element set, both as such
    triples.  The Mat2 `generators` and `elements` that the FiniteMatrixGroup
    methods use are written at the group's own conductor on first use.
    """

    def __init__(self, conductor: int, generators):
        self.conductor = conductor
        self.n = n = math.lcm(2, conductor)
        self.gens = tuple((kind, s % n, t % n) for kind, s, t in generators)
        if not self.gens:
            raise ValueError("at least one generator is required")
        queue = [(0, 0, 0)]
        seen = set(queue)
        for g in queue:  # breadth first: the queue grows while it is read
            for h in self.gens:
                p = _times(g, h, n)
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        self.triples = frozenset(seen)

    @staticmethod
    def from_matrices(generators) -> "MonomialGroup":
        """The group generated by diagonal and antidiagonal Mat2s.

        Only the generators are converted, by discrete logs of their entries
        that are confirmed exactly; the closure is then on exponents.
        """
        gens = list(generators)
        conductor = math.lcm(*(g.conductor for g in gens))
        n = math.lcm(2, conductor)
        triples = []
        for g in gens:
            kind = int(g.is_antidiagonal())
            if not (kind or g.is_diagonal()):
                raise ValueError(
                    "only groups generated by diagonal or antidiagonal matrices "
                    "preserve monomial denominators"
                )
            u, v = (g.b, g.c) if kind else (g.a, g.d)
            triples.append((kind, _discrete_log(u, n), _discrete_log(v, n)))
        return MonomialGroup(conductor, triples)

    @property
    def order(self) -> int:
        return len(self.triples)

    def has_minus_identity(self) -> bool:
        return (0, self.n // 2, self.n // 2) in self.triples

    @property
    def swap(self):
        """One antidiagonal generator, or None for a diagonal group."""
        return next((g for g in self.gens if g[0]), None)

    def diagonal_logs(self) -> list[tuple[int, int]]:
        """(s, t) of a generating set of the diagonal elements.

        They form a subgroup of index 1 or 2 with coset representatives the
        identity and `swap`, so by Schreier's lemma r.g.rep(r.g)^(-1) over
        those r and every generator g generate it.
        """
        n, w = self.n, self.swap
        reps = [(0, 0, 0)] if w is None else [(0, 0, 0), w]
        logs = {}
        for r in reps:
            for g in self.gens:
                p = _times(r, g, n)
                _, s, t = _times(p, _inverse(reps[p[0]], n), n)
                logs[s, t] = None
        return list(logs)

    def root(self, k: int) -> CycNum:
        """zeta_n^k at the group's conductor c; for odd c, zeta_2c = -zeta_c^((c+1)/2)."""
        c = self.conductor
        if self.n == c:
            return root_of_unity(c, k)
        value = root_of_unity(c, k * (c + 1) // 2)
        return -value if k % 2 else value

    def _matrix(self, triple) -> Mat2:
        kind, s, t = triple
        zero = CycNum.zero(self.conductor)
        if kind:
            return Mat2(zero, self.root(s), self.root(t), zero)
        return Mat2(self.root(s), zero, zero, self.root(t))

    @cached_property
    def generators(self) -> list:
        return [self._matrix(g) for g in self.gens]

    @cached_property
    def elements(self) -> list:
        return [self._matrix(g) for g in self.triples]


def alpha_group(m: int) -> MonomialGroup:
    """The cyclic group generated by diag(zeta_m, -zeta_m^(-1)) for m >= 3.

    With n = lcm(2, m) the generator is diag(zeta_n^(n/m), zeta_n^(n/2 - n/m)).
    The order comes out of the closure (2m for odd m, m for even m); no
    closed-form order is trusted anywhere.
    """
    if m < 3:
        raise ValueError("alpha_group requires m >= 3")
    n = math.lcm(2, m)
    return MonomialGroup(m, [(0, n // m, n // 2 - n // m)])


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
