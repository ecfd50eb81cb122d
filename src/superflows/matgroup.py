"""2x2 matrices over cyclotomic fields and finite matrix groups.

Matrices carry exact CycNum entries, all lifted to one common conductor, so
deduplication is exact coefficient comparison, never a floating-point hash.
generate_group closes a FiniteMatrixGroup by matrix products, with a cap
against infinite groups.  The groups the verdict decides are monomial, and
MonomialGroup holds them as exponent triples mod n = lcm(2, conductor): its
order and -I are read off the exponent lattice, and it is closed (by integer
additions) and written as matrices only when its elements are asked for.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

from .cyclotomic import CycNum, as_cycnum, binary_power, root_of_unity, torsion_root
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

CLOSURE_CAP = 10_000


class Mat2:
    """An invertible-or-not 2x2 matrix with entries in one cyclotomic field.

    The entries are immutable.  `_exponents` keeps the triple that
    `monomial_exponents` reads off root-of-unity entries, or None before
    that; a MonomialGroup element is written with it set.
    """

    __slots__ = ("a", "b", "c", "d", "_exponents")

    def __init__(self, a, b, c, d):
        entries = [v if v.__class__ is CycNum else as_cycnum(v) for v in (a, b, c, d)]
        order = 1
        for e in entries:
            order = math.lcm(order, e.order)
        entries = [e.lift(order) for e in entries]
        object.__setattr__(self, "a", entries[0])
        object.__setattr__(self, "b", entries[1])
        object.__setattr__(self, "c", entries[2])
        object.__setattr__(self, "d", entries[3])
        object.__setattr__(self, "_exponents", None)

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

    def is_diagonal(self) -> bool:
        return self.b.is_zero() and self.c.is_zero()

    def is_antidiagonal(self) -> bool:
        return self.a.is_zero() and self.d.is_zero()

    def monomial_exponents(self):
        """(swaps, s, t) for a nonsingular diagonal or antidiagonal matrix, else None.

        swaps is 0 for diag(s, t) and 1 for [[0, s], [t, 0]].  When both
        nonzero entries are roots of unity, s and t are the plain ints with
        entries torsion_root(conductor, s) and torsion_root(conductor, t),
        powers of zeta_n, n = lcm(2, conductor): they are read once, by
        torsion_log, and kept.  Otherwise s and t are the entries themselves,
        and they are read again on every call.
        """
        if self._exponents is not None:
            return self._exponents
        swaps = int(self.is_antidiagonal())
        if not (swaps or self.is_diagonal()):
            return None
        s, t = (self.b, self.c) if swaps else (self.a, self.d)
        if s.is_zero() or t.is_zero():
            return None
        logs = s.torsion_log(), t.torsion_log()
        if None in logs:
            return swaps, s, t
        object.__setattr__(self, "_exponents", (swaps, *logs))
        return self._exponents

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
        return binary_power(self, exponent, Mat2.identity(self.conductor))

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
    elements share one conductor, fixed at construction.
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

    def __contains__(self, matrix):
        return isinstance(matrix, Mat2) and any(matrix == g for g in self.elements)

    def has_minus_identity(self) -> bool:
        return Mat2(-1, 0, 0, -1) in self

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, conductor={self.conductor})"


def generate_group(generators) -> FiniteMatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    Raises CapExceededError once the closure grows past CLOSURE_CAP, which signals
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
                    if len(seen) >= CLOSURE_CAP:
                        raise CapExceededError(
                            f"group closure exceeded cap of {CLOSURE_CAP} elements"
                        )
                    seen[k] = p
                    next_frontier.append(p)
        frontier = next_frontier
    return FiniteMatrixGroup(gens, list(seen.values()), conductor)


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
    holds the generators as such triples.  The diagonal elements are the
    lattice L spanned by `diagonal_logs` and nZ^2, mod n.  The closed set
    `triples` and the Mat2 `generators` and `elements` are computed on first
    use, the matrices at the group's own conductor.
    """

    def __init__(self, conductor: int, generators):
        self.conductor = conductor
        self.n = n = math.lcm(2, conductor)
        self.gens = tuple((kind, s % n, t % n) for kind, s, t in generators)
        if not self.gens:
            raise ValueError("at least one generator is required")

    @staticmethod
    def from_matrices(generators) -> "MonomialGroup":
        """The group generated by nonsingular diagonal and antidiagonal Mat2s.

        Only the generators are converted, by their monomial_exponents, which
        must be those of roots of unity; each is rescaled from lcm(2, its own
        conductor) to n, and the group is then held in exponent form.
        """
        gens = list(generators)
        conductor = math.lcm(*(g.conductor for g in gens))
        n = math.lcm(2, conductor)
        triples = []
        for g in gens:
            read = g.monomial_exponents()
            if read is None:
                raise ValueError(
                    "only groups generated by nonsingular diagonal or antidiagonal "
                    "matrices preserve monomial denominators"
                )
            kind, s, t = read
            if s.__class__ is not int:
                raise ValueError(f"an entry of {g.to_text()} is not a power of zeta_{n}")
            scale = n // math.lcm(2, g.conductor)
            triples.append((kind, s * scale, t * scale))
        return MonomialGroup(conductor, triples)

    @cached_property
    def triples(self) -> frozenset:
        """Every element as an exponent triple, by breadth-first closure."""
        queue = [(0, 0, 0)]
        seen = set(queue)
        for g in queue:  # breadth first: the queue grows while it is read
            for h in self.gens:
                p = _times(g, h, self.n)
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return frozenset(seen)

    def _lattice_index(self, *extra) -> int:
        """[Z^2 : L + extra], the gcd of the 2x2 minors of the spanning vectors."""
        n = self.n
        vectors = [(n, 0), (0, n), *self.diagonal_logs, *extra]
        return math.gcd(*(s * v - t * u for (s, t), (u, v) in combinations(vectors, 2)))

    @cached_property
    def _index(self) -> int:
        """[Z^2 : L], computed once."""
        return self._lattice_index()

    @cached_property
    def order(self) -> int:
        """|L / nZ^2| = n^2 / [Z^2 : L] diagonal elements, doubled by a swap."""
        return self.n ** 2 // self._index * (1 if self.swap is None else 2)

    def has_minus_identity(self) -> bool:
        """-I is diagonal, so it is in the group iff (n/2, n/2) lies in L."""
        half = self.n // 2
        return self._lattice_index((half, half)) == self._index

    @cached_property
    def swap(self):
        """One antidiagonal generator, or None for a diagonal group."""
        return next((g for g in self.gens if g[0]), None)

    @cached_property
    def diagonal_logs(self) -> tuple[tuple[int, int], ...]:
        """(s, t) of a generating set of the diagonal elements, computed once.

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
        return tuple(logs)

    def root(self, k: int) -> CycNum:
        """zeta_n^k at the group's conductor."""
        return torsion_root(self.conductor, k)

    def _matrix(self, triple) -> Mat2:
        """The element as a Mat2 that keeps its triple as its monomial_exponents."""
        kind, s, t = triple
        zero = CycNum.zero(self.conductor)
        if kind:
            matrix = Mat2(zero, self.root(s), self.root(t), zero)
        else:
            matrix = Mat2(self.root(s), zero, zero, self.root(t))
        object.__setattr__(matrix, "_exponents", triple)
        return matrix

    @cached_property
    def generators(self) -> list:
        return [self._matrix(g) for g in self.gens]

    @cached_property
    def elements(self) -> list:
        return [self._matrix(g) for g in self.triples]


def alpha_group(m: int) -> MonomialGroup:
    """The cyclic group generated by diag(zeta_m, -zeta_m^(-1)) for m >= 3.

    With n = lcm(2, m) the generator is diag(zeta_n^(n/m), zeta_n^(n/2 - n/m)).
    The order (2m for odd m, m for even m) is read from the lattice, and
    cross-checked against the closure in tests.
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
