"""Finite irreducible root systems with exact integer arithmetic.

Roots live in the simple-root coordinate basis: a root is a tuple of
integers ``(c_1, ..., c_l)`` standing for ``sum(c_i * a_i)``.  The full
system is generated from the Cartan matrix by reflection closure, so no
per-type root tables are hard-coded; the classical counts are asserted in
the test suite instead.

Conventions (Bourbaki numbering throughout):

* ``cartan[i][j] = <a_j, a_i^vee> = 2 (a_i, a_j) / (a_i, a_i)``;
* the symmetrized form is normalized so short roots have squared length 2;
* the highest root ``theta`` has mark vector ``(m_1, ..., m_l)`` and the
  Coxeter number is ``h = 1 + sum(m_i)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Root = Tuple[int, ...]

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _cartan_matrix(letter: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    n = rank
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, down: int = -1, up: int = -1) -> None:
        A[i][j] = down
        A[j][i] = up

    if letter in ("A", "B", "C", "F", "G"):
        for i in range(n - 1):
            edge(i, i + 1)
        if letter == "B" and n >= 2:
            # a_n short: <a_n, a_{n-1}^vee> = -1, <a_{n-1}, a_n^vee> = -2
            A[n - 2][n - 1] = -1
            A[n - 1][n - 2] = -2
        if letter == "C" and n >= 2:
            # a_n long: <a_n, a_{n-1}^vee> = -2, <a_{n-1}, a_n^vee> = -1
            A[n - 2][n - 1] = -2
            A[n - 1][n - 2] = -1
        if letter == "F":
            A[1][2] = -1
            A[2][1] = -2
        if letter == "G":
            # a_1 short, a_2 long
            A[0][1] = -3
            A[1][0] = -1
    elif letter == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif letter == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            chain.append((5, 6))
        if n == 8:
            chain.append((6, 7))
        chain.append((1, 3))
        for i, j in chain:
            edge(i, j)
    return tuple(tuple(row) for row in A)


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Integers d_i = (a_i, a_i)/2, normalized so min(d_i) == 1.

    Determined by d_i * cartan[i][j] == d_j * cartan[j][i] along the
    (connected) Dynkin graph.
    """
    n = len(cartan)
    d: List[Optional[Fraction]] = [None] * n
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if i == j or cartan[i][j] == 0 or d[j] is not None:
                continue
            d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
            frontier.append(j)
    assert all(x is not None for x in d), "Dynkin graph must be connected"
    low = min(d)  # type: ignore[type-var]
    out = [x / low for x in d]  # type: ignore[operator]
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


class RootSystem:
    """An irreducible finite root system of a given Cartan type."""

    def __init__(self, letter: str, rank: int):
        letter = letter.upper()
        if letter not in _VALID_RANKS or not _VALID_RANKS[letter](rank):
            raise ValueError(f"not a valid irreducible type: {letter}{rank}")
        self.letter = letter
        self.rank = rank
        self.cartan_type = f"{letter}{rank}"
        self.cartan = _cartan_matrix(letter, rank)
        self.lengths = _symmetrizer(self.cartan)  # (a_i, a_i) / 2, short == 1
        self.simple_roots: Tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        self.roots = self._generate_roots()
        self.root_set = frozenset(self.roots)
        self.positive_roots = tuple(
            sorted((r for r in self.roots if sum(r) > 0), key=lambda r: (sum(r), r))
        )
        self.highest_root = self.positive_roots[-1]
        assert all(
            all(c <= h for c, h in zip(r, self.highest_root)) for r in self.roots
        ), "highest root must dominate"
        self.marks = (1,) + self.highest_root
        self.coxeter_number = sum(self.marks)

    # ------------------------------------------------------------------
    # generation

    def _generate_roots(self) -> Tuple[Root, ...]:
        roots = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            r = frontier.pop()
            for i in range(self.rank):
                s = self.simple_reflect(i, r)
                if s not in roots:
                    roots.add(s)
                    frontier.append(s)
        return tuple(sorted(roots))

    # ------------------------------------------------------------------
    # bilinear data

    def inner(self, a: Root, b: Root) -> int:
        """Symmetrized invariant form (a, b); short roots have (a, a) = 2."""
        total = 0
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.cartan[i]
            di = self.lengths[i]
            for j, bj in enumerate(b):
                if bj:
                    total += ai * bj * di * row[j]
        return total

    def length_sq(self, a: Root) -> int:
        return self.inner(a, a)

    def pairing(self, b: Root, a: Root) -> int:
        """<b, a^vee> = 2 (b, a) / (a, a)."""
        num = 2 * self.inner(b, a)
        den = self.length_sq(a)
        assert num % den == 0
        return num // den

    def coroot(self, a: Root) -> Root:
        """Coordinates of a^vee = 2a / (a, a) over the simple coroots."""
        d = self.length_sq(a) // 2
        assert all(c * w % d == 0 for c, w in zip(a, self.lengths))
        return tuple(c * w // d for c, w in zip(a, self.lengths))

    def is_long(self, a: Root) -> bool:
        return self.length_sq(a) == max(self.length_sq(s) for s in self.simple_roots)

    def is_root(self, v: Sequence[int]) -> bool:
        return tuple(v) in self.root_set

    def height(self, a: Root) -> int:
        return sum(a)

    # ------------------------------------------------------------------
    # reflections

    def simple_reflect(self, i: int, b: Root) -> Root:
        """s_i(b) = b - <b, a_i^vee> a_i."""
        coef = sum(bj * self.cartan[i][j] for j, bj in enumerate(b))
        return tuple(bj - coef if j == i else bj for j, bj in enumerate(b))

    def reflect(self, b: Root, a: Root) -> Root:
        """s_a(b) for an arbitrary root a."""
        coef = self.pairing(b, a)
        return tuple(bj - coef * aj for bj, aj in zip(b, a))

    # ------------------------------------------------------------------
    # rank-2 structure

    def rank2_subsystem_type(self, a: Root, b: Root) -> str:
        """Isomorphism type of the closed subsystem generated by two roots.

        Returns one of "collinear", "A1xA1", "A2", "C2", "G2".  The
        proportional case covers b in {a, -a} (reduced systems have no
        other multiples).  Classifying by angle alone would be wrong:
        orthogonal short roots in type C sum to a root and generate C2.
        """
        if a not in self.root_set or b not in self.root_set:
            raise ValueError("arguments must be roots")
        if _parallel(a, b):
            return "collinear"
        closed = {a, negate(a), b, negate(b)}
        grew = True
        while grew:
            grew = False
            for x in list(closed):
                for y in list(closed):
                    s = add(x, y)
                    if s in self.root_set and s not in closed:
                        closed.add(s)
                        grew = True
        return {4: "A1xA1", 6: "A2", 8: "C2", 12: "G2"}[len(closed)]

    def root_string(self, a: Root, b: Root) -> List[Tuple[int, int]]:
        """All (i, j) with i, j > 0 and i*a + j*b a root, ordered by (i+j, i).

        Requires a + b != 0; the bound i, j <= 3 is exact for reduced
        systems (G2 realizes (3, 1) and (3, 2)), and 2(a+b), 3(a+b) are
        never roots.  The string is empty unless a + b is a root.
        """
        total = tuple(x + y for x, y in zip(a, b))
        if not any(total):
            raise ValueError("root string undefined for b == -a")
        if total not in self.root_set:
            return []
        return [(1, 1)] + [
            (i, j)
            for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
            if tuple(i * x + j * y for x, y in zip(a, b)) in self.root_set
        ]

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def _parallel(a: Root, b: Root) -> bool:
    """True when a and b are rational multiples of each other."""
    return all(ai * bj == aj * bi for (ai, bi), (aj, bj) in _pairs(a, b))


def _pairs(a: Root, b: Root):
    items = list(zip(a, b))
    for k in range(len(items)):
        for l in range(k + 1, len(items)):
            yield items[k], items[l]


def build_root_system(cartan_type: str, rank: Optional[int] = None) -> RootSystem:
    """Build a root system from a type letter and rank ("C", 2 or "C2")."""
    letter, digits = cartan_type[:1], cartan_type[1:]
    if rank is None:
        if not digits.isdigit():
            raise ValueError(f"cannot parse Cartan type {cartan_type!r}")
        return RootSystem(letter, int(digits))
    if digits:
        raise ValueError(
            f"rank given twice: {cartan_type!r} already names a rank, "
            f"and rank {rank} was also given"
        )
    return RootSystem(cartan_type, rank)


def negate(a: Root) -> Root:
    return tuple(map(operator.neg, a))


def add(a: Root, b: Root) -> Root:
    return tuple(map(operator.add, a, b))
