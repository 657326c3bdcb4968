"""Affine roots as exact functionals on the apartment.

An affine root is a pair ``(gradient, level)`` acting on a point ``x`` by
``<gradient, x> + level``.  Apartment points are stored in fundamental
coweight coordinates: the i-th coordinate of ``x`` is the value ``a_i(x)``
of the i-th simple root, so evaluating any gradient is a dot product.  The
census works in integers at n * x (`scale_point`); `depth` is rational.

The simple affine roots are ``A_0 = -theta + 1`` and ``A_i = a_i + 0``.
Every affine root has a unique integer coordinate vector over them
(``delta_coordinates``); the vector is componentwise nonnegative exactly
for the positive affine roots, and its partial sums ``n_J`` drive the
decomposability classification of shallow roots.

A root is shallow at a point when its value there lies strictly between
0 and 1.  Points are taken in the closed fundamental alcove (all simple
affine values nonnegative); the facet of a point is the set J of indices
whose simple affine value is strictly positive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .root_system import Root, RootSystem

Point = Tuple[Fraction, ...]


class AffineRoot(NamedTuple):
    gradient: Root
    level: int

    def to_json(self) -> Dict:
        return {"gradient": list(self.gradient), "level": self.level}

    def __str__(self) -> str:
        return f"{self.gradient}{self.level:+d}"


def affine_sum(a: AffineRoot, b: AffineRoot) -> AffineRoot:
    return AffineRoot(
        tuple(x + y for x, y in zip(a.gradient, b.gradient)), a.level + b.level
    )


def affine_combination(i: int, a: AffineRoot, j: int, b: AffineRoot) -> AffineRoot:
    """The functional i*a + j*b."""
    return AffineRoot(
        tuple(i * x + j * y for x, y in zip(a.gradient, b.gradient)),
        i * a.level + j * b.level,
    )


def negate_affine(a: AffineRoot) -> AffineRoot:
    return AffineRoot(tuple(-x for x in a.gradient), -a.level)


# ----------------------------------------------------------------------
# points

def parse_point(coords: Iterable) -> Point:
    """Coerce coordinates to exact rationals.

    Accepts ints, Fractions, and "p/q" strings; floats are rejected
    because the library guarantees exact arithmetic throughout, and so
    is a zero denominator.
    """
    out = []
    for c in coords:
        if isinstance(c, float):
            raise ValueError(f"irrational/float coordinate not supported: {c!r}")
        try:
            out.append(Fraction(c))
        except ZeroDivisionError:
            raise ValueError(f"coordinate {c!r} has a zero denominator") from None
    return tuple(out)


def scale_point(point: Point) -> Tuple[int, Tuple[int, ...]]:
    """(n, n * point) for the least n that makes the point integral."""
    n = math.lcm(*(x.denominator for x in point))
    return n, tuple(int(x * n) for x in point)


def point_to_json(point: Point) -> List[str]:
    return [str(c) for c in point]


def depth(alpha: AffineRoot, point: Point) -> Fraction:
    """The value of the functional at the point."""
    if len(alpha.gradient) != len(point):
        raise ValueError("rank mismatch between root and point")
    return sum(
        (c * x for c, x in zip(alpha.gradient, point)), Fraction(alpha.level)
    )


def is_shallow(alpha: AffineRoot, point: Point) -> bool:
    return 0 < depth(alpha, point) < 1


# ----------------------------------------------------------------------
# the simple affine basis

def simple_affine_roots(rs: RootSystem) -> Tuple[AffineRoot, ...]:
    """(A_0, A_1, ..., A_l) with A_0 = -highest_root + 1."""
    a0 = AffineRoot(tuple(-c for c in rs.highest_root), 1)
    return (a0,) + tuple(AffineRoot(a, 0) for a in rs.simple_roots)


def delta_coordinates(rs: RootSystem, alpha: AffineRoot) -> Tuple[int, ...]:
    """Integer coordinates (n_0, ..., n_l) of alpha over the simple affine roots.

    The expansion is unique: n_0 is the level, and n_i = c_i + n_0 * m_i
    where c are the gradient coordinates and m the marks.  The vector is
    componentwise nonnegative if and only if alpha is positive.
    """
    n0 = alpha.level
    coords = (n0,) + tuple(
        c + n0 * m for c, m in zip(alpha.gradient, rs.highest_root)
    )
    return coords


def from_delta(rs: RootSystem, coords: Sequence[int]) -> AffineRoot:
    n0 = coords[0]
    gradient = tuple(
        n - n0 * m for n, m in zip(coords[1:], rs.highest_root)
    )
    return AffineRoot(gradient, n0)


def is_positive_affine(rs: RootSystem, alpha: AffineRoot) -> bool:
    return all(n >= 0 for n in delta_coordinates(rs, alpha))


def n_J(rs: RootSystem, alpha: AffineRoot, J: Iterable[int]) -> int:
    coords = delta_coordinates(rs, alpha)
    return sum(coords[j] for j in set(J))


# ----------------------------------------------------------------------
# alcove geometry

def _alcove(rs: RootSystem, point: Point) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(n, x, values): x = n * point (`scale_point`), values = n * A_j(point)."""
    if len(point) != rs.rank:
        raise ValueError("rank mismatch between root and point")
    n, x = scale_point(point)
    return n, x, (n - sum(c * y for c, y in zip(rs.highest_root, x)),) + x


def in_closed_alcove(rs: RootSystem, point: Point) -> bool:
    return min(_alcove(rs, point)[2]) >= 0


def _facet(values: Tuple[int, ...]) -> FrozenSet[int]:
    if min(values) < 0:
        raise ValueError("point lies outside the closed fundamental alcove")
    return frozenset(j for j, v in enumerate(values) if v > 0)


def facet_of(rs: RootSystem, point: Point) -> FrozenSet[int]:
    """Indices of the simple affine roots not vanishing at the point.

    The full set {0..l} (alcove interior) is allowed; the empty set
    cannot occur since the simple affine values sum against the marks
    to 1.
    """
    return _facet(_alcove(rs, point)[2])


def facet_point(
    rs: RootSystem, J: Iterable[int], weights: Optional[Dict[int, int]] = None
) -> Point:
    """A rational point whose facet is exactly J.

    The value of A_j at the point is w_j / sum(m_i * w_i over i in J)
    for j in J and 0 otherwise; weights default to 1, giving equal
    simple affine values on the facet.
    """
    J = frozenset(J)
    if not J or not J <= set(range(rs.rank + 1)):
        raise ValueError(f"facet index set must be a nonempty subset of 0..{rs.rank}")
    w = {j: 1 for j in J}
    if weights:
        w.update({j: weights[j] for j in weights if j in J})
        if any(v <= 0 for v in w.values()):
            raise ValueError("facet weights must be positive")
    denom = sum(rs.marks[j] * w[j] for j in J)
    return tuple(
        Fraction(w[i + 1], denom) if i + 1 in J else Fraction(0)
        for i in range(rs.rank)
    )


def barycenter(rs: RootSystem) -> Point:
    """The alcove barycenter; every simple affine root takes value 1/h."""
    return facet_point(rs, range(rs.rank + 1))


# ----------------------------------------------------------------------
# shallow roots

def _census(rs: RootSystem, point: Point):
    """(n, x, facet, census) at x = n * point, the census holding
    (n * depth, root) for each shallow root in census order."""
    n, x, values = _alcove(rs, point)
    facet = _facet(values)
    found = []
    for a in rs.roots:
        v = sum(c * y for c, y in zip(a, x))
        if v % n:
            found.append((v % n, a, -(v // n)))
    found.sort()
    return n, x, facet, [(r, AffineRoot(a, k)) for r, a, k in found]


def shallow_roots(rs: RootSystem, point: Point) -> Tuple[AffineRoot, ...]:
    """All affine roots with value in (0, 1), sorted by (depth, gradient).

    With x = n * point integral, a gradient a takes the value v = a.x;
    a + k is shallow for exactly one level, k = -(v // n), when n does
    not divide v, and for no level otherwise.  Its depth is (v mod n) / n.
    """
    return tuple(alpha for _, alpha in _census(rs, point)[3])


def is_indecomposable(rs: RootSystem, alpha: AffineRoot, J: Iterable[int]) -> bool:
    """A shallow root splits as a sum of two shallow roots iff n_J >= 2."""
    J = frozenset(J)
    if not is_shallow(alpha, facet_point(rs, J)):
        raise ValueError(f"{alpha} is not shallow on facet {sorted(J)}")
    return n_J(rs, alpha, J) == 1


def decompose_shallow(
    rs: RootSystem, alpha: AffineRoot, point: Point
) -> Optional[Tuple[AffineRoot, AffineRoot]]:
    """A pair of shallow roots summing to alpha, or None when indecomposable.

    Scans candidates in enumeration order, so output is deterministic.
    """
    order = shallow_roots(rs, point)
    if alpha not in order:
        raise ValueError(f"{alpha} is not shallow at {point}")
    for beta in order:
        rest = tuple(x - y for x, y in zip(alpha.gradient, beta.gradient))
        if not rs.is_root(rest):
            continue
        gamma = AffineRoot(rest, alpha.level - beta.level)
        if gamma in order:
            return beta, gamma
    return None
