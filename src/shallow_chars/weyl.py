"""Affine Weyl group action and the intertwining checks built on it.

An element is its linear part, an exact integer matrix on root
coordinates kept with its inverse, plus a coroot-lattice translation,
together with the generating word it was built from.  The linear part
acts on coroots through w(a^vee) = (w a)^vee, so no second matrix is
kept.  Words use affine labels: letter 0 is the reflection through the
level-one hyperplane of the highest root, letters 1..l are the finite
simple reflections.

One lazy ShortLex walk enumerates the finite Weyl group, finite
parabolics and the affine ball alike, building each child from its
parent by the rows and columns one reflection changes.  The
intertwining scan tests each step of the walk in place, from its root
map columns and translation, stops each test at its first mismatch, and
builds an element only for its witness and its stabilizer.

The condition-star search is exact whenever its witness polytope is
bounded.  One chain of Fourier-Motzkin eliminations in integers per
character, with the base point's coordinates kept as variables, gives
nested bounds on the coroot coordinates of the polytope's points, and
boundedness is read off the chain.  The chain is pruned by Chernikov's
rule, which keeps dense supports small but may read a bounded polytope
as unbounded; unless a ray of the polytope confirms that reading, the
chain is rebuilt unpruned.  A bounded polytope is scanned
first: its lattice points in lambda + Q^vee / n, which hold its whole
orbit, are listed from the chain and each is folded into the closed
fundamental alcove.  If none but lambda folds to lambda's fold, the
verdict is "holds" with no walk.  Otherwise the finite Weyl group is
walked, and the same chain lists the points w(lambda) + k of the
polytope at each orbit point, all of them in the bounded case.  An
unbounded polytope gets a bounded translation sweep, and a negative
outcome is reported as inconclusive, never extrapolated.  The walk
stops at its first witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .affine_roots import (
    AffineRoot,
    Point,
    barycenter,
    depth,
    is_positive_affine,
    scale_point,
    simple_affine_roots,
)
from .characters import ShallowCharacter, char_depth, validate
from .chevalley import Matrix
from .context import Context
from .root_system import RootSystem, Root


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(A):
        oi = out[i]
        for k, a in enumerate(row):
            if a:
                bk = B[k]
                for j, b in enumerate(bk):
                    if b:
                        oi[j] += a * b
    return tuple(tuple(row) for row in out)


def _apply(m: Matrix, v: Sequence[int]) -> Tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in m])


def _on_coroots(rs: RootSystem, m: Matrix, k: Sequence[int]) -> Tuple[int, ...]:
    """The root map m applied to sum k_j a_j^vee, in simple coroots.

    a_j^vee = a_j / d_j with d = rs.lengths, so the coroot matrix is
    D m D^-1; its entries m[i][j] * d_i / d_j are integers.
    """
    if not any(k):
        return tuple(k)
    d = rs.lengths
    return tuple(
        sum(row[j] * d[i] * k[j] // d[j] for j in range(len(k)))
        for i, row in enumerate(m)
    )


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _translation_pairing(rs: RootSystem, k: Sequence[int]) -> Tuple[int, ...]:
    """The values of the simple roots on sum k_j a_j^vee.

    A translation by it moves a point by this vector and lowers the
    level of an affine root with gradient a by its pairing with a.
    """
    return tuple(_dot(k, column) for column in zip(*rs.cartan))


def _move_point(w: "AffineWeylElement", n: int, point: Sequence[int]) -> Tuple[int, ...]:
    """n * w(point / n) for a point scaled to integers by n."""
    return tuple(
        _dot(column, point) + n * t for column, t in zip(zip(*w.root_map_inv), w.pairing)
    )


def _letter_root(rs: RootSystem, letter: int) -> Root:
    """The root whose reflection is the linear part of a letter."""
    return simple_affine_roots(rs)[letter].gradient


def _word_sign(tables, word: Sequence[int], gradient: Root) -> int:
    """The conjugation sign of a word at a finite root, from the letter tables."""
    eta = 1
    for letter in reversed(word):
        h, gradient = tables[letter][gradient]
        eta *= h
    return eta


class AffineWeylElement:
    """t_translation composed with the product of the word's reflections."""

    def __init__(self, rs: RootSystem, root_map: Matrix, root_map_inv: Matrix,
                 translation: Tuple[int, ...], word: Tuple[int, ...],
                 word_translation: Tuple[int, ...]):
        self.rs = rs
        self.root_map = root_map
        self.root_map_inv = root_map_inv
        self.translation = translation
        self.word = word
        self.word_translation = word_translation

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, rs: RootSystem) -> "AffineWeylElement":
        eye = _identity(rs.rank)
        zero = (0,) * rs.rank
        return cls(rs, eye, eye, zero, (), zero)

    @classmethod
    def simple(cls, rs: RootSystem, i: int) -> "AffineWeylElement":
        l = rs.rank
        if not 0 <= i <= l:
            raise ValueError(f"no simple reflection {i} in rank {l}")
        r = _letter_root(rs, i)
        # columns are the images of the simple roots
        rmap = tuple(zip(*(rs.reflect(a, r) for a in rs.simple_roots)))
        zero = (0,) * l
        shift = rs.coroot(rs.highest_root) if i == 0 else zero
        return cls(rs, rmap, rmap, shift, (i,), zero)

    @classmethod
    def from_word(cls, rs: RootSystem, word: Sequence[int]) -> "AffineWeylElement":
        out = cls.identity(rs)
        for i in word:
            out = out.compose(cls.simple(rs, i))
        return out

    @classmethod
    def translation_by(cls, rs: RootSystem, k: Sequence[int]) -> "AffineWeylElement":
        eye = _identity(rs.rank)
        k = tuple(int(x) for x in k)
        return cls(rs, eye, eye, k, (), k)

    # -- group structure -----------------------------------------------

    def compose(self, other: "AffineWeylElement") -> "AffineWeylElement":
        def shift(mine, theirs):
            moved = _on_coroots(self.rs, self.root_map, theirs)
            return tuple(a + b for a, b in zip(mine, moved))

        return AffineWeylElement(
            self.rs, _mat_mul(self.root_map, other.root_map),
            _mat_mul(other.root_map_inv, self.root_map_inv),
            shift(self.translation, other.translation), self.word + other.word,
            shift(self.word_translation, other.word_translation))

    def inverse(self) -> "AffineWeylElement":
        def back(k):
            return tuple(-x for x in _on_coroots(self.rs, self.root_map_inv, k))

        return AffineWeylElement(self.rs, self.root_map_inv, self.root_map, back(self.translation),
                                 tuple(reversed(self.word)), back(self.word_translation))

    @cached_property
    def pairing(self) -> Tuple[int, ...]:
        """The values of the simple roots on the translation part."""
        return _translation_pairing(self.rs, self.translation)

    def key(self) -> Tuple:
        return (self.root_map, self.translation)

    def is_identity(self) -> bool:
        return self.key() == AffineWeylElement.identity(self.rs).key()

    # -- actions ---------------------------------------------------------

    def act_on_root(self, alpha: AffineRoot) -> AffineRoot:
        a = _apply(self.root_map, alpha.gradient)
        assert self.rs.is_root(a)
        return AffineRoot(a, alpha.level - _dot(a, self.pairing))

    def act_on_point(self, mu: Point) -> Point:
        n, scaled = scale_point(tuple(Fraction(x) for x in mu))
        return tuple(Fraction(x, n) for x in _move_point(self, n, scaled))

    def sign(self, pinning, alpha: AffineRoot) -> int:
        """Sign of the conjugation u_alpha(x) -> u_{w alpha}(eta x).

        Computed from this element's word, one letter at a time from the
        right: the pinning's `letter_tables` give each letter's reflection
        sign at the current gradient and the gradient it moves to.  The
        translation part acts by +1.  The value depends on the chosen word
        and lift convention, not just on the group element.
        """
        return _word_sign(pinning.letter_tables, self.word, alpha.gradient)

    def to_json(self) -> Dict:
        return {"word": list(self.word), "translation": list(self.word_translation)}

    def __repr__(self) -> str:
        return f"AffineWeylElement(word={self.word}, t={self.word_translation})"


act_on_root = AffineWeylElement.act_on_root
act_on_point = AffineWeylElement.act_on_point


# ----------------------------------------------------------------------
# enumeration: one ShortLex walk over words in chosen letters

_FINITE_WALK_LIMIT = 100_000  # the most elements a walk may visit


_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12), "G2": (2, 6),
}


def _degrees(rs: RootSystem) -> Tuple[int, ...]:
    """Degrees d_i of the basic invariants of the finite Weyl group."""
    l = rs.rank
    if rs.letter == "A":
        return tuple(range(2, l + 2))
    if rs.letter in "BC":
        return tuple(range(2, 2 * l + 1, 2))
    if rs.letter == "D":
        return tuple(range(2, 2 * l - 1, 2)) + (l,)
    return _EXCEPTIONAL_DEGREES[rs.cartan_type]


def _weyl_group_order(rs: RootSystem) -> int:
    """|W| of the finite Weyl group: the product of its degrees."""
    return math.prod(_degrees(rs))


def _ball_size(rs: RootSystem, radius: int) -> int:
    """Affine Weyl elements of word length at most radius, counted.

    Bott's formula gives the length generating function of the affine
    Weyl group as prod (1 - t^d) / ((1 - t)(1 - t^(d - 1))) over the
    degrees d; the ball is the sum of its first radius + 1 coefficients.
    """
    series = [1] + [0] * radius
    for d in _degrees(rs):
        # times 1 + t + ... + t^(d-1), then divided by 1 - t^(d-1)
        series = [sum(series[max(0, k - d + 1) : k + 1]) for k in range(radius + 1)]
        for k in range(d - 1, radius + 1):
            series[k] += series[k - d + 1]
    return sum(series)


def _combination(terms: Sequence[Tuple[int, int]]) -> Callable[[Matrix], Tuple[int, ...]]:
    """rows -> the sum of e * rows[i] over the (i, e) in terms."""
    # a finite letter needs sums of one or two rows, which skip the general sum
    if len(terms) == 1:
        ((i, e),) = terms
        return lambda rows: tuple([e * x for x in rows[i]])
    if len(terms) == 2:
        (i, e), (k, f) = terms
        return lambda rows: tuple([e * x + f * y for x, y in zip(rows[i], rows[k])])
    idx, coeffs = zip(*terms)
    return lambda rows: tuple([sum(map(mul, coeffs, col)) for col in zip(*[rows[i] for i in idx])])


def _reflection(u: Sequence[int], v: Sequence[int]) -> Callable[[Matrix], Matrix]:
    """rows -> (I - u v^T) rows, recomputing only the rows k with u_k != 0."""
    changes = [(k, _combination([(i, int(i == k) - uk * vi) for i, vi in enumerate(v)
                                 if int(i == k) != uk * vi]))
               for k, uk in enumerate(u) if uk]

    def times(rows: Matrix) -> Matrix:
        out = list(rows)
        for k, combine in changes:
            out[k] = combine(rows)
        return tuple(out)

    return times


def _shortlex_walk(
    rs: RootSystem, letters: Sequence[int], radius: Optional[int] = None
) -> Iterator[Tuple[Tuple[int, ...], Matrix, Matrix, Tuple[int, ...]]]:
    """Elements spelled by words in `letters`, lazily, in ShortLex order.

    Yields (word, images, root_map_inv, translation), where images[i] =
    w(a_i) is column i of the root map.  Each w is keyed by y = h w^-1(x0)
    in point coordinates, with x0 = rho^vee / h inside the fundamental
    alcove, so y starts at (1, ..., 1).  Letter j's simple affine root
    takes the value a = y_j there (h - theta(y) for j = 0), and w s_j is
    longer exactly when a > 0 (Humphreys, Reflection Groups and Coxeter
    Groups, 5.4); its key is then y - a c, c_i = <a_i, r^vee> for the
    letter's root r.  As s_j = I - r c^T, the inverse root map changes
    only in the rows with r_k != 0, the root map only in the columns with
    c_i != 0, and the translation only at letter 0, by (w theta)^vee.
    Only the next level keeps a seen-set, as a longer child never meets an
    earlier one.  Levels grow in parent order, then letter order, so each
    word is its element's ShortLex least reduced word (Bjorner-Brenti, GTM
    231, ch. 3-4).  Without a radius the letters must generate a finite group.
    """
    l, h, theta = rs.rank, rs.coxeter_number, rs.highest_root
    steps = []
    for j in sorted(letters):
        r = _letter_root(rs, j)
        c = _translation_pairing(rs, rs.coroot(r))
        moves = [(i, ci) for i, ci in enumerate(c) if ci]
        steps.append((j, moves, _reflection(c, r), _reflection(r, c)))
    eye = _identity(l)
    level = [((), (1,) * l, eye, eye, (0,) * l)]
    size = length = 0
    while level:
        size += len(level)
        if size > _FINITE_WALK_LIMIT:
            raise ValueError(f"Weyl group enumeration over {_FINITE_WALK_LIMIT:,} elements")
        nxt, seen = [], set()
        for word, y, images, minv, t in level:
            yield word, images, minv, t
            if length == radius:
                continue
            for j, moves, on_images, on_inverse in steps:
                a = y[j - 1] if j else h - _dot(theta, y)
                if a <= 0:
                    continue
                key = list(y)
                for i, ci in moves:
                    key[i] -= a * ci
                key = tuple(key)
                if key in seen:
                    continue
                seen.add(key)
                shift = t
                if not j:
                    w_theta = tuple(_dot(theta, col) for col in zip(*images))
                    shift = tuple(u + v for u, v in zip(t, rs.coroot(w_theta)))
                nxt.append((word + (j,), key, on_images(images), on_inverse(minv), shift))
        level, length = nxt, length + 1


def _element(rs: RootSystem, word, images, root_map_inv, translation) -> AffineWeylElement:
    """The element of one step of the walk."""
    return AffineWeylElement(rs, tuple(zip(*images)), root_map_inv, translation, word,
                             (0,) * rs.rank)


def _finite_elements(rs: RootSystem) -> List[AffineWeylElement]:
    """The finite Weyl group: words in the letters 1..l."""
    return [_element(rs, *step) for step in _shortlex_walk(rs, range(1, rs.rank + 1))]


def _refuse_large_ball(rs: RootSystem, radius: int) -> None:
    """Refuse, with its size, a ball of radius over the walk limit.

    Bott's series has coefficients of at least l + 1 at every length
    from 1 on, so a ball whose lower bound 1 + (l + 1) * radius already
    passes the limit is refused without summing the series.
    """
    lower = 1 + (rs.rank + 1) * radius
    size = lower if lower > _FINITE_WALK_LIMIT else _ball_size(rs, radius)
    if size > _FINITE_WALK_LIMIT:
        least = "at least " if size == lower else ""
        raise ValueError(f"the {rs.cartan_type} affine Weyl ball of radius {radius} has "
                         f"{least}{size:,} elements; the limit is {_FINITE_WALK_LIMIT:,}")


def _ball(rs: RootSystem, radius: int) -> List[AffineWeylElement]:
    """Affine Weyl elements of word length at most radius, built whole.

    A ball over the walk limit is refused up front by `_refuse_large_ball`.
    """
    _refuse_large_ball(rs, radius)
    return [_element(rs, *step) for step in _shortlex_walk(rs, range(rs.rank + 1), radius)]


def long_element(rs: RootSystem, subset) -> AffineWeylElement:
    """Longest element of the standard parabolic on the given letters.

    The subset must be a proper nonempty part of {0, ..., l}, so the
    parabolic is finite.  The result is checked to send every listed
    simple affine root to a negative one.
    """
    letters = sorted(set(subset))
    if not letters:
        raise ValueError("subset of simple reflections must be nonempty")
    if len(letters) > rs.rank or any(i < 0 or i > rs.rank for i in letters):
        raise ValueError("subset must be a proper part of the affine diagram")
    steps = list(_shortlex_walk(rs, letters))
    longest = [step for step in steps if len(step[0]) == len(steps[-1][0])]
    assert len(longest) == 1, "longest element must be unique"
    w = _element(rs, *longest[0])
    simples = simple_affine_roots(rs)
    for i in letters:
        image = w.act_on_root(simples[i])
        assert not is_positive_affine(rs, image), "long element postcondition"
    return w


# ----------------------------------------------------------------------
# support spaces and condition (*)

def support(ctx: Context, mu, s) -> FrozenSet[AffineRoot]:
    """Shallow roots (at the context's point) with alpha(mu) >= s."""
    mu = tuple(Fraction(x) for x in mu)
    s = Fraction(s)
    return frozenset(r for r in ctx.roots if depth(r, mu) >= s)


# coefficients . x <= rhs, in integers
IntegerRow = Tuple[Tuple[int, ...], int]


def _reduced(coeffs: Tuple[int, ...], rhs: int) -> IntegerRow:
    """The row divided by the gcd of all its entries."""
    g = math.gcd(*coeffs, rhs)
    if g > 1:
        return tuple(c // g for c in coeffs), rhs // g
    return coeffs, rhs


# coefficients . x <= rhs in integers, and the bit mask of the polytope's
# rows it was combined from
SourcedRow = Tuple[Tuple[int, ...], int, int]


def _fm_eliminate(rows: List[SourcedRow], var: int, most: float) -> List[SourcedRow]:
    """Project out one variable, keeping the tightest row per direction.

    A pair of rows with opposite signs at var is combined with the least
    integer multipliers that cancel it, and is built from the union of
    their sources.  A combination built from more than `most` of the
    polytope's rows is dropped (Chernikov's rule, below).  Of rows whose
    coefficients are positive multiples of one primitive direction d,
    say g * d . x <= b, only the least b / g is kept, and of equal bounds
    the one built from fewer rows.  Every row kept is a nonnegative
    combination of the polytope's rows, so it holds on the polytope.

    Without the rule (most = inf) the rows the direction step drops are
    implied, so the projection is exact, but on dense supports the row
    count compounds.  After k eliminations a row built from more than
    k + 1 of the polytope's rows is implied by the other rows of plain FM
    (Chernikov, The convolution of finite systems of linear inequalities,
    USSR Comput. Math. Math. Phys. 5, 1965), but not always by the rows
    the direction step keeps: with most = k + 1 a projection can come out
    looser than the exact one, never tighter.
    """
    zero, pos, neg = [], [], []
    for row in rows:
        c = row[0][var]
        (zero if c == 0 else pos if c > 0 else neg).append(row)
    out = zero
    for cp, bp, sp in pos:
        a = cp[var]
        for cn, bn, sn in neg:
            sources = sp | sn
            if sources.bit_count() > most:
                continue
            c = -cn[var]
            g = math.gcd(a, c)
            x, y = c // g, a // g
            coeffs, rhs = _reduced(tuple(x * u + y * v for u, v in zip(cp, cn)), x * bp + y * bn)
            out.append((coeffs, rhs, sources))
    # direction -> (rhs, g, source count, row) of its tightest row
    tightest: Dict[Tuple[int, ...], Tuple[int, int, int, SourcedRow]] = {}
    for row in out:
        coeffs, rhs, sources = row
        g = math.gcd(*coeffs) or 1
        direction = tuple(c // g for c in coeffs)
        count = sources.bit_count()
        best = tightest.get(direction)
        if best is not None:
            # rhs / g against best_rhs / best_g, then the source counts
            looser = rhs * best[1] - best[0] * g
            if looser > 0 or looser == 0 and count >= best[2]:
                continue
        tightest[direction] = (rhs, g, count, row)
    return [best[3] for best in tightest.values()]


class StarVerdict(NamedTuple):
    status: str  # "holds" | "fails" | "inconclusive"
    witness: Optional[AffineWeylElement]
    bounded: bool
    radius: Optional[int]

    def to_json(self) -> Dict:
        witness = self.witness.to_json() if self.witness else None
        return {"condition_star": self.status, "witness": witness,
                "polytope_bounded": self.bounded, "radius": self.radius}


# (coefficient of x_m, coefficients of x_0..x_(m-1) then of the base, rhs)
ChainRow = Tuple[int, Tuple[int, ...], int]


def _chain(rs: RootSystem, bounds: Sequence[Tuple[Root, int]],
           pruned: bool = True) -> List[List[ChainRow]]:
    """Nested bounds on the points mu = base + sum x_j a_j^vee of a polytope.

    bounds holds the polytope's integer rows g . mu <= b.  The coordinates
    of the base are extra variables that are never eliminated, so one
    chain serves every base.  Eliminating x_(l-1) down to x_1 leaves
    chain[m] bounding x_m by x_0..x_(m-1) and the base (Ancourt-Irigoin,
    Scanning polyhedra with DO loops, PPoPP 1991); the last link is the
    rows themselves, so every point listed lies in the polytope.  Pruned,
    the k-th elimination keeps only rows built from at most k + 1 of the
    polytope's rows, which keeps dense supports small; a link may then
    be looser than the exact projection (see `_fm_eliminate`), so it may
    list prefixes that lead to no point, and read as unbounded a bounded
    polytope.  Unpruned, every link is the exact projection.
    """
    l = rs.rank
    # a_j^vee has the coordinates cartan[j]
    rows = [_reduced(tuple(_dot(g, row) for row in rs.cartan) + tuple(g), b) + (1 << i,)
            for i, (g, b) in enumerate(bounds)]
    chain = []
    for k, var in enumerate(range(l - 1, -1, -1), 1):
        chain.append([(c[var], c[:var] + c[l:], rhs) for c, rhs, _ in rows])
        if var:
            rows = _fm_eliminate(rows, var, k + 1 if pruned else math.inf)
    return chain[::-1]


def _chain_bounded(chain: Sequence[Sequence[ChainRow]]) -> bool:
    """Does every link bound its coordinate on both sides?

    If so the polytope is bounded, as every link holds on it.  For a
    nonempty polytope and an unpruned chain the converse holds too: a
    link with no row of one sign lets its coordinate run off to that side.
    """
    return all(any(c > 0 for c, _, _ in link) and any(c < 0 for c, _, _ in link)
               for link in chain)


def _recedes(rs: RootSystem, chain: Sequence[Sequence[ChainRow]]) -> bool:
    """Is a nonzero coroot point of the polytope's recession cone found?

    With the right-hand sides and the base at 0, the chain's rows bound
    the points d of the cone {g . d <= 0}, and its last link is exact, so
    a nonzero point listed is a ray: the polytope is unbounded.  Only the
    box of radius h is searched, which on E6-E8 holds a coroot multiple
    of each fundamental coweight and of its images under W, the rays
    such a cone may have, over at most _FINITE_WALK_LIMIT coordinates;
    so False means only that no ray was found.
    """
    cone = [[(c, b, 0) for c, b, _ in link] for link in chain]
    points = _chain_points(cone, (0,) * rs.rank, radius=rs.coxeter_number,
                           limit=_FINITE_WALK_LIMIT)
    return any(x is not None and any(x) for x in points)


def _solutions(rows: Sequence[ChainRow], fixed: Sequence[int], lo, hi, stride: int) -> range:
    """The multiples x of stride in [lo, hi] with c * x + b . fixed <= rhs for every row.

    Unless a row with c = 0 fails, the rows must bound x on each side
    that lo and hi leave infinite.
    """
    for c, b, rhs in rows:
        rhs -= _dot(b, fixed)
        if c > 0:
            hi = min(hi, rhs // c)
        elif c < 0:
            lo = max(lo, -(rhs // -c))
        elif rhs < 0:
            return range(0)
    lo = -(-lo // stride) * stride
    return range(lo, hi + 1, stride) if lo <= hi else range(0)


def _chain_points(chain: Sequence[Sequence[ChainRow]], base: Tuple[int, ...], stride: int = 1,
                  radius: Optional[int] = None,
                  limit: float = math.inf) -> Iterator[Optional[Tuple[int, ...]]]:
    """The chain's points x at the base, lazily, in lexicographic order.

    Every x_j is a multiple of stride, and at most radius in size if a
    radius is given; without one the polytope must be bounded.  Once more
    than limit coordinates were visited, partial prefixes counted, None is
    yielded and the points stop.
    """
    lo, hi = (-math.inf, math.inf) if radius is None else (-radius, radius)
    stack: List[Tuple[int, ...]] = [()]
    visited = 1
    while stack:
        x = stack.pop()
        if len(x) == len(chain):
            yield x
            continue
        span = _solutions(chain[len(x)], x + base, lo, hi, stride)
        visited += len(span)
        if visited > limit:
            yield None
            return
        stack.extend(x + (v,) for v in reversed(span))


def _fold(rs: RootSystem, n: int, mu: Sequence[int]) -> Tuple[int, ...]:
    """n * the point of the closed fundamental alcove in the orbit of mu / n.

    While mu / n lies strictly across a wall of the alcove, a_i(mu) < 0
    or theta(mu) > n, it is reflected in that wall.  Each reflection
    takes one affine hyperplane off those strictly between the point and
    the alcove, so the loop ends, and as the closed alcove is a
    fundamental domain for the affine Weyl group (Humphreys, Reflection
    Groups and Coxeter Groups, ch. 4) two points share an orbit exactly
    when they fold to the same point.
    """
    theta = rs.highest_root
    theta_vee = _translation_pairing(rs, rs.coroot(theta))
    mu = list(mu)
    while True:
        # a_i^vee has the coordinates cartan[i]
        i = next((i for i, x in enumerate(mu) if x < 0), None)
        if i is not None:
            a, wall = mu[i], rs.cartan[i]
        else:
            a, wall = _dot(theta, mu) - n, theta_vee
            if a <= 0:
                return tuple(mu)
        mu = [x - a * c for x, c in zip(mu, wall)]


def _scan_holds(rs: RootSystem, n: int, point: Tuple[int, ...],
                chain: Sequence[Sequence[ChainRow]], limit: int) -> bool:
    """No orbit point but lambda in the bounded polytope, by its lattice points?

    Every orbit point lies in lambda + Q^vee / n, so the scan runs over
    the chain's points n * mu = point + sum x_j a_j^vee.  Each one other
    than lambda is folded and compared with lambda's fold.  False when one
    matches, or when the scan would visit more than limit points,
    counting the partial x's; the caller then walks.
    """
    target = _fold(rs, n, point)
    for x in _chain_points(chain, point, limit=limit):
        if x is None:
            return False
        mu = tuple(map(add, point, _translation_pairing(rs, x)))
        if mu != point and _fold(rs, n, mu) == target:
            return False
    return True


def condition_star(chi: ShallowCharacter, radius: int = 4) -> StarVerdict:
    """Search for w with w(lambda) != lambda avoiding chi's deep supports.

    A witness is an orbit point mu = w(lambda) with alpha(mu) <= depth(chi)
    for every shallow alpha carrying a nontrivial parameter.  One chain
    of eliminations, pruned by Chernikov's rule, bounds the points of the
    polytope those inequalities cut out.  A pruned chain may read a
    bounded polytope as unbounded, so that reading stands only once a ray
    of the polytope is found; otherwise the chain is rebuilt unpruned.
    If it is bounded, its lattice points are scanned first: when none but
    lambda folds to lambda's point of the alcove, the verdict is "holds"
    without a walk.  Otherwise, or when the scan would visit more than
    min(|W|, _FINITE_WALK_LIMIT) points, the chain lists the points of
    the polytope at each finite orbit point in turn and the verdict is
    exact; for an unbounded polytope only translations up to the radius
    are swept.  An unbounded polytope always fails: its recession cone
    is rational and nonzero, so it holds a nonzero coroot k, and t_k
    moves lambda to lambda + k inside it.  So "inconclusive" means
    "fails, with no witness within the radius".  The finite Weyl group
    is walked lazily and the search stops at its first witness.  No type
    is refused up front: a walk that would pass the walk limit before a
    verdict is refused with a ValueError naming condition (*) and the type.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ctx = chi.context
    rs = ctx.rs
    supp = [r for r, c in zip(ctx.roots, chi.vector) if c]
    if not supp:
        raise ValueError("condition (*) is degenerate for the trivial character")
    r = char_depth(chi)
    # points are scaled by n, so lambda and its finite orbit are integral
    n, point = ctx.scaled_point
    bounds = [(a.gradient, math.floor(n * (r - a.level))) for a in supp]
    chain = _chain(rs, bounds)
    bounded = _chain_bounded(chain)
    if not bounded and not _recedes(rs, chain):
        # no ray confirms the pruned chain's reading, which may be wrong;
        # lambda satisfies every row, so the polytope is nonempty and the
        # unpruned chain reads its boundedness
        chain = _chain(rs, bounds, pruned=False)
        bounded = _chain_bounded(chain)
    sweep = None if bounded else radius
    budget = min(_weyl_group_order(rs), _FINITE_WALK_LIMIT)
    if bounded and _scan_holds(rs, n, point, chain, budget):
        return StarVerdict("holds", None, True, None)
    # the orbit points nu + sum x_j a_j^vee of the polytope have x = n * k
    try:
        for word, images, minv, _ in _shortlex_walk(rs, range(1, rs.rank + 1)):
            nu = tuple(_dot(col, point) for col in zip(*minv))
            for x in _chain_points(chain, nu, n, None if bounded else n * radius):
                # a translation can undo a nontrivial w, so mu is compared, not x
                if tuple(map(add, nu, _translation_pairing(rs, x))) != point:
                    k = tuple(v // n for v in x)
                    w = AffineWeylElement(rs, tuple(zip(*images)), minv, k, word, k)
                    return StarVerdict("fails", w, bounded, sweep)
    except ValueError as exc:
        raise ValueError(f"condition (*) on {rs.cartan_type} reached no verdict "
                         f"within the walk limit: {exc}") from None
    return StarVerdict("holds" if bounded else "inconclusive", None, bounded, sweep)


class BarycenterReport(NamedTuple):
    all_simple_nontrivial: bool
    star: StarVerdict


def barycenter_criterion(chi: ShallowCharacter) -> BarycenterReport:
    """All simple parameters nontrivial?  Cross-checked against condition (*).

    Only defined for a validated character of minimal positive depth at
    the barycenter, where the two verdicts must agree.
    """
    ctx = chi.context
    if ctx.point != barycenter(ctx.rs):
        raise ValueError("criterion applies at the barycenter only")
    h = ctx.rs.coxeter_number
    if char_depth(chi) != Fraction(1, h):
        raise ValueError("criterion applies to minimal-depth characters only")
    if not validate(chi).ok:
        raise ValueError("character must satisfy the relations")
    simples = simple_affine_roots(ctx.rs)
    value = all(chi.vector[ctx.index[a]] for a in simples)
    star = condition_star(chi)
    assert star.status in ("holds", "fails")
    assert (star.status == "holds") == value, "criterion and condition (*) disagree"
    return BarycenterReport(value, star)


# ----------------------------------------------------------------------
# intertwining

class ReductionVerdict(NamedTuple):
    compatible: bool
    violated: Optional[AffineRoot]

    def __bool__(self) -> bool:
        return self.compatible


def intertwining_reduction(chi: ShallowCharacter, w: AffineWeylElement) -> ReductionVerdict:
    """Compare chi with its w-conjugate on the roots where both live.

    For each affine root beta with beta(lambda) > 0 and (w beta)(lambda) > 0,
    the parameters must satisfy c_{w beta} = eta c_beta, where eta is the
    conjugation sign and parameters of non-shallow roots are zero.  The
    first violating beta (sorted by gradient then level) is reported.
    Values at lambda are compared in integers, at lambda scaled by n.
    This ranked report is kept for the tests and the benchmark tracer;
    `intertwining_scan` makes the same test in place, stopped at its
    first mismatch, and reads no violated root.
    """
    ctx = chi.context
    f = ctx.field
    n, point = ctx.scaled_point
    root_map, root_map_inv, pairing = w.root_map, w.root_map_inv, w.pairing
    # beta -> w beta for every beta that w moves off or onto chi's support;
    # for any other beta both parameters are zero and nothing can fail.
    # Shallow roots are positive at lambda, so only the other side is tested.
    images: Dict[AffineRoot, AffineRoot] = {}
    for alpha, c in zip(ctx.roots, chi.vector):
        if c:
            gradient, level = alpha
            a = _apply(root_map, gradient)
            up = level - _dot(a, pairing)
            if _dot(a, point) + n * up > 0:
                images[alpha] = AffineRoot(a, up)
            b = _apply(root_map_inv, gradient)
            down = level + _dot(gradient, pairing)
            if _dot(b, point) + n * down > 0:
                images[AffineRoot(b, down)] = alpha

    def param(alpha: AffineRoot) -> int:
        pos = ctx.index.get(alpha)
        return chi.vector[pos] if pos is not None else 0

    for beta in sorted(images):
        image = images[beta]
        eta = w.sign(ctx.pinning, beta)
        if param(image) != f.mul(f.from_int(eta), param(beta)):
            return ReductionVerdict(False, beta)
    return ReductionVerdict(True, None)


def _compatibility_test(chi: ShallowCharacter):
    """The test of `intertwining_reduction`, on one step of the walk.

    Returns test(word, images, inverse_columns, pairing) -> bool, with
    images[i] = w(a_i) and inverse_columns[i] = w^-1(a_i), so that w(g)
    and w^-1(g) are the same sums of them for a gradient g.  Each root of
    chi's support is tested at its image, then at its preimage, and the
    test stops at its first mismatch.  A root off the support has
    parameter zero, so a positive image or preimage off the support is a
    mismatch with no sign to look up.
    """
    ctx = chi.context
    neg = ctx.field.neg
    n, point = ctx.scaled_point
    tables = ctx.pinning.letter_tables
    values = {(gradient, level): c for (gradient, level), c in zip(ctx.roots, chi.vector) if c}
    support = [(gradient, level, c, neg(c),
                _combination([(i, x) for i, x in enumerate(gradient) if x]))
               for (gradient, level), c in values.items()]

    def test(word, images, inverse_columns, pairing) -> bool:
        for gradient, level, c, minus_c, combine in support:
            a = combine(images)
            up = level - _dot(a, pairing)
            if _dot(a, point) + n * up > 0:
                image = values.get((a, up))
                if image != (c if _word_sign(tables, word, gradient) > 0 else minus_c):
                    return False
            b = combine(inverse_columns)
            down = level + _dot(gradient, pairing)
            if _dot(b, point) + n * down > 0:
                beta = values.get((b, down))
                if beta is None or c != (beta if _word_sign(tables, word, b) > 0 else neg(beta)):
                    return False
        return True

    return test


class ScanResult(NamedTuple):
    verdict: str  # "collapses_to_P_chi" | "counterexample" | "inconclusive"
    witness: Optional[AffineWeylElement]
    radius: int
    moved_checked: int
    stabilizer: Tuple[AffineWeylElement, ...]

    def to_json(self) -> Dict:
        witness = self.witness.to_json() if self.witness else None
        return {"intertwining": self.verdict, "witness": witness, "radius": self.radius,
                "moved_checked": self.moved_checked, "stabilizer_size": len(self.stabilizer)}


def intertwining_scan(chi: ShallowCharacter, radius: int = 8) -> ScanResult:
    """Walk the word-length ball; look for a compatible w moving lambda.

    Every element moving lambda but conjugating chi compatibly is a
    counterexample to the collapse; if all moved elements are violated,
    the collapse verdict holds for the scanned ball (the radius is part
    of the answer).  Elements fixing lambda and chi form the reported
    stabilizer shadow.  A ball over the walk limit is refused before the
    walk starts.  Each step of the walk is tested where it stands, by
    `_compatibility_test`, and an element is built only for the witness
    or a member of the stabilizer.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ctx = chi.context
    if not validate(chi).ok:
        raise ValueError("scan requires a character satisfying the relations")
    rs = ctx.rs
    _refuse_large_ball(rs, radius)
    n, point = ctx.scaled_point
    compatible = _compatibility_test(chi)
    stabilizer = []
    moved = 0
    for step in _shortlex_walk(rs, range(rs.rank + 1), radius):
        word, images, root_map_inv, translation = step
        pairing = _translation_pairing(rs, translation)
        columns = tuple(zip(*root_map_inv))
        # n * w(lambda) = point, as in `_move_point`
        fixes = all(_dot(column, point) + n * t == x
                    for column, t, x in zip(columns, pairing, point))
        if not fixes:
            moved += 1
        if not compatible(word, images, columns, pairing):
            continue
        w = _element(rs, *step)
        if not fixes:
            return ScanResult("counterexample", w, radius, moved, tuple(stabilizer))
        stabilizer.append(w)
    outcome = "collapses_to_P_chi" if moved else "inconclusive"
    return ScanResult(outcome, None, radius, moved, tuple(stabilizer))
