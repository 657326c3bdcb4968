"""Affine Weyl group action and the intertwining checks built on it.

An element is its linear part, an exact integer matrix on root
coordinates kept with its inverse, plus a coroot-lattice translation,
together with the generating word it was built from.  The linear part
acts on coroots through w(a^vee) = (w a)^vee, so no second matrix is
kept.  Words use affine labels: letter 0 is the reflection through the
level-one hyperplane of the highest root, letters 1..l are the finite
simple reflections.

The condition-star search is exact whenever its witness polytope is
bounded.  Fourier-Motzkin elimination over rationals projects it onto
each coroot coordinate once per character, with the finite orbit point
kept symbolic, and boundedness is read off those projections.  Scaled
once to integers, they bound the translations tried at each orbit point,
and in the bounded case every orbit point inside the polytope is tried.
Otherwise the search is a bounded translation sweep and a negative
outcome is reported as inconclusive, never extrapolated.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .affine_roots import (
    AffineRoot,
    Point,
    barycenter,
    depth,
    is_positive_affine,
    simple_affine_roots,
)
from .characters import ShallowCharacter, char_depth, validate
from .chevalley import Matrix
from .context import Context
from .root_system import RootSystem, Root, negate


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
    n = len(m)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


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


def _unit(l: int, j: int) -> Tuple[int, ...]:
    return tuple(int(p == j) for p in range(l))


def _letter_root(rs: RootSystem, letter: int) -> Root:
    """The root whose reflection is the linear part of a letter."""
    if letter == 0:
        return negate(rs.highest_root)
    return _unit(rs.rank, letter - 1)


class AffineWeylElement:
    """t_translation composed with the product of the word's reflections."""

    def __init__(
        self,
        rs: RootSystem,
        root_map: Matrix,
        root_map_inv: Matrix,
        translation: Tuple[int, ...],
        word: Tuple[int, ...],
        word_translation: Tuple[int, ...],
    ):
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
        rmap = tuple(zip(*(rs.reflect(_unit(l, j), r) for j in range(l))))
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
            self.rs,
            _mat_mul(self.root_map, other.root_map),
            _mat_mul(other.root_map_inv, self.root_map_inv),
            shift(self.translation, other.translation),
            self.word + other.word,
            shift(self.word_translation, other.word_translation),
        )

    def inverse(self) -> "AffineWeylElement":
        def back(k):
            return tuple(-x for x in _on_coroots(self.rs, self.root_map_inv, k))

        return AffineWeylElement(
            self.rs,
            self.root_map_inv,
            self.root_map,
            back(self.translation),
            tuple(reversed(self.word)),
            back(self.word_translation),
        )

    def key(self) -> Tuple:
        return (self.root_map, self.translation)

    def is_identity(self) -> bool:
        return self.key() == AffineWeylElement.identity(self.rs).key()

    # -- actions ---------------------------------------------------------

    def act_on_root(self, alpha: AffineRoot) -> AffineRoot:
        a = _apply(self.root_map, alpha.gradient)
        assert self.rs.is_root(a)
        shift = sum(
            k * sum(a[p] * self.rs.cartan[j][p] for p in range(self.rs.rank))
            for j, k in enumerate(self.translation)
        )
        return AffineRoot(a, alpha.level - shift)

    def act_on_point(self, mu: Point) -> Point:
        l = self.rs.rank
        out = []
        for i in range(l):
            v = sum(self.root_map_inv[p][i] * mu[p] for p in range(l))
            v += sum(
                k * self.rs.cartan[j][i] for j, k in enumerate(self.translation)
            )
            out.append(Fraction(v))
        return tuple(out)

    def sign(self, pinning, alpha: AffineRoot) -> int:
        """Sign of the conjugation u_alpha(x) -> u_{w alpha}(eta x).

        Computed from this element's word, folding one reflection at a
        time; the translation part acts by +1.  The value depends on the
        chosen word and lift convention, not just on the group element.
        """
        gradient = alpha.gradient
        eta = 1
        for letter in reversed(self.word):
            r = _letter_root(self.rs, letter)
            eta *= pinning.reflection_sign(r, gradient)
            gradient = self.rs.reflect(gradient, r)
        return eta

    def to_json(self) -> Dict:
        return {
            "word": list(self.word),
            "translation": list(self.word_translation),
        }

    def __repr__(self) -> str:
        return f"AffineWeylElement(word={self.word}, t={self.word_translation})"


def act_on_root(w: AffineWeylElement, alpha: AffineRoot) -> AffineRoot:
    return w.act_on_root(alpha)


def act_on_point(w: AffineWeylElement, mu) -> Point:
    return w.act_on_point(tuple(Fraction(x) for x in mu))


# ----------------------------------------------------------------------
# enumeration: one breadth-first walk over words in chosen letters

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


def _bfs(
    rs: RootSystem, letters: Sequence[int], radius: Optional[int] = None
) -> List[AffineWeylElement]:
    """Elements spelled by words in `letters`, breadth first.

    Each element keeps the first word that reached it, so words are
    reduced and nondecreasing in length.  With a radius the walk stops
    at that word length; without one it runs until the generated group
    is exhausted, which must be finite.
    """
    gens = [AffineWeylElement.simple(rs, i) for i in letters]
    out = [AffineWeylElement.identity(rs)]
    seen = {out[0].key()}
    frontier = list(out)
    length = 0
    while frontier and (radius is None or length < radius):
        nxt = []
        for w in frontier:
            for g in gens:
                child = w.compose(g)
                if child.key() not in seen:
                    seen.add(child.key())
                    nxt.append(child)
        out.extend(nxt)
        frontier = nxt
        length += 1
        if len(out) > _FINITE_WALK_LIMIT:
            raise ValueError(f"Weyl group enumeration over {_FINITE_WALK_LIMIT:,} elements")
    return out


def _finite_elements(rs: RootSystem) -> List[AffineWeylElement]:
    """The finite Weyl group: words in the letters 1..l."""
    return _bfs(rs, range(1, rs.rank + 1))


def _ball(rs: RootSystem, radius: int) -> List[AffineWeylElement]:
    """Affine Weyl elements of word length at most radius.

    The whole ball is built before any use, so one over the walk limit
    is refused up front with its size.
    """
    size = _ball_size(rs, radius)
    if size > _FINITE_WALK_LIMIT:
        raise ValueError(f"the {rs.cartan_type} affine Weyl ball of radius {radius} has "
                         f"{size:,} elements; the limit is {_FINITE_WALK_LIMIT:,}")
    return _bfs(rs, range(rs.rank + 1), radius)


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
    elements = _bfs(rs, letters)
    last_level = len(elements[-1].word)
    longest = [w for w in elements if len(w.word) == last_level]
    assert len(longest) == 1, "longest element must be unique"
    w = longest[0]
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


InequalityRows = List[Tuple[Tuple[Fraction, ...], Fraction]]


def _fm_eliminate(rows: InequalityRows, var: int) -> InequalityRows:
    """Project out one variable, keeping the tightest row per direction.

    Each row is scaled so that its first nonzero coefficient is +-1, and
    of rows with equal scaled coefficients only the least right-hand
    side is kept.  The others are implied, so the projection is
    unchanged, but the row count no longer compounds.
    """
    zero, pos, neg = [], [], []
    for coeffs, rhs in rows:
        c = coeffs[var]
        if c == 0:
            zero.append((coeffs, rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    out = list(zero)
    for cp, bp in pos:
        for cn, bn in neg:
            a, c = cp[var], cn[var]
            coeffs = tuple(-c * x + a * y for x, y in zip(cp, cn))
            out.append((coeffs, -c * bp + a * bn))
    tightest: Dict[Tuple[Fraction, ...], Fraction] = {}
    for coeffs, rhs in out:
        lead = next((abs(c) for c in coeffs if c), 1)
        coeffs = tuple(c / lead for c in coeffs)
        rhs = rhs / lead
        if coeffs not in tightest or rhs < tightest[coeffs]:
            tightest[coeffs] = rhs
    return list(tightest.items())


class StarVerdict(NamedTuple):
    status: str  # "holds" | "fails" | "inconclusive"
    witness: Optional[AffineWeylElement]
    bounded: bool
    radius: Optional[int]

    def to_json(self) -> Dict:
        return {
            "condition_star": self.status,
            "witness": self.witness.to_json() if self.witness else None,
            "polytope_bounded": self.bounded,
            "radius": self.radius,
        }


# (coefficient of k_j, coefficients of nu, right-hand side), in integers
ProjectedRow = Tuple[int, Tuple[int, ...], int]


def _integral(c: Fraction, b: Sequence[Fraction], rhs: Fraction) -> ProjectedRow:
    """The row c * k + b . nu <= rhs with its denominators cleared."""
    scale = math.lcm(c.denominator, rhs.denominator, *(x.denominator for x in b))
    return int(c * scale), tuple(int(x * scale) for x in b), int(rhs * scale)


def _coroot_projections(
    rs: RootSystem, rows_mu: InequalityRows, n: int
) -> List[List[ProjectedRow]]:
    """Bounds on each k_j for the points nu / n + sum_i k_i a_i^vee.

    Fourier-Motzkin runs once per character: the coordinates of nu are
    extra variables that are never eliminated, so a finite Weyl element
    only substitutes its own nu = n * w(lambda).  Entry j holds the rows
    c * k_j + b . nu <= rhs left after eliminating every other k_i, each
    scaled to integers.
    """
    l = rs.rank
    rows: InequalityRows = []
    for coeffs, rhs in rows_mu:
        # a(nu / n + sum k_j a_j^vee): a_j^vee has coordinates cartan[j]
        kc = tuple(
            sum(coeffs[i] * rs.cartan[j][i] for i in range(l)) for j in range(l)
        )
        rows.append((kc + coeffs, rhs))
    out = []
    for keep in range(l):
        proj = rows
        for var in range(l):
            if var != keep:
                proj = _fm_eliminate(proj, var)
        out.append([_integral(n * c[keep], c[l:], n * rhs) for c, rhs in proj])
    return out


def _orbit_witness_ranges(
    nu: Sequence[int], projections: List[List[ProjectedRow]], radius: Optional[int]
) -> List[range]:
    """Integer k-ranges with nu / n + k of possible interest.

    Without a radius each projection must bound k_j on both sides.
    """
    ranges = []
    for rows in projections:
        lo, hi = (-math.inf, math.inf) if radius is None else (-radius, radius)
        for c, b, rhs in rows:
            rhs -= sum(x * y for x, y in zip(b, nu))
            if c > 0:
                hi = min(hi, rhs // c)
            elif c < 0:
                lo = max(lo, -(rhs // -c))
            elif rhs < 0:
                return [range(0)] * len(projections)
        ranges.append(range(lo, hi + 1))
    return ranges


def condition_star(chi: ShallowCharacter, radius: int = 4) -> StarVerdict:
    """Search for w with w(lambda) != lambda avoiding chi's deep supports.

    A witness is an orbit point mu = w(lambda) with alpha(mu) <= depth(chi)
    for every shallow alpha carrying a nontrivial parameter.  If the
    polytope those inequalities cut out is bounded, the whole orbit
    inside it is enumerated and the verdict is exact; otherwise only
    translations up to the radius are swept.  The finite Weyl group is
    walked in full, so types whose group is too large for it are refused.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ctx = chi.context
    rs = ctx.rs
    order = _weyl_group_order(rs)
    if order > _FINITE_WALK_LIMIT:
        raise ValueError(f"condition (*) walks all of W({rs.cartan_type}), of order "
                         f"{order:,}; the limit is {_FINITE_WALK_LIMIT:,}")
    supp = [r for r, c in zip(ctx.roots, chi.vector) if c]
    if not supp:
        raise ValueError("condition (*) is degenerate for the trivial character")
    r = char_depth(chi)
    rows_mu: InequalityRows = [
        (tuple(Fraction(c) for c in a.gradient), r - a.level) for a in supp
    ]
    # points are scaled by n, so lambda and its finite orbit are integral
    n = math.lcm(*(x.denominator for x in ctx.point))
    point = tuple(int(x * n) for x in ctx.point)
    projections = _coroot_projections(rs, rows_mu, n)
    # lambda satisfies every row, so the polytope is nonempty, and it is
    # bounded exactly when each projection bounds k_j on both sides
    bounded = all(
        any(c > 0 for c, _, _ in rows) and any(c < 0 for c, _, _ in rows)
        for rows in projections
    )
    sweep = None if bounded else radius
    bounds = [(a.gradient, math.floor(n * (r - a.level))) for a in supp]
    # k -> n * sum k_j a_j^vee, in the coordinates of points
    shift = tuple(zip(*((n * x for x in row) for row in rs.cartan)))
    for w_fin in _finite_elements(rs):
        nu = _apply(tuple(zip(*w_fin.root_map_inv)), point)
        for k in itertools.product(*_orbit_witness_ranges(nu, projections, sweep)):
            mu = tuple(x + y for x, y in zip(nu, _apply(shift, k)))
            if mu != point and all(sum(x * y for x, y in zip(g, mu)) <= b for g, b in bounds):
                w = AffineWeylElement(rs, w_fin.root_map, w_fin.root_map_inv, k, w_fin.word, k)
                return StarVerdict("fails", w, bounded, sweep)
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
    """
    ctx = chi.context
    winv = w.inverse()
    candidates = set(ctx.roots) | {winv.act_on_root(r) for r in ctx.roots}
    f = ctx.field

    def param(alpha: AffineRoot) -> int:
        pos = ctx.index.get(alpha)
        return chi.vector[pos] if pos is not None else 0

    for beta in sorted(candidates):
        if depth(beta, ctx.point) <= 0:
            continue
        image = w.act_on_root(beta)
        if depth(image, ctx.point) <= 0:
            continue
        eta = w.sign(ctx.pinning, beta)
        if param(image) != f.mul(f.from_int(eta), param(beta)):
            return ReductionVerdict(False, beta)
    return ReductionVerdict(True, None)


class ScanResult(NamedTuple):
    verdict: str  # "collapses_to_P_chi" | "counterexample" | "inconclusive"
    witness: Optional[AffineWeylElement]
    radius: int
    moved_checked: int
    stabilizer: Tuple[AffineWeylElement, ...]

    def to_json(self) -> Dict:
        return {
            "intertwining": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "radius": self.radius,
            "moved_checked": self.moved_checked,
            "stabilizer_size": len(self.stabilizer),
        }


def intertwining_scan(chi: ShallowCharacter, radius: int = 8) -> ScanResult:
    """Sweep the word-length ball; look for a compatible w moving lambda.

    Every element moving lambda but conjugating chi compatibly is a
    counterexample to the collapse; if all moved elements are violated,
    the collapse verdict holds for the scanned ball (the radius is part
    of the answer).  Elements fixing lambda and chi form the reported
    stabilizer shadow.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    ctx = chi.context
    if not validate(chi).ok:
        raise ValueError("scan requires a character satisfying the relations")
    stabilizer = []
    moved = 0
    for w in _ball(ctx.rs, radius):
        fixes = w.act_on_point(ctx.point) == ctx.point
        verdict = intertwining_reduction(chi, w)
        if fixes:
            if verdict.compatible:
                stabilizer.append(w)
            continue
        moved += 1
        if verdict.compatible:
            return ScanResult("counterexample", w, radius, moved, tuple(stabilizer))
    if moved == 0:
        return ScanResult("inconclusive", None, radius, 0, tuple(stabilizer))
    return ScanResult("collapses_to_P_chi", None, radius, moved, tuple(stabilizer))
