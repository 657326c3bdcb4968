"""Characters of the shallow quotient, their relations, and the solution space.

A character is a parameter vector: one element of F_q per shallow root,
with chi(u_alpha(x)) = psi(c_alpha * x) for the fixed additive character
psi = exp(2 pi i Tr(.) / p), whose exponents are the rows `FiniteField.psi`.
It extends to a homomorphism exactly when, for every non-parallel pair
of shallow roots, the product of its values over the commutator factors
in `Context.relations` is trivial as a function of the two generator
parameters.

The solver turns those product conditions into an F_p-linear system.
Over F_q the condition for a pair is that a polynomial function in two
variables vanishes identically; writing the trace as a sum of Frobenius
twists and reducing exponents modulo q - 1 splits it into one F_q-linear
equation per reduced monomial, hence m rows over F_p each.  The F_p
variables are ordered by the depth of their root, so one RREF of those
rows gives the whole depth filtration: each free column carries one
basis vector that vanishes past it, and dim V_r counts the free columns
of depth at most r.  An exhaustive oracle, independent of the rows,
cross-checks the solver on small contexts: a depth-first search over
parameter vectors that cuts a prefix as soon as a pair relation whose
targets it already fixes fails.  It stops past the last position any
relation reads and yields cylinders, which the check compares with the basis.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .affine_roots import AffineRoot, is_indecomposable, parse_point, point_to_json
from .context import Context, Factor
from .finite_field import FiniteField


class ShallowCharacter:
    def __init__(self, context: Context, params: Dict[AffineRoot, int]):
        if set(params) != set(context.roots):
            raise ValueError("params must be defined on exactly the shallow roots")
        self._bind(context, tuple(params[r] for r in context.roots))

    def _bind(self, context: Context, vector: Tuple[int, ...]) -> None:
        for v in vector:
            if type(v) is not int:  # bool is an int subclass, and refused too
                raise ValueError(f"parameter {v!r} is not an integer")
            if not 0 <= v < context.q:
                raise ValueError(f"parameter {v} outside F_{context.q}")
        self.context = context
        self.vector = vector

    @functools.cached_property
    def table(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-root lookup chi(u_alpha(x)), the field's psi rows, on first use."""
        psi = self.context.field.psi
        return tuple(psi[c] for c in self.vector)

    @classmethod
    def from_vector(cls, context: Context, vector: Sequence[int]) -> "ShallowCharacter":
        """The character with these parameters, in enumeration order."""
        if len(vector) != context.n_roots:
            raise ValueError("params must be defined on exactly the shallow roots")
        chi = cls.__new__(cls)
        chi._bind(context, tuple(vector))
        return chi

    def is_trivial(self) -> bool:
        return not any(self.vector)

    def to_json(self) -> Dict:
        return {
            "lambda": point_to_json(self.context.point),
            "q": self.context.q,
            "params": [
                {"root": r.to_json(), "c": c}
                for r, c in zip(self.context.roots, self.vector)
            ],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShallowCharacter)
            and self.context is other.context
            and self.vector == other.vector
        )

    def __hash__(self) -> int:
        return hash(self.vector)

    def __repr__(self) -> str:
        return f"ShallowCharacter({self.vector})"


def character_from_json(context: Context, data: Dict) -> ShallowCharacter:
    """The character of a `ShallowCharacter.to_json` object.

    An object without "params" but with a dict "character", as `classify
    --json` prints, is read through that dict.  Anything but a list
    "params" of {"root": {"gradient": [int, ...], "level": int}, "c":
    int} objects, one per root, is refused with a ValueError, and so is
    a "q" or a "lambda", where present, that is not the context's field
    size or point.
    """
    if isinstance(data, dict) and "params" not in data and isinstance(data.get("character"), dict):
        data = data["character"]
    entries = data.get("params") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('a character needs a list "params"')
    if "q" in data and not (type(data["q"]) is int and data["q"] == context.q):
        raise ValueError(f"the character is over q = {data['q']!r}, not q = {context.q}")
    if "lambda" in data:
        point = data["lambda"]
        try:
            same = isinstance(point, list) and parse_point(point) == context.point
        except TypeError:
            same = False
        if not same:
            here = point_to_json(context.point)
            raise ValueError(f"the character is at the point {point!r}, not {here}")
    params = {}
    for entry in entries:
        try:
            gradient, level = entry["root"]["gradient"], entry["root"]["level"]
            c = entry["c"]
        except (KeyError, TypeError):
            raise ValueError(
                'each entry of "params" must be {"root": {"gradient": ..., "level": ...}, "c": ...}'
            ) from None
        if not (
            isinstance(gradient, list)
            and all(type(g) is int for g in gradient)
            and type(level) is int
        ):
            raise ValueError(f"root {entry['root']!r} needs integer gradient and level")
        root = AffineRoot(tuple(gradient), level)
        if root in params:
            raise ValueError(f"root {root} is given twice")
        params[root] = c
    return ShallowCharacter(context, params)


class ValidationResult(NamedTuple):
    ok: bool
    violations: Tuple[Tuple[AffineRoot, AffineRoot], ...]

    def __bool__(self) -> bool:
        return self.ok


def relation_holds(field: FiniteField, values: Sequence[int], factors: Iterable[Factor]) -> bool:
    """Is prod psi(values[t] * C * x^i * y^j) over the factors 1 for all x, y in F_q?

    The factors are (t, i, j, C) with C in F_p, as `Context.relations`
    stores them, and values[t] is the parameter at target t.  Decided by
    exhaustive loop over F_q^2: the exponents psi[values[t] * C][x^i y^j]
    must sum to 0 mod p.
    """
    mul, power, p = field.mul, field.pow, field.p
    rows = [(field.psi[mul(values[t], c)], i, j) for t, i, j, c in factors if values[t]]
    if not rows:
        return True
    for x in field.elements():
        for y in field.elements():
            total = 0
            for row, i, j in rows:
                total += row[mul(power(x, i), power(y, j))]
            if total % p:
                return False
    return True


def validate(chi: ShallowCharacter) -> ValidationResult:
    """Check every pair relation; collect the pairs that fail."""
    ctx = chi.context
    bad: List[Tuple[AffineRoot, AffineRoot]] = []
    for (p1, p2), factors in ctx.relations.items():
        if not relation_holds(ctx.field, chi.vector, factors):
            bad.append((ctx.roots[p1], ctx.roots[p2]))
    return ValidationResult(not bad, tuple(bad))


def char_depth(chi: ShallowCharacter) -> Fraction:
    """Largest depth carrying a non-trivial parameter; 0 for the trivial map."""
    depths = [
        d for d, c in zip(chi.context.depths, chi.vector) if c
    ]
    return max(depths, default=Fraction(0))


def indecomposable_extension(
    context: Context, partial: Dict[AffineRoot, int]
) -> ShallowCharacter:
    """Extend values on the indecomposable shallow roots by zero.

    Every commutator target splits as a sum of two shallow roots, so the
    relations only constrain decomposable parameters; the zero extension
    is therefore always valid, whatever the prescribed values.
    """
    indec = {
        r for r in context.roots if is_indecomposable(context.rs, r, context.facet)
    }
    if set(partial) != indec:
        raise ValueError("partial map must be defined on exactly the indecomposables")
    params = {r: partial.get(r, 0) for r in context.roots}
    chi = ShallowCharacter(context, params)
    result = validate(chi)
    assert result.ok, "zero extension must satisfy all relations"
    return chi


# ----------------------------------------------------------------------
# linear algebra mod p

def _nullspace(
    rows: Iterable[Dict[int, int]], ncols: int, p: int
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """RREF nullspace basis, one vector per free column, and those columns.

    One Gauss-Jordan pass over the rows, dicts from column to nonzero
    coefficient mod p, keeps the pivots in RREF, each keyed by its least
    column.  The RREF is unique, so the row order does not matter.  The
    vector of free column c has a 1 at c, a 0 at every other free
    column, and a 0 at every column after c.
    """
    pivots: Dict[int, Dict[int, int]] = {}

    def subtract(row: Dict[int, int], a: int, pivot: Dict[int, int]) -> None:
        for c, v in pivot.items():  # row -= a * pivot, dropping zeros
            row[c] = (row.get(c, 0) - a * v) % p
            if not row[c]:
                del row[c]

    for row in rows:
        row = dict(row)
        for col in [c for c in row if c in pivots]:
            subtract(row, row[col], pivots[col])
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        row = {c: v * inv % p for c, v in row.items()}
        for pivot in pivots.values():
            if lead in pivot:
                subtract(pivot, pivot[lead], row)
        pivots[lead] = row
    free = [c for c in range(ncols) if c not in pivots]
    basis = [
        tuple(-pivots[i].get(fc, 0) % p if i in pivots else int(i == fc) for i in range(ncols))
        for fc in free
    ]
    return basis, free


# ----------------------------------------------------------------------
# the solution space

class CharacterSpace(NamedTuple):
    context: Context
    basis: Tuple[ShallowCharacter, ...]
    dimension: int
    filtration: Tuple[Tuple[Fraction, int], ...]
    cross_checked: bool

    @property
    def epipelagic_dimension(self) -> int:
        return self.filtration[0][1] if self.filtration else 0

    def to_json(self) -> Dict:
        return {
            "context": self.context.to_json(),
            "dimension": self.dimension,
            "filtration": [[str(d), n] for d, n in self.filtration],
            "cross_checked": self.cross_checked,
            "basis": [chi.to_json() for chi in self.basis],
        }


def _reduce_exponent(k: int, q: int) -> int:
    assert k >= 1
    return (k - 1) % (q - 1) + 1 if q > 2 else 1


def relation_rows(ctx: Context) -> List[Dict[int, int]]:
    """F_p-linear rows cutting out the valid parameter vectors.

    Variables are the F_p-coordinates of the parameters, m per shallow
    root.  For each pair relation, each Frobenius twist of each term is
    binned by its reduced monomial; a bin must vanish as an element of
    F_q, giving m rows.  Each row is a dict from column to nonzero
    coefficient, and rows with none are left out.
    """
    f = ctx.field
    p, m, q = f.p, f.m, f.q
    rows: List[Dict[int, int]] = []
    for terms in ctx.relations.values():
        bins: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        for pos, i, j, c in terms:
            for e in range(m):
                mono = (
                    _reduce_exponent(i * p**e, q),
                    _reduce_exponent(j * p**e, q),
                )
                bins.setdefault(mono, []).append((pos, e, c))
        for contributions in bins.values():
            block: List[Dict[int, int]] = [{} for _ in range(m)]
            for pos, e, c in contributions:
                for d in range(m):
                    image = f.mul(c, f.pow(p**d, p**e))
                    for r, coeff in enumerate(f.coeffs(image)):
                        col = pos * m + d
                        block[r][col] = (block[r].get(col, 0) + coeff) % p
            rows.extend(filter(None, ({c: v for c, v in row.items() if v} for row in block)))
    return rows


def _valid_prefixes(ctx: Context) -> Tuple[int, Iterator[Tuple[int, ...]]]:
    """Exhaustive oracle: (k, the valid prefixes of length k), in lexicographic order.

    A pair relation reads chi only at its commutator targets, so it is
    filed under its last target.  Positions are set in order, values
    ascending, and a relation filed under t that fails cuts the branch.
    k is one past the last position with a relation (0 if none), so each
    prefix stands for a cylinder: the prefix followed by any tail.
    """
    n, f = ctx.n_roots, ctx.field
    checks: List[List[Tuple[Factor, ...]]] = [[] for _ in range(n)]
    for factors in ctx.relations.values():
        checks[max(t for t, _, _, _ in factors)].append(factors)
    k = max((t + 1 for t in range(n) if checks[t]), default=0)
    vec = [0] * k

    def extend(t: int) -> Iterator[Tuple[int, ...]]:
        if t == k:
            yield tuple(vec)
            return
        for v in range(f.q):
            vec[t] = v
            if all(relation_holds(f, vec, factors) for factors in checks[t]):
                yield from extend(t + 1)

    return k, extend(0)


def enumerate_valid(ctx: Context) -> Iterator[ShallowCharacter]:
    """Exhaustive oracle: every valid parameter vector, in lexicographic order.

    The cylinders of `_valid_prefixes` in turn; no relation row is read.
    """
    k, prefixes = _valid_prefixes(ctx)
    for prefix in prefixes:
        for tail in itertools.product(range(ctx.q), repeat=ctx.n_roots - k):
            yield ShallowCharacter.from_vector(ctx, prefix + tail)


def solve_space(ctx: Context, cross_check: Optional[bool] = None) -> CharacterSpace:
    """Solve the relation system; return a filtration-adapted basis.

    The variables are ordered by ascending depth, so the RREF nullspace
    of the relation rows is already adapted to the depth filtration: the
    vector of free column c vanishes past c, and the vectors whose free
    columns have depth at most r span V_r.  Hence dim V_r is the number
    of free columns of depth at most r, and the first dim V_r basis
    vectors span V_r.  cross_check=None checks the basis against the
    exhaustive oracle when q^N is at most 2**12; True forces it (error
    above 2**20); False skips it.  The thresholds count the vectors the
    oracle is exhaustive over, not the fewer prefixes its search visits.
    The check asserts that each prefix of `_valid_prefixes`, padded with
    zeros, and each F_p unit vector at a tail position lies in the span,
    and that the cylinders hold p^dim vectors, as many as the span.
    """
    f = ctx.field
    p, m = f.p, f.m
    ncols = ctx.n_roots * m
    if cross_check is None:
        cross_check = ctx.coset_count() <= 2**12
    elif cross_check and ctx.coset_count() > 2**20:
        raise ValueError("context too large for the exhaustive oracle")
    null, free = _nullspace(relation_rows(ctx), ncols, p)
    free_depths = [ctx.depths[c // m] for c in free]
    filtration = tuple(
        (level, sum(d <= level for d in free_depths))
        for level in sorted(set(ctx.depths))
    )

    basis = tuple(
        ShallowCharacter.from_vector(
            ctx, tuple(f.from_coeffs(coords[t * m : (t + 1) * m]) for t in range(ctx.n_roots))
        )
        for coords in null
    )
    for chi in basis:
        assert validate(chi).ok, "solver produced an invalid character"

    if cross_check:
        def in_span(v: List[int]) -> bool:  # RREF: v = sum of v_c * b_c over free c
            return v == [sum(v[c] * b[i] for c, b in zip(free, null)) % p for i in range(ncols)]

        k, prefixes = _valid_prefixes(ctx)
        pad = [0] * (ncols - k * m)
        found = [in_span([d for x in prefix for d in f.coeffs(x)] + pad) for prefix in prefixes]
        assert all(found), "the oracle accepts a vector outside the solved space"
        units = ([int(i == col) for i in range(ncols)] for col in range(k * m, ncols))
        assert all(map(in_span, units)), "the oracle frees a coordinate that the solver binds"
        assert len(found) * ctx.q ** (ctx.n_roots - k) == p ** len(null), "the sizes differ"

    return CharacterSpace(ctx, basis, len(basis), filtration, bool(cross_check))


def scalar_act(z: int, chi: ShallowCharacter) -> ShallowCharacter:
    """Precompose with scaling of all generator parameters by z.

    Scaling u_alpha(x) to u_alpha(zx) pulls the character back to the
    parameters z^{-1} c_alpha.  Over prime fields this is an F_p-multiple,
    so validity is kept by linearity.  For non-prime q the valid set is
    F_q-stable on every context tested (A2, C2, G2 at q = 4, C2 at
    q = 9, A2 at q = 8; barycenter and every 1- and 2-node facet), but
    no general argument is given here, so the output is still
    revalidated.
    """
    ctx = chi.context
    f = ctx.field
    if z not in f.units():
        raise ValueError(f"{z} is not a unit in F_{f.q}")
    if not validate(chi).ok:
        raise ValueError("scalar action is only defined on valid characters")
    zinv = f.inv(z)
    out = ShallowCharacter.from_vector(
        ctx, tuple(f.mul(zinv, c) for c in chi.vector)
    )
    result = validate(out)
    assert result.ok, "scaled character failed revalidation"
    return out
