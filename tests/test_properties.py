"""Seeded property tests: the integer shallow census against the rational
one, the relation check against the term-by-term character product, the
relation rows against the group model, both sweeps against the Cayley
tables, the linear solver against the exhaustive oracle, and its sparse
elimination against the dense RREF.

hypothesis is a test-only dependency; `derandomize` makes every run draw
the same examples.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shallow_chars.affine_roots import (
    barycenter, facet_of, facet_point, in_closed_alcove, scale_point, shallow_roots,
)
from shallow_chars.characters import (
    ShallowCharacter, _nullspace, relation_holds, relation_rows, solve_space, validate,
)
from shallow_chars.chevalley import Pinning
from shallow_chars.context import Context
from shallow_chars.finite_field import FiniteField
from shallow_chars.group_model import verify_homomorphism
from shallow_chars.root_system import build_root_system

import census_oracle
from character_oracle import char_product_trivial
from span_oracle import dense, nullspace
from test_group_model import table_pairs, table_sweep

SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")
FIELDS = (2, 3, 4, 5, 8, 9)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)  # every field FiniteField accepts
MAX_COSETS = 2**14
MAX_PAIR_COSETS = 2**8  # the table oracle takes every pair of a valid character
MAX_TABLE_COSETS = 2**10  # the Cayley tables take N * (q - 1) * q^N collections
MAX_VECTORS = 2**20  # the most q^N vectors solve_space will cross-check


@functools.cache
def _pinning(cartan_type):
    return Pinning(build_root_system(cartan_type))


def _outcome(build, *args):
    """What `build` returns, or the message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _context_census(rs, point):
    ctx = Context(rs, point, q=2, pinning=_pinning(rs.cartan_type))
    assert ctx.scaled_point == scale_point(ctx.point)
    return ctx.roots, ctx.depths, ctx.facet


def _oracle_census(rs, point):
    return (census_oracle.shallow_roots(rs, point), census_oracle.depths(rs, point),
            census_oracle.facet_of(rs, point))


def assert_census_matches_oracle(rs, point):
    """The census, the depths, the facet and the alcove test, refusals
    included, agree with the rational reference."""
    for fast, slow in (
        (shallow_roots, census_oracle.shallow_roots),
        (facet_of, census_oracle.facet_of),
        (in_closed_alcove, census_oracle.in_closed_alcove),
        (_context_census, _oracle_census),
    ):
        assert _outcome(fast, rs, point) == _outcome(slow, rs, point), fast


@st.composite
def census_points(draw):
    """A rational point of a small type with denominator at most 60: inside
    the closed alcove, on one of its walls, just outside one wall (its
    simple affine value -1/n), or of the wrong length.  Inside the alcove
    the point is drawn through its simple affine values c_j / n, with
    n = sum of m_j * c_j over the marks m_j."""
    rs = build_root_system(draw(st.sampled_from(SMALL_TYPES)))
    kind = draw(st.sampled_from(("inside", "wall", "outside", "length")))
    if kind == "length":
        size = draw(st.sampled_from([k for k in range(rs.rank + 3) if k != rs.rank]))
        coords = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
        return rs, tuple(draw(coords) for _ in range(size))
    c = [draw(st.integers(0, 12)) for _ in range(rs.rank + 1)]
    if kind != "inside":
        c[draw(st.integers(0, rs.rank))] = 0 if kind == "wall" else -1
    n = sum(m * v for m, v in zip(rs.marks, c))
    assume(1 <= n <= 60)
    return rs, tuple(Fraction(v, n) for v in c[1:])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(census_points())
def test_census_matches_oracle(case):
    assert_census_matches_oracle(*case)


@pytest.mark.parametrize("cartan_type", ["E6", "E7", "E8"])
def test_census_matches_oracle_on_exceptional_types(cartan_type):
    """At the barycenters of E6, E7 and E8, and at every facet point of E6."""
    rs = build_root_system(cartan_type)
    points = [barycenter(rs)]
    if cartan_type == "E6":
        points += [
            facet_point(rs, J) for k in range(1, rs.rank + 1)
            for J in itertools.combinations(range(rs.rank + 1), k)
        ]
    for point in points:
        assert_census_matches_oracle(rs, point)


@st.composite
def relations(draw):
    """A field, a parameter vector and factors (t, i, j, C) on it, with
    exponents 1-3 and C in F_p^x.  Vectors of one to four entries, with
    zeros among them, repeat targets; a drawn flag appends each factor's
    negative, which makes the relation hold."""
    f = FiniteField(draw(st.sampled_from(PRIME_POWERS)))
    n = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n))
    exponents = st.integers(1, 3)
    factors = draw(st.lists(
        st.tuples(st.integers(0, n - 1), exponents, exponents, st.integers(1, f.p - 1)),
        min_size=1, max_size=6,
    ))
    if draw(st.booleans()):
        factors += [(t, i, j, f.p - c) for t, i, j, c in factors]
    return f, tuple(values), factors


@settings(derandomize=True, max_examples=400, deadline=None)
@given(relations())
def test_relation_holds_matches_character_product(case):
    f, values, factors = case
    packed = [(values[t], (i, j), c) for t, i, j, c in factors]
    assert relation_holds(f, values, factors) == char_product_trivial(f, packed)


@st.composite
def characters(draw, max_cosets=MAX_COSETS):
    """A basis combination of the solved space at a random rational point
    of the closed alcove, over a field small enough to sweep.  Where the
    context has commutator relations, a drawn flag shifts one entry at a
    commutator target, which breaks the character.

    The point lies on a random facet, with positive weights on its
    simple affine roots, so not only at facet barycenters.  The flag
    leaves valid characters on contexts with relations, where the sweep
    meets commutators, as well as invalid ones; a shift at a position
    that is no target would leave the character valid.
    """
    rs = build_root_system(draw(st.sampled_from(SMALL_TYPES)))
    facet = draw(st.sets(st.integers(0, rs.rank), min_size=1))
    weights = {j: draw(st.integers(1, 5)) for j in sorted(facet)}
    point = facet_point(rs, facet, weights)
    n = len(shallow_roots(rs, point))
    assume(2**n <= max_cosets)
    q = draw(st.sampled_from([q for q in FIELDS if q**n <= max_cosets]))
    ctx = Context(rs, point, q=q)
    f = ctx.field
    vec = [0] * n
    for basis_chi in solve_space(ctx, cross_check=False).basis:
        scale = draw(st.integers(0, f.p - 1))
        for t, c in enumerate(basis_chi.vector):
            vec[t] = f.add(vec[t], f.mul(scale, c))
    targets = sorted({t for factors in ctx.relations.values() for t, _, _, _ in factors})
    if targets and draw(st.booleans()):
        t = draw(st.sampled_from(targets))
        vec[t] = f.add(vec[t], draw(st.integers(1, q - 1)))
    return ShallowCharacter.from_vector(ctx, vec)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(characters())
def test_validate_matches_generator_sweep(chi):
    res = verify_homomorphism(chi, mode="generators")
    assert validate(chi).ok == res.ok
    if chi.context.coset_count() <= MAX_TABLE_COSETS:
        assert res == table_sweep(chi)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(characters(max_cosets=MAX_PAIR_COSETS))
def test_pair_sweep_matches_table_pairs(chi):
    assert verify_homomorphism(chi, mode="pairs") == table_pairs(chi)


@st.composite
def contexts(draw):
    """A random point of a random facet, weighted as in `characters`, and
    any field whose q^N vectors the oracle accepts."""
    rs = build_root_system(draw(st.sampled_from(SMALL_TYPES)))
    facet = draw(st.sets(st.integers(0, rs.rank), min_size=1))
    weights = {j: draw(st.integers(1, 5)) for j in sorted(facet)}
    point = facet_point(rs, facet, weights)
    n = len(shallow_roots(rs, point))
    q = draw(st.sampled_from([q for q in FIELDS if q**n <= MAX_VECTORS]))
    return Context(rs, point, q=q)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(contexts())
def test_solver_matches_oracle(ctx):
    assert solve_space(ctx, cross_check=True).cross_checked


def _contexts_of(cartan_type, fields, facets=True):
    """Contexts of one type over the fields: at every facet of the closed
    alcove, or at the barycenter alone."""
    rs = build_root_system(cartan_type)
    pinning = Pinning(rs)
    nodes = range(rs.rank + 1)
    points = [
        facet_point(rs, set(J)) for k in range(1, rs.rank + 2)
        for J in itertools.combinations(nodes, k)
    ] if facets else [barycenter(rs)]
    for point, q in itertools.product(points, fields):
        yield Context(rs, point, q=q, pinning=pinning)


# every facet of the small types over every field (456 contexts), and
# the barycenters of E6 and E7 at q = 2, 4 and of E8 at q = 2
NULLSPACE_CASES = [(t, FIELDS, True) for t in SMALL_TYPES] + [
    ("E6", (2, 4), False), ("E7", (2, 4), False), ("E8", (2,), False),
]


@pytest.mark.parametrize(
    "cartan_type,fields,facets", NULLSPACE_CASES, ids=[t for t, _, _ in NULLSPACE_CASES]
)
def test_sparse_nullspace_matches_dense_rref(cartan_type, fields, facets):
    """`_nullspace` gives the dense reference's basis and free columns on
    the relation rows as built, and again with the rows shuffled and a
    seeded sample of them repeated, each times a unit of F_p: the RREF of
    a row space does not depend on the rows that span it."""
    rng = random.Random(f"{cartan_type} nullspace")
    for ctx in _contexts_of(cartan_type, fields, facets):
        p = ctx.field.p
        ncols = ctx.n_roots * ctx.field.m
        rows = relation_rows(ctx)
        expected = nullspace(dense(rows, ncols), ncols, p)
        assert _nullspace(rows, ncols, p) == expected
        mixed = list(rows)
        for row in rng.choices(rows, k=len(rows) // 3 + 1) if rows else ():
            a = rng.randrange(1, p)
            mixed.append({c: v * a % p for c, v in row.items()})
        rng.shuffle(mixed)
        assert _nullspace(mixed, ncols, p) == expected
