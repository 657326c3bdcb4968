import functools
import itertools
from fractions import Fraction

import pytest

from shallow_chars import characters
from shallow_chars.affine_roots import AffineRoot, barycenter, facet_point
from shallow_chars.characters import (
    ShallowCharacter,
    char_depth,
    character_from_json,
    enumerate_valid,
    indecomposable_extension,
    relation_rows,
    scalar_act,
    solve_space,
    validate,
)
from shallow_chars.chevalley import Pinning
from shallow_chars.context import Context
from shallow_chars.root_system import build_root_system

from brute_oracle import brute_valid
from conftest import SP4_PARAMS
from span_oracle import span_elements


def _flip_a12(ctx):
    params = dict(SP4_PARAMS)
    params[ctx.roots[4]] = 0
    return ShallowCharacter(ctx, params)


def test_domain_validation(c2_ctx):
    missing = dict(SP4_PARAMS)
    missing.pop(AffineRoot((1, 0), 0))
    with pytest.raises(ValueError):
        ShallowCharacter(c2_ctx, missing)
    extra = dict(SP4_PARAMS)
    extra[AffineRoot((1, 0), 1)] = 1
    with pytest.raises(ValueError):
        ShallowCharacter(c2_ctx, extra)
    out_of_range = dict(SP4_PARAMS)
    out_of_range[AffineRoot((1, 0), 0)] = 2
    with pytest.raises(ValueError):
        ShallowCharacter(c2_ctx, out_of_range)
    with pytest.raises(ValueError):
        ShallowCharacter.from_vector(c2_ctx, (1, 0, 0))


def test_sp4_example_is_valid(sp4_example):
    assert validate(sp4_example).ok
    assert not sp4_example.is_trivial()
    assert char_depth(sp4_example) == Fraction(3, 4)


def test_single_violation_reported(c2_ctx):
    result = validate(_flip_a12(c2_ctx))
    assert not result.ok
    assert result.violations == ((c2_ctx.roots[1], c2_ctx.roots[2]),)


def test_c2_q2_solution_space(c2_ctx):
    space = solve_space(c2_ctx)
    assert space.cross_checked  # small enough for the automatic oracle
    assert space.dimension == 5
    assert space.filtration == (
        (Fraction(1, 4), 3),
        (Fraction(1, 2), 3),
        (Fraction(3, 4), 5),
    )
    assert space.epipelagic_dimension == 3
    for chi in space.basis[:3]:
        assert char_depth(chi) == Fraction(1, 4)
    seen = set()
    for chi in span_elements(space):
        v = chi.vector
        assert v[4] == v[7] and v[3] == v[6] and v[5] == 0
        assert validate(chi).ok
        seen.add(v)
    assert len(seen) == 32
    assert sorted(seen) == sorted(chi.vector for chi in enumerate_valid(c2_ctx))


def test_a2_solution_spaces(a2, a2_ctx):
    assert solve_space(a2_ctx).dimension == 3
    ctx3 = Context(a2, barycenter(a2), q=3)
    space3 = solve_space(ctx3)
    assert space3.dimension == 3
    # every parameter on a decomposable root is forced to vanish
    for chi in space3.basis:
        assert all(v == 0 for v in chi.vector[3:])


def test_c2_q3_solution_space(c2):
    ctx = Context(c2, barycenter(c2), q=3)
    space = solve_space(ctx, cross_check=True)
    assert space.cross_checked
    assert space.dimension == 3
    assert space.filtration == (
        (Fraction(1, 4), 3),
        (Fraction(1, 2), 3),
        (Fraction(3, 4), 3),
    )
    for chi in space.basis:
        assert all(v == 0 for v in chi.vector[3:])


def test_solver_basis_is_rref_adapted():
    """The basis in F_p coordinates is the RREF nullspace basis.

    The free column of a vector is its last nonzero coordinate.  It holds
    a 1, every other vector vanishes there, the free columns increase,
    and dim V_r counts the free columns of depth at most r.  Barycenter
    and every 1-node facet, 125 contexts in all; q = 8 and q = 9 bring
    the fields with m = 3 and with p = 3, m = 2.
    """
    for cartan_type in ("A1", "A2", "A3", "C2", "C3", "G2"):
        rs = build_root_system(cartan_type)
        pinning = Pinning(rs)
        points = [barycenter(rs)] + [facet_point(rs, {j}) for j in range(rs.rank + 1)]
        for point, q in itertools.product(points, (2, 3, 4, 8, 9)):
            ctx = Context(rs, point, q=q, pinning=pinning)
            f = ctx.field
            space = solve_space(ctx, cross_check=False)
            coords = [
                [c for v in chi.vector for c in f.coeffs(v)] for chi in space.basis
            ]
            free = [max(k for k, c in enumerate(vec) if c) for vec in coords]
            assert all(a < b for a, b in zip(free, free[1:]))
            for vec, col in zip(coords, free):
                assert [vec[c] for c in free] == [int(c == col) for c in free]
            free_depths = [ctx.depths[c // f.m] for c in free]
            assert [d for d, _ in space.filtration] == sorted(set(ctx.depths))
            for level, n in space.filtration:
                assert n == sum(d <= level for d in free_depths)
            assert space.dimension == len(free)
            if space.filtration:
                assert space.filtration[-1][1] == space.dimension


@pytest.mark.parametrize(
    "cartan_type,q,n_rows,nonzeros",
    [("E8", 16, 53760, 84000), ("E8", 4, 13440, 16800), ("G2", 4, 76, 100),
     ("B3", 8, 270, 330), ("F4", 9, 960, 960)],
)
def test_relation_row_counts_are_pinned(cartan_type, q, n_rows, nonzeros):
    """Rows and nonzero coefficients at the barycenter, as the dense rows
    counted them; perfbench's `characters.rows` is the row count."""
    pinning = _pinning(cartan_type)
    ctx = Context(pinning.rs, barycenter(pinning.rs), q=q, pinning=pinning)
    rows = relation_rows(ctx)
    assert (len(rows), sum(map(len, rows))) == (n_rows, nonzeros)
    assert all(0 < v < ctx.field.p for row in rows for v in row.values())
    assert all(0 <= c < ctx.n_roots * ctx.field.m for row in rows for c in row)


@functools.cache
def _pinning(cartan_type):
    return Pinning(build_root_system(cartan_type))


@pytest.mark.parametrize(
    "cartan_type,first_step", [("F4", 5), ("E6", 7), ("E7", 8), ("E8", 9)]
)
def test_big_type_solve(cartan_type, first_step):
    """Reeder-Yu first step (1/h, l+1) at the barycenter."""
    h = {"F4": 12, "E6": 12, "E7": 18, "E8": 30}[cartan_type]
    rs = build_root_system(cartan_type)
    ctx = Context(rs, barycenter(rs), q=2)
    space = solve_space(ctx, cross_check=False)
    assert space.filtration[0] == (Fraction(1, h), first_step)
    assert all(validate(chi).ok for chi in space.basis)


# Barycenters, then facets: (type, facet or None, q).  B3 {0,1} at q=2
# has every one of its 1,024 vectors valid.
ORACLE_CONTEXTS = [
    ("A2", None, 2), ("A2", None, 3), ("A2", None, 4), ("C2", None, 2),
    ("C2", None, 3), ("G2", None, 2), ("A3", None, 2),
    ("B3", {0, 1}, 2), ("C2", {1}, 3), ("G2", {1, 2}, 3),
]


@pytest.mark.parametrize(
    "cartan_type, facet, q",
    ORACLE_CONTEXTS,
    ids=[f"{t}-{','.join(map(str, sorted(J))) if J else 'bary'}-q{q}"
         for t, J, q in ORACLE_CONTEXTS],
)
def test_enumerate_valid_matches_brute_filter(cartan_type, facet, q):
    rs = build_root_system(cartan_type)
    point = barycenter(rs) if facet is None else facet_point(rs, facet)
    ctx = Context(rs, point, q=q)
    found = list(enumerate_valid(ctx))
    assert [chi.vector for chi in found] == [chi.vector for chi in brute_valid(ctx)]
    assert all("table" not in vars(chi) for chi in found)  # built only on use


def test_cross_check_flag(c2_ctx):
    assert not solve_space(c2_ctx, cross_check=False).cross_checked
    g2 = build_root_system("G2")
    big = Context(g2, barycenter(g2), q=4)
    with pytest.raises(ValueError):
        solve_space(big, cross_check=True)  # 4^12 vectors is past the cap


def test_valid_prefixes_stop_past_the_last_relation():
    # k is one past the last relation target; B3 {0,1} has no relations
    for cartan_type, facet, q in ORACLE_CONTEXTS:
        rs = build_root_system(cartan_type)
        point = barycenter(rs) if facet is None else facet_point(rs, facet)
        ctx = Context(rs, point, q=q)
        targets = {t for terms in ctx.relations.values() for t, _, _, _ in terms}
        k, prefixes = characters._valid_prefixes(ctx)
        assert k == max(targets, default=-1) + 1
        assert all(len(prefix) == k for prefix in prefixes)


def _outside(ctx, k, prefixes):
    """The first prefix of length k that the search cut."""
    kept = set(prefixes)
    return next(v for v in itertools.product(range(ctx.q), repeat=k) if v not in kept)


# name: (the assertion that must fire, (ctx, k, prefixes) -> mutated (k, prefixes))
CROSS_CHECK_MUTATIONS = {
    "drop": ("the sizes differ", lambda ctx, k, pre: (k, pre[1:])),
    "add": ("outside the solved space",
            lambda ctx, k, pre: (k, pre + [_outside(ctx, k, pre)])),
    # the count stays right, so only the span membership catches it
    "swap": ("outside the solved space",
             lambda ctx, k, pre: (k, pre[1:] + [_outside(ctx, k, pre)])),
    # one more free tail position: the prefixes ending in 0, cut one short.  On
    # C2 q=2 position k - 1 repeats an earlier one, so the count stays right.
    "widen": ("frees a coordinate",
              lambda ctx, k, pre: (k - 1, [v[:-1] for v in pre if not v[-1]])),
}


@pytest.mark.parametrize("name", CROSS_CHECK_MUTATIONS)
def test_cross_check_catches_a_wrong_oracle(monkeypatch, c2_ctx, name):
    message, mutate = CROSS_CHECK_MUTATIONS[name]
    search = characters._valid_prefixes

    def mutated(ctx):
        k, prefixes = search(ctx)
        return mutate(ctx, k, list(prefixes))

    monkeypatch.setattr(characters, "_valid_prefixes", mutated)
    with pytest.raises(AssertionError, match=message):
        solve_space(c2_ctx, cross_check=True)


def test_valid_set_closed_under_addition(c2_ctx):
    space = solve_space(c2_ctx, cross_check=False)
    f = c2_ctx.field
    members = {chi.vector for chi in span_elements(space)}
    for u in list(members)[:8]:
        for w in list(members)[:8]:
            s = tuple(f.add(a, b) for a, b in zip(u, w))
            assert s in members


def test_scalar_action(c2, c2_ctx, sp4_example):
    assert scalar_act(1, sp4_example) == sp4_example
    with pytest.raises(ValueError):
        scalar_act(0, sp4_example)
    with pytest.raises(ValueError):
        scalar_act(1, _flip_a12(c2_ctx))
    ctx3 = Context(c2, barycenter(c2), q=3)
    chi = ShallowCharacter.from_vector(ctx3, (1, 2, 1, 0, 0, 0, 0, 0))
    acted = scalar_act(2, chi)
    # z = 2 is its own inverse mod 3, so parameters double
    assert acted.vector == (2, 1, 2, 0, 0, 0, 0, 0)
    assert scalar_act(2, acted) == chi


def test_scalar_action_preserves_validity_over_prime_powers():
    """F_q^x scaling keeps every character valid for non-prime q.

    Validity is F_p-linear and scaling is additive, so scaling the F_p
    basis of each valid space by every unit covers the whole space.
    Barycenter and every 1- and 2-node facet; the points without shallow
    roots drop out, leaving 24 contexts and 1015 actions.
    """
    contexts = actions = 0
    for cartan_type, q in (("A2", 4), ("C2", 4), ("G2", 4), ("C2", 9), ("A2", 8)):
        rs = build_root_system(cartan_type)
        pinning = Pinning(rs)
        nodes = range(rs.rank + 1)
        points = [barycenter(rs)] + [
            facet_point(rs, J) for k in (1, 2) for J in itertools.combinations(nodes, k)
        ]
        for point in points:
            ctx = Context(rs, point, q=q, pinning=pinning)
            if not ctx.n_roots:
                continue
            contexts += 1
            for chi in solve_space(ctx, cross_check=False).basis:
                for z in ctx.field.units():
                    assert validate(scalar_act(z, chi)).ok
                    actions += 1
    assert (contexts, actions) == (24, 1015)


def test_trivial_character(c2_ctx):
    chi = ShallowCharacter.from_vector(c2_ctx, (0,) * 8)
    assert chi.is_trivial()
    assert char_depth(chi) == Fraction(0)
    assert validate(chi).ok


def test_indecomposable_extension(c2, c2_ctx):
    simples = c2_ctx.roots[:3]
    for bits in itertools.product((0, 1), repeat=3):
        chi = indecomposable_extension(c2_ctx, dict(zip(simples, bits)))
        assert chi.vector[:3] == bits
        assert chi.vector[3:] == (0,) * 5
        assert validate(chi).ok
    with pytest.raises(ValueError):
        indecomposable_extension(c2_ctx, {simples[0]: 1})
    with pytest.raises(ValueError):
        indecomposable_extension(
            c2_ctx, dict.fromkeys(list(simples) + [c2_ctx.roots[4]], 1)
        )


def test_json_roundtrip(c2_ctx, sp4_example):
    data = sp4_example.to_json()
    assert data["q"] == 2
    assert data["lambda"] == ["1/4", "1/4"]
    assert character_from_json(c2_ctx, data) == sp4_example


def test_json_field_and_point_must_match(c2, c2_ctx, sp4_example):
    data = sp4_example.to_json()
    # the point is compared as rationals, and both keys may be left out
    assert character_from_json(c2_ctx, dict(data, **{"lambda": ["2/8", "1/4"]})) == sp4_example
    bare = {"params": data["params"]}
    assert character_from_json(c2_ctx, bare) == sp4_example
    # the same shallow roots over another field or at another alcove
    # point: read silently, the character would be judged where it is not
    for ctx, message in (
        (Context(c2, barycenter(c2), q=3), "over q = 2, not q = 3"),
        (Context(c2, ("1/5", "1/4"), q=2), "at the point"),
    ):
        assert set(ctx.roots) == set(c2_ctx.roots)
        with pytest.raises(ValueError, match=message):
            character_from_json(ctx, data)
    for q in (True, "2", 2.0):
        with pytest.raises(ValueError, match="the character is over q"):
            character_from_json(c2_ctx, dict(data, q=q))
    for point in (["1/5", "1/4"], ["1/4"], "1/4,1/4", [None, None], None):
        with pytest.raises(ValueError, match="the character is at the point"):
            character_from_json(c2_ctx, dict(data, **{"lambda": point}))
    with pytest.raises(ValueError, match="float"):
        character_from_json(c2_ctx, dict(data, **{"lambda": [0.25, 0.25]}))


def test_space_json(c2_ctx):
    data = solve_space(c2_ctx, cross_check=False).to_json()
    assert data["dimension"] == 5
    assert data["filtration"] == [["1/4", 3], ["1/2", 3], ["3/4", 5]]
    assert len(data["basis"]) == 5
