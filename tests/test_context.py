"""The commutator table of a context, against the affine expansions.

`Context.relations` is read by every relation consumer, so it is checked
here against `expansion_oracle.shallow_commutator_expansion`, mapped to
positions, with constants taken mod p and factors and pairs that vanish
there dropped.
"""

import pytest

from expansion_oracle import shallow_commutator_expansion
from shallow_chars import context
from shallow_chars.affine_roots import barycenter, facet_point
from shallow_chars.context import Context
from shallow_chars.root_system import _parallel, add, build_root_system

TABLE_TYPES = ("A2", "C2", "C3", "G2", "B3")
TABLE_FIELDS = (2, 3, 4, 5, 9)


def _contexts(cartan_type, q):
    """The barycenter and every 1-node facet point."""
    rs = build_root_system(cartan_type)
    points = [barycenter(rs)] + [facet_point(rs, {k}) for k in range(rs.rank + 1)]
    return [Context(rs, point, q=q) for point in points]


def _reference(ctx):
    """(table, vanishing pairs) from the affine expansions, pair by pair."""
    p = ctx.field.p
    table, vanishing = {}, []
    for a, alpha in enumerate(ctx.roots):
        for b in range(a + 1, ctx.n_roots):
            beta = ctx.roots[b]
            if _parallel(alpha.gradient, beta.gradient):
                continue
            terms = shallow_commutator_expansion(ctx.pinning, alpha, beta, ctx.point)
            factors = tuple(
                (ctx.index[target], i, j, c % p) for target, i, j, c in terms if c % p
            )
            if factors:
                table[a, b] = factors
            elif terms:
                vanishing.append((a, b))
    return table, vanishing


@pytest.mark.parametrize("q", TABLE_FIELDS)
@pytest.mark.parametrize("cartan_type", TABLE_TYPES)
def test_relations_match_shallow_expansions(cartan_type, q):
    for ctx in _contexts(cartan_type, q):
        table, _ = _reference(ctx)
        assert ctx.relations == table, ctx
        assert list(ctx.relations) == sorted(ctx.relations)
        for factors in ctx.relations.values():
            assert all(0 < c < ctx.field.p for _, _, _, c in factors)


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("cartan_type", ("B4", "F4", "E6"))
def test_relations_expand_only_pairs_shallower_than_one(monkeypatch, cartan_type, q):
    """The table expands only pairs whose depths sum to less than 1 and
    whose gradients sum to a root, and still equals the reference, which
    expands every pair of nonparallel gradients."""
    expanded = []
    expand = context.commutator_expansion

    def counting(pinning, alpha, beta):
        expanded.append(None)
        return expand(pinning, alpha, beta)

    monkeypatch.setattr(context, "commutator_expansion", counting)
    rs = build_root_system(cartan_type)
    facets = ({1, 2}, {1, rs.rank}, {rs.rank - 1})
    skipped = 0
    for point in [barycenter(rs)] + [facet_point(rs, facet) for facet in facets]:
        ctx = Context(rs, point, q=q)
        expanded.clear()
        table, _ = _reference(ctx)
        assert ctx.relations == table, ctx
        pairs = [
            (a, b)
            for a in range(ctx.n_roots)
            for b in range(a + 1, ctx.n_roots)
            if rs.is_root(add(ctx.roots[a].gradient, ctx.roots[b].gradient))
        ]
        shallow = [(a, b) for a, b in pairs if ctx.depths[a] + ctx.depths[b] < 1]
        assert len(expanded) == len(shallow), ctx
        skipped += len(pairs) - len(shallow)
    assert skipped


@pytest.mark.parametrize("cartan_type, q", [("C2", 2), ("G2", 3)])
def test_pairs_vanishing_mod_p_are_dropped(cartan_type, q):
    # C2 has the constant 2 (on [u_{a1+a2}, u_{a1}]) and G2 the constant 3,
    # so some pair has shallow targets but no factor over F_p
    dropped = 0
    for ctx in _contexts(cartan_type, q):
        _, vanishing = _reference(ctx)
        for a, b in vanishing:
            assert (a, b) not in ctx.relations
        dropped += len(vanishing)
    assert dropped
