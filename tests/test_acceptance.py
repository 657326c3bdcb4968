"""Gate suite.  Each criterion is timed, checked at full strictness, and
prints a single PASS/FAIL line; run with -s to see the lines directly.
"""
import itertools
import random
import time
from fractions import Fraction

from shallow_chars.affine_roots import (
    AffineRoot,
    affine_combination,
    affine_sum,
    barycenter,
    depth,
    facet_point,
    is_indecomposable,
    is_positive_affine,
    is_shallow,
    shallow_roots,
    simple_affine_roots,
)
from shallow_chars.characters import (
    ShallowCharacter,
    indecomposable_extension,
    solve_space,
    validate,
)
from shallow_chars.chevalley import Pinning, commutator_expansion
from shallow_chars.context import Context
from shallow_chars.group_model import decode, multiply, verify_homomorphism
from shallow_chars.root_system import build_root_system
from shallow_chars.weyl import (
    act_on_point,
    act_on_root,
    barycenter_criterion,
    condition_star,
    intertwining_scan,
    long_element,
    support,
)

import sp4_oracle
from conftest import SP4_PARAMS
from span_oracle import span_elements
from test_chevalley import SP4_TABLE

LIMITS = {1: 1, 2: 1, 3: 1, 4: 300, 5: 10, 6: 10, 7: 120, 8: 60, 9: 300}


def _gate(num: int, label: str, started: float, ok: bool) -> None:
    elapsed = time.perf_counter() - started
    in_time = elapsed < LIMITS[num]
    status = "PASS" if ok and in_time else "FAIL"
    print(f"{status} criterion {num}: {label} [{elapsed:.2f}s / {LIMITS[num]}s]")
    assert ok, f"criterion {num} ({label}) failed"
    assert in_time, f"criterion {num} ({label}) took {elapsed:.2f}s"


def test_criterion_1_sp4_commutator_table():
    started = time.perf_counter()
    pin = Pinning(build_root_system("C2"), kind="matrix")
    ok = True
    for beta, alpha, expected in SP4_TABLE:
        got = [
            (target, term.i, term.j, term.constant)
            for target, term in commutator_expansion(pin, alpha, beta)
        ]
        ok = ok and got == expected
    _gate(1, "twelve C2 commutator formulas reproduced exactly", started, ok)


def test_criterion_2_shallow_census():
    started = time.perf_counter()
    rs = build_root_system("C2")
    ctx = Context(rs, barycenter(rs), q=2)
    depths = [depth(r, ctx.point) for r in ctx.roots]
    want = [Fraction(1, 4)] * 3 + [Fraction(1, 2)] * 2 + [Fraction(3, 4)] * 3
    indec = {r for r in ctx.roots if is_indecomposable(rs, r, ctx.facet)}
    ok = (
        len(ctx.roots) == 8
        and depths == want
        and indec == set(simple_affine_roots(rs))
    )
    _gate(2, "eight shallow roots at the C2 barycenter, three simple", started, ok)


def test_criterion_3_relation_validator(c2_ctx, sp4_example):
    started = time.perf_counter()
    ok = validate(sp4_example).ok
    vec = list(sp4_example.vector)
    vec[c2_ctx.index[AffineRoot((2, 1), 0)]] = 0  # now unequal to c at a1+a2
    flipped = validate(ShallowCharacter.from_vector(c2_ctx, vec))
    ok = ok and not flipped.ok and len(flipped.violations) == 1
    pair = flipped.violations[0]
    ok = ok and {r.gradient for r in pair} == {(1, 0), (0, 1)}
    _gate(3, "example validates; single-sign flip caught at (a1, a2)", started, ok)


def test_criterion_4_validate_matches_group_model():
    started = time.perf_counter()
    ok = True
    valid_counts = {}
    for cartan, q in (("C2", 2), ("A2", 2), ("A2", 3)):
        rs = build_root_system(cartan)
        ctx = Context(rs, barycenter(rs), q=q)
        count = 0
        for vec in itertools.product(range(q), repeat=ctx.n_roots):
            chi = ShallowCharacter.from_vector(ctx, vec)
            rel = validate(chi).ok
            hom = verify_homomorphism(chi, mode="generators").ok
            ok = ok and rel == hom
            count += rel
        valid_counts[(cartan, q)] = count
    ok = ok and valid_counts == {("C2", 2): 32, ("A2", 2): 8, ("A2", 3): 27}
    _gate(4, "relations match the group model on 1049 parameter maps", started, ok)


def test_criterion_5_character_space(c2_ctx):
    started = time.perf_counter()
    space = solve_space(c2_ctx)
    idx = c2_ctx.index
    eq = [
        (idx[AffineRoot((1, 1), 0)], idx[AffineRoot((2, 1), 0)]),
        (idx[AffineRoot((-1, -1), 1)], idx[AffineRoot((0, -1), 1)]),
    ]
    zero = idx[AffineRoot((-1, 0), 1)]
    ok = space.dimension == 5 and space.cross_checked and space.epipelagic_dimension == 3
    seen = 0
    for chi in span_elements(space):
        seen += 1
        ok = ok and all(chi.vector[a] == chi.vector[b] for a, b in eq)
        ok = ok and chi.vector[zero] == 0
    ok = ok and seen == 32
    _gate(5, "5-dimensional C2/q=2 space with the forced relations", started, ok)


def test_criterion_6_condition_star_example(c2_ctx, sp4_example):
    started = time.perf_counter()
    verdict = condition_star(sp4_example)
    ok = verdict.status == "fails" and verdict.witness is not None
    ok = ok and verdict.witness.word == (1,)
    moved = act_on_point(verdict.witness, c2_ctx.point)
    top = AffineRoot((-1, 0), 1)
    just_above = Fraction(3, 4) + Fraction(1, 1000)
    ok = ok and support(c2_ctx, moved, just_above) <= {top}
    ok = ok and support(c2_ctx, moved, Fraction(7, 8)) == {top}
    _gate(6, "condition (*) fails with witness n_1, support confined", started, ok)


def test_criterion_7_intertwining_scan(sp4_example):
    started = time.perf_counter()
    scan = intertwining_scan(sp4_example, radius=8)
    ok = (
        scan.verdict == "collapses_to_P_chi"
        and scan.witness is None
        and scan.moved_checked == 96
        and len(scan.stabilizer) == 1
        and scan.stabilizer[0].word == ()
    )
    _gate(7, "radius-8 scan: every moved element violated", started, ok)


def test_criterion_8_barycenter_equivalence(c2_ctx):
    started = time.perf_counter()
    simples = simple_affine_roots(c2_ctx.rs)
    ok = True
    for bits in itertools.product(range(2), repeat=3):
        if not any(bits):
            chi = ShallowCharacter.from_vector(c2_ctx, [0] * 8)
            for f in (barycenter_criterion, condition_star):
                try:
                    f(chi)
                    ok = False  # the trivial character must be refused
                except ValueError:
                    pass
            continue
        chi = indecomposable_extension(c2_ctx, dict(zip(simples, bits)))
        report = barycenter_criterion(chi)
        star = condition_star(chi)
        ok = ok and report.all_simple_nontrivial == (star.status == "holds")
    _gate(8, "simple-root test agrees with condition (*) on all 8 maps", started, ok)


def _sum_closure_and_chains(cartan, J=None):
    rs = build_root_system(cartan)
    pt = barycenter(rs) if J is None else facet_point(rs, J)
    roots = shallow_roots(rs, pt)
    ok = True
    for a, b in itertools.permutations(roots, 2):
        for i in range(1, 4):
            for j in range(1, 4):
                t = affine_combination(i, a, j, b)
                if t.gradient not in rs.root_set or not is_shallow(t, pt):
                    continue
                s = affine_sum(a, b)
                ok = ok and s.gradient in rs.root_set and is_shallow(s, pt)
                if i > 1 or j > 1:
                    da, db = depth(a, pt), depth(b, pt)
                    ok = ok and 0 < da < da + db < depth(t, pt) < 1
    return ok


def test_criterion_9_property_suites(c2_ctx):
    started = time.perf_counter()
    ok = True
    for cartan, J in (
        ("A2", (1, 2)),
        ("C2", (1, 2)),
        ("G2", (0, 2)),
        ("A3", (1, 3)),
        ("B3", (0, 1)),
    ):
        ok = ok and _sum_closure_and_chains(cartan)
        ok = ok and _sum_closure_and_chains(cartan, J)

    for cartan in ("A2", "C2"):
        rs = build_root_system(cartan)
        simples = simple_affine_roots(rs)
        nodes = range(rs.rank + 1)
        for size in (1, 2):
            for subset in itertools.combinations(nodes, size):
                w = long_element(rs, subset)
                ok = ok and set(w.word) <= set(subset)
                for i in subset:
                    ok = ok and not is_positive_affine(rs, act_on_root(w, simples[i]))
                for a in simples:
                    ok = ok and act_on_root(w, act_on_root(w, a)) == a

    rng = random.Random(20260815)
    for _ in range(1000):
        wa, wb, wc = (
            decode(c2_ctx, rng.randrange(c2_ctx.coset_count())) for _ in range(3)
        )
        left = multiply(c2_ctx, multiply(c2_ctx, wa, wb), wc)
        right = multiply(c2_ctx, wa, multiply(c2_ctx, wb, wc))
        ok = ok and left == right
        got = sp4_oracle.embed(c2_ctx, left)
        want = sp4_oracle.mat_mul(
            sp4_oracle.embed(c2_ctx, wa),
            sp4_oracle.mat_mul(sp4_oracle.embed(c2_ctx, wb), sp4_oracle.embed(c2_ctx, wc)),
        )
        ok = ok and sp4_oracle.same_coset(got, want)
    _gate(9, "closure, depth chains, parabolics, oracle associativity", started, ok)
