import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from shallow_chars.affine_roots import (
    AffineRoot,
    barycenter,
    depth,
    facet_point,
    negate_affine,
    scale_point,
    simple_affine_roots,
)
from shallow_chars.characters import ShallowCharacter, char_depth
from shallow_chars.chevalley import Pinning
from shallow_chars.context import Context
from shallow_chars.root_system import build_root_system
from shallow_chars import weyl
from shallow_chars.weyl import (
    _FINITE_WALK_LIMIT,
    AffineWeylElement,
    StarVerdict,
    _ball,
    _ball_size,
    _chain,
    _chain_bounded,
    _chain_points,
    _finite_elements,
    _fold,
    _move_point,
    _on_coroots,
    _shortlex_walk,
    _weyl_group_order,
    _word_sign,
    barycenter_criterion,
    condition_star,
    intertwining_reduction,
    intertwining_scan,
    long_element,
    support,
)

from boundedness_oracle import (
    cone_lattice_point, orbit_witness_ranges, polytope_bounded, reference_projections,
    unpruned_eliminate,
)
from conftest import SP4_PARAMS
from intertwining_oracle import reference_reduction, reference_scan, reference_sign
from span_oracle import span_elements
from weyl_walk_oracle import bfs


def _chi(ctx, vector):
    return ShallowCharacter.from_vector(ctx, vector)


def test_simple_reflections_are_involutions(c2):
    for i in range(3):
        s = AffineWeylElement.simple(c2, i)
        assert not s.is_identity()
        assert s.compose(s).is_identity()
    with pytest.raises(ValueError):
        AffineWeylElement.simple(c2, 3)


def test_zeroth_reflection(c2):
    s0 = AffineWeylElement.simple(c2, 0)
    assert s0.translation == (1, 1)  # coroot of the highest root
    a0 = AffineRoot((-2, -1), 1)
    assert s0.act_on_root(a0) == negate_affine(a0)
    assert s0.act_on_root(AffineRoot((2, 1), 0)) == AffineRoot((-2, -1), 2)


def test_translations(c2):
    t = AffineWeylElement.translation_by(c2, (1, 0))
    lam = barycenter(c2)
    assert t.act_on_point(lam) == (Fraction(9, 4), Fraction(-7, 4))
    # levels drop by the pairing with the translation coroot
    assert t.act_on_root(AffineRoot((1, 0), 0)) == AffineRoot((1, 0), -2)
    assert t.act_on_root(AffineRoot((0, 1), 0)) == AffineRoot((0, 1), 2)
    back = t.compose(t.inverse())
    assert back.is_identity()


# In simply-laced types every root has the same length, so only the B, C
# and G types exercise the rescaling of the root map on coroots.
PROPERTY_TYPES = ("C2", "G2", "B3", "C3", "A3", "D4")


def test_words_compose():
    for cartan_type in PROPERTY_TYPES:
        rs = build_root_system(cartan_type)
        letters = rs.rank + 1
        rng = random.Random(2)
        for _ in range(20):
            u = tuple(rng.randrange(letters) for _ in range(rng.randrange(6)))
            v = tuple(rng.randrange(letters) for _ in range(rng.randrange(6)))
            wu = AffineWeylElement.from_word(rs, u)
            wv = AffineWeylElement.from_word(rs, v)
            assert AffineWeylElement.from_word(rs, u + v).key() == wu.compose(wv).key()
            assert wu.compose(wu.inverse()).is_identity()
            assert wu.inverse().word == tuple(reversed(u))


def test_action_compatibility():
    for cartan_type in PROPERTY_TYPES:
        rs = build_root_system(cartan_type)
        rng = random.Random(5)
        roots = list(rs.roots)
        for _ in range(50):
            word = tuple(rng.randrange(rs.rank + 1) for _ in range(rng.randrange(8)))
            w = AffineWeylElement.from_word(rs, word)
            alpha = AffineRoot(rng.choice(roots), rng.randrange(-2, 3))
            mu = tuple(Fraction(rng.randrange(-8, 9), 4) for _ in range(rs.rank))
            assert depth(w.act_on_root(alpha), w.act_on_point(mu)) == depth(alpha, mu)


def test_coroot_action_follows_root_map():
    # w(a^vee) = (w a)^vee for every root, read off the root map alone
    for cartan_type in PROPERTY_TYPES:
        rs = build_root_system(cartan_type)
        for w in _finite_elements(rs)[:200]:
            for a in rs.roots:
                image = _on_coroots(rs, w.root_map, rs.coroot(a))
                assert image == rs.coroot(w.act_on_root(AffineRoot(a, 0)).gradient)


def test_element_json(c2):
    w = AffineWeylElement.from_word(c2, (0, 1))
    data = w.to_json()
    assert data["word"] == [0, 1]
    assert len(data["translation"]) == 2


def test_long_elements(c2, a2):
    assert long_element(c2, {1}).word == (1,)
    assert long_element(c2, {0, 2}).word == (0, 2)
    assert long_element(c2, {1, 2}).word == (1, 2, 1, 2)
    assert len(long_element(a2, {1, 2}).word) == 3
    simples = simple_affine_roots(c2)
    for subset in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
        w = long_element(c2, subset)
        for i in subset:
            image = w.act_on_root(simples[i])
            assert depth(image, barycenter(c2)) < 0
    with pytest.raises(ValueError):
        long_element(c2, set())
    with pytest.raises(ValueError):
        long_element(c2, {0, 1, 2})
    with pytest.raises(ValueError):
        long_element(c2, {3})


def test_support(c2_ctx):
    lam = c2_ctx.point
    assert support(c2_ctx, lam, Fraction(3, 4)) == frozenset(c2_ctx.roots[5:])
    assert support(c2_ctx, lam, 0) == frozenset(c2_ctx.roots)
    moved = (Fraction(-1, 4), Fraction(3, 4))
    assert support(c2_ctx, moved, Fraction(7, 8)) == frozenset(
        {AffineRoot((-1, 0), 1)}
    )
    assert len(support(c2_ctx, moved, Fraction(3, 4))) == 3


def test_condition_star_example(sp4_example, c2_ctx):
    star = condition_star(sp4_example)
    assert star.status == "fails"
    assert star.bounded and star.radius is None
    w = star.witness
    assert w.word == (1,) and w.word_translation == (0, 0)
    mu = w.act_on_point(c2_ctx.point)
    assert mu == (Fraction(-1, 4), Fraction(3, 4))
    supp = [r for r, c in zip(c2_ctx.roots, sp4_example.vector) if c]
    assert all(depth(a, mu) <= Fraction(3, 4) for a in supp)
    data = star.to_json()
    assert data["condition_star"] == "fails"
    assert data["witness"]["word"] == [1]


def test_condition_star_trivial_rejected(c2_ctx):
    with pytest.raises(ValueError):
        condition_star(_chi(c2_ctx, (0,) * 8))


def test_condition_star_holds_for_full_simple_support(c2_ctx):
    star = condition_star(_chi(c2_ctx, (1, 1, 1, 0, 0, 0, 0, 0)))
    assert star.status == "holds"
    assert star.bounded and star.witness is None


def test_condition_star_translation_witness(c2_ctx):
    # support on two simple roots only: the witness polytope is unbounded
    # and the sweep lands on a pure translation
    star = condition_star(_chi(c2_ctx, (0, 1, 1, 0, 0, 0, 0, 0)))
    assert star.status == "fails"
    assert not star.bounded and star.radius == 4
    assert star.witness.word == ()
    assert any(star.witness.word_translation)


def test_condition_star_matches_long_element_construction(c2_ctx, c2):
    # a vanishing simple parameter yields a failure, witnessed independently
    # by the long element on the letters still carrying the character
    chi = _chi(c2_ctx, (1, 1, 0, 0, 0, 0, 0, 0))  # a0, a2 nontrivial, a1 trivial
    star = condition_star(chi)
    assert star.status == "fails"
    w = long_element(c2, {0, 2})
    mu = w.act_on_point(c2_ctx.point)
    assert mu != c2_ctx.point
    supp = [r for r, c in zip(c2_ctx.roots, chi.vector) if c]
    assert all(depth(a, mu) <= Fraction(1, 4) for a in supp)


def test_condition_star_broad_support_finishes(monkeypatch):
    # every shallow parameter nonzero: Fourier-Motzkin once kept every
    # combined row on D4 and did not finish in minutes, and on E6 the
    # chain grew 141 -> 709 -> 9,811 rows before Chernikov's rule pruned
    # it.  E7 and E8 hold without a walk; D4 and E6 hold by the walk too
    for cartan_type in ("D4", "E6", "E7", "E8"):
        rs = build_root_system(cartan_type)
        ctx = Context(rs, barycenter(rs), q=3)
        chi = _chi(ctx, (1,) * ctx.n_roots)
        star = condition_star(chi)
        assert star == StarVerdict("holds", None, True, None), cartan_type
        if cartan_type in ("D4", "E6"):
            with monkeypatch.context() as patch:
                patch.setattr(weyl, "_scan_holds", lambda *args: False)
                assert _verdict(condition_star(chi)) == _verdict(star), cartan_type


# Types whose finite Weyl group a test walks in full, each with |W| <= 1,152.
WALKED_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")


def test_weyl_group_order_matches_walk():
    for cartan_type in WALKED_TYPES:
        rs = build_root_system(cartan_type)
        assert _weyl_group_order(rs) == len(_finite_elements(rs)), cartan_type


def test_shortlex_walk_matches_bfs_oracle():
    # the walk against composition, element by element and in order: the
    # finite group, affine balls, and finite parabolics with and without
    # letter 0
    for cartan_type in WALKED_TYPES:
        rs = build_root_system(cartan_type)
        l = rs.rank
        cases = [(range(1, l + 1), None)] + [(range(l + 1), radius) for radius in range(7)]
        for subset in ({0}, {0, 1}, set(range(l)), set(range(1, l + 1)), {0, l}):
            if len(subset) <= l:  # proper, so the parabolic is finite
                cases.append((sorted(subset), None))
        for letters, radius in cases:
            expected = [(w.word, w.root_map, w.root_map_inv, w.translation)
                        for w in bfs(rs, letters, radius)]
            walked = [(word, tuple(zip(*images)), minv, t)
                      for word, images, minv, t in _shortlex_walk(rs, letters, radius)]
            assert walked == expected, (cartan_type, letters, radius)


def test_shortlex_walk_covers_e6():
    # W(E6) is walked without building an element, one level at a time
    e6 = build_root_system("E6")
    keys = {minv for _, _, minv, _ in _shortlex_walk(e6, range(1, 7))}
    assert len(keys) == _weyl_group_order(e6) == 51_840


def test_ball_size_matches_walk():
    for cartan_type in ("A2", "C2", "G2", "A3", "C3", "D4"):
        rs = build_root_system(cartan_type)
        for radius in range(7):
            assert _ball_size(rs, radius) == len(_ball(rs, radius)), (cartan_type, radius)
    # the values the intertwining benchmark checks against
    for cartan_type, radius, size in (("C2", 8, 97), ("C2", 16, 364), ("C3", 6, 161),
                                      ("A3", 6, 195)):
        assert _ball_size(build_root_system(cartan_type), radius) == size
    e8 = build_root_system("E8")
    assert _ball_size(e8, 12) == 202_683 > _FINITE_WALK_LIMIT
    with pytest.raises(ValueError, match="202,683"):
        _ball(e8, 12)


def test_ball_size_lower_bound():
    # every length from 1 on holds at least l + 1 elements, which is what
    # lets a huge radius be refused without summing Bott's series
    for cartan_type in ("A1", "A4", "B3", "C2", "D5", "G2", "F4", "E6", "E8"):
        rs = build_root_system(cartan_type)
        for radius in (0, 1, 2, 5, 30):
            assert _ball_size(rs, radius) >= 1 + (rs.rank + 1) * radius, (cartan_type, radius)
    # past the limit by the bound alone: refused without the exact size
    with pytest.raises(ValueError, match="has at least 120,001 elements"):
        _ball(build_root_system("C2"), 40_000)


def _boundedness_characters(cartan_type):
    """Random characters at the barycenter and at random facets.

    Rank 4 gets fewer points and characters, as a bounded search that
    holds may walk all of W.
    """
    rs = build_root_system(cartan_type)
    small = rs.rank < 4
    rng = random.Random(f"bounded/{cartan_type}")
    points = [barycenter(rs)]
    while len(points) < (4 if small else 2):
        facet = rng.sample(range(rs.rank + 1), rng.randrange(1, rs.rank + 1))
        points.append(facet_point(rs, facet))
    for point in points:
        ctx = Context(rs, point, q=2)
        if not ctx.roots:
            continue
        for density in (0.15, 0.8, 0.3, 0.5) * (2 if small else 1):
            vec = [int(rng.random() < density) for _ in ctx.roots]
            vec[rng.randrange(ctx.n_roots)] = 1
            yield ctx, vec


@pytest.mark.parametrize("cartan_type", WALKED_TYPES)
def test_condition_star_boundedness_matches_recession_cone(cartan_type):
    # boundedness read off the chain agrees with the recession-cone
    # test, at the barycenter and at random facets
    seen = set()
    for ctx, vec in _boundedness_characters(cartan_type):
        supp = [a.gradient for a, c in zip(ctx.roots, vec) if c]
        bounded = polytope_bounded(supp, ctx.rs.rank)
        assert condition_star(_chi(ctx, vec), radius=0).bounded == bounded
        seen.add(bounded)
    assert seen == {True, False}


def _star_by_orbit_sweep(chi, radius):
    """First (word, k) with w(lambda) + k a witness, sweeping a fixed box.

    Every finite Weyl element is tried with every k in [-radius, radius]^l,
    without Fourier-Motzkin and in integers: points are scaled by a
    common denominator n.  Each witness found is checked to lie inside
    the k-ranges of the rational reference projection, exact ones for a
    bounded polytope and those of the sweep at this radius otherwise,
    and those ranges inside the box, so the sweep misses nothing the
    search could find.
    """
    ctx = chi.context
    rs = ctx.rs
    box = range(-radius, radius + 1)
    supp = [a for a, c in zip(ctx.roots, chi.vector) if c]
    r = char_depth(chi)
    n = math.lcm(r.denominator, *(x.denominator for x in ctx.point))
    # a(mu) <= r, times n
    bounds = [(a.gradient, int((r - a.level) * n)) for a in supp]
    projections = reference_projections(rs, [(a.gradient, r - a.level) for a in supp], n)
    sweep = None if polytope_bounded([a.gradient for a in supp], rs.rank) else radius
    # n * sum k_j a_j^vee in the point's coordinates: a_j^vee is cartan[j]
    shifts = [
        (k, [n * sum(kj * rs.cartan[j][i] for j, kj in enumerate(k)) for i in range(rs.rank)])
        for k in itertools.product(box, repeat=rs.rank)
    ]
    point = [int(x * n) for x in ctx.point]
    first = None
    for w_fin in _finite_elements(rs):
        nu = [int(x * n) for x in w_fin.act_on_point(ctx.point)]
        ranges = orbit_witness_ranges(nu, projections, sweep)
        assert all(set(rg) <= set(box) for rg in ranges)
        for k, shift in shifts:
            mu = [x + y for x, y in zip(nu, shift)]
            if mu == point or any(
                sum(g * m for g, m in zip(grad, mu)) > b for grad, b in bounds
            ):
                continue
            assert all(kj in rg for kj, rg in zip(k, ranges))
            first = first or (w_fin.word, k)
    return first


# (type, facet, weights, radius, density); weights make n, the point's
# denominator, larger than at the facet's own point
ORBIT_SWEEP_CASES = [(t, None, None, 3, 0.4) for t in ("A2", "C2", "G2", "A3", "B3", "C3")] + [
    ("C2", (1,), None, 3, 0.4),
    ("G2", (1, 2), None, 5, 0.4),  # bounded polytopes at this facet reach k_j = +-5
    ("A3", (0, 2), None, 3, 0.4),
    ("B3", (0, 1), None, 3, 0.4),
    # weighted points inside the alcove and on a facet
    ("G2", (0, 1, 2), {0: 1, 1: 3, 2: 4}, 5, 0.4),  # bounded ones reach k_j = +-5
    ("B3", (0, 1, 2, 3), {0: 1, 1: 1, 2: 2, 3: 5}, 3, 0.4),
    ("C3", (0, 1, 2, 3), {0: 2, 1: 1, 2: 1, 3: 2}, 3, 0.4),
    ("C3", (0, 2), {0: 3, 2: 1}, 3, 0.4),
    # dense supports cut out small polytopes, all bounded here
    ("F4", None, None, 1, 0.9),
]


def _case_id(cartan_type, facet, weights, density):
    facet_id = f"-facet{''.join(map(str, facet))}" if facet else ""
    weights_id = f"-w{''.join(str(weights[j]) for j in sorted(weights))}" if weights else ""
    return cartan_type + facet_id + weights_id + ("-dense" if density > 0.5 else "")


def _orbit_sweep_characters(cartan_type, facet, weights, density):
    """The context of one case and its characters, keyed by boundedness.

    Four bounded characters and two unbounded ones; two bounded ones for
    a dense support.  At the barycenter the first bounded one is the
    character on the simple affine roots.
    """
    rs = build_root_system(cartan_type)
    ctx = Context(rs, facet_point(rs, facet, weights) if facet else barycenter(rs), q=2)
    seed = cartan_type if facet is None else f"{cartan_type}/{facet}"
    rng = random.Random(seed if weights is None else f"{seed}/{sorted(weights.items())}")
    wanted = {True: 4, False: 2} if density < 0.5 else {True: 2, False: 0}
    chars = {True: [], False: []}
    if facet is None:
        chars[True].append([int(a in simple_affine_roots(rs)) for a in ctx.roots])
    while any(len(chars[b]) < wanted[b] for b in chars):
        vec = [int(rng.random() < density) for _ in ctx.roots]
        if not any(vec):
            continue
        bounded = polytope_bounded([a.gradient for a, c in zip(ctx.roots, vec) if c], rs.rank)
        if len(chars[bounded]) < wanted[bounded]:
            chars[bounded].append(vec)
    return ctx, chars


@pytest.mark.parametrize(
    "cartan_type, facet, weights, radius, density",
    ORBIT_SWEEP_CASES,
    ids=[_case_id(t, f, w, d) for t, f, w, _, d in ORBIT_SWEEP_CASES],
)
def test_condition_star_matches_orbit_sweep(cartan_type, facet, weights, radius, density):
    # bounded characters are searched exactly; unbounded ones are swept
    # at the oracle's radius, and both must give its first witness
    ctx, chars = _orbit_sweep_characters(cartan_type, facet, weights, density)
    for bounded, vecs in chars.items():
        for vec in vecs:
            chi = _chi(ctx, vec)
            star = condition_star(chi, radius=radius)
            assert star.bounded == bounded
            first = _star_by_orbit_sweep(chi, radius)
            if first is None:
                assert star.status == ("holds" if bounded else "inconclusive")
            else:
                assert star.status == "fails"
                assert (star.witness.word, star.witness.word_translation) == first
    if facet is None:
        assert condition_star(_chi(ctx, chars[True][0])).status == "holds"


def test_unbounded_polytopes_fail_by_a_translation():
    """An unbounded witness polytope always fails condition (*).

    Its recession cone is rational and nonzero, so it holds a nonzero
    coroot lattice point k, and the translation t_k moves lambda to
    lambda + k != lambda inside the polytope.  On every character of the
    boundedness and orbit-sweep matrices, a brute search of the box
    |k_j| <= 7 finds such a k exactly when the chain reads the polytope
    as unbounded, and a search whose radius reaches k fails at w = 1: an
    "inconclusive" verdict is a failure with no witness within its
    radius.
    """
    cases = [case for t in WALKED_TYPES for case in _boundedness_characters(t)]
    for cartan_type, facet, weights, _, density in ORBIT_SWEEP_CASES:
        ctx, chars = _orbit_sweep_characters(cartan_type, facet, weights, density)
        cases += [(ctx, vec) for vec in chars[True] + chars[False]]
    seen = set()
    for ctx, vec in cases:
        chi = _chi(ctx, vec)
        supp = [a.gradient for a, c in zip(ctx.roots, vec) if c]
        k = cone_lattice_point(supp, ctx.rs.cartan, 7)
        bounded = condition_star(chi, radius=0).bounded
        assert (k is None) == bounded, (ctx, vec, k)
        if k is not None:
            star = condition_star(chi, radius=max(map(abs, k)))
            assert (star.status, star.bounded, star.witness.word) == ("fails", False, ()), k
        seen.add(bounded)
    assert seen == {True, False}


def _verdict(star):
    """Every field of a StarVerdict, its witness as a word and an element."""
    w = star.witness
    return star.to_json(), w and (w.word, w.word_translation, w.key())


def test_scan_matches_walk(monkeypatch):
    # the whole verdict with the lattice scan and with the walk alone, on
    # the characters of the orbit-sweep and boundedness matrices
    scan = weyl._scan_holds
    outcomes = set()

    def both_ways(chi, radius):
        decided = []
        monkeypatch.setattr(weyl, "_scan_holds",
                            lambda *args: decided.append(scan(*args)) or decided[-1])
        star = condition_star(chi, radius=radius)
        monkeypatch.setattr(weyl, "_scan_holds", lambda *args: False)
        assert _verdict(star) == _verdict(condition_star(chi, radius=radius))
        if decided:
            outcomes.add((decided[0], star.status))

    for cartan_type, facet, weights, radius, density in ORBIT_SWEEP_CASES:
        ctx, chars = _orbit_sweep_characters(cartan_type, facet, weights, density)
        for vec in chars[True] + chars[False]:
            both_ways(_chi(ctx, vec), radius)
    for cartan_type in WALKED_TYPES:
        for ctx, vec in _boundedness_characters(cartan_type):
            both_ways(_chi(ctx, vec), 0)
    # the scan decided holding characters; it left bounded ones that fail
    # to the walk, and some that hold, where it gave up at |W| points
    assert outcomes == {(True, "holds"), (False, "fails"), (False, "holds")}


def test_scan_guard_falls_back_to_the_walk(monkeypatch):
    # at n = 43 the lattice lambda + Q^vee / n is so fine that the full
    # character's polytope holds more than |W(C2)| = 8 of its points: the
    # scan gives up, though with no limit it finds no other orbit point,
    # and the walk gives the same verdict as the walk alone
    rs = build_root_system("C2")
    ctx = Context(rs, facet_point(rs, (0, 1, 2), {2: 40}), q=2)
    assert ctx.scaled_point[0] == 43
    chi = _chi(ctx, (1,) * ctx.n_roots)
    scan, calls = weyl._scan_holds, []
    monkeypatch.setattr(weyl, "_scan_holds", lambda *args: calls.append(args) or scan(*args))
    star = condition_star(chi)
    (args,) = calls
    assert args[-1] == _weyl_group_order(rs) == 8
    assert not scan(*args) and scan(*args[:-1], math.inf)
    monkeypatch.setattr(weyl, "_scan_holds", lambda *args: False)
    assert _verdict(star) == _verdict(condition_star(chi))
    assert star == StarVerdict("holds", None, True, None)


@pytest.mark.parametrize("cartan_type", ("C2", "G2", "B3"))
def test_fold_is_constant_on_orbits(cartan_type):
    # every element of the radius-4 ball moves lambda to a point that
    # folds back to lambda's fold, inside the closed alcove, at the
    # barycenter, a weighted interior point and a weighted facet point
    rs = build_root_system(cartan_type)
    l, theta = rs.rank, rs.highest_root
    ball = _ball(rs, 4)
    points = [barycenter(rs), facet_point(rs, range(l + 1), {j: j + 1 for j in range(l + 1)}),
              facet_point(rs, (0, l), {0: 3})]
    for point in points:
        n, scaled = scale_point(point)
        target = _fold(rs, n, scaled)
        assert target == scaled  # lambda lies in the closed alcove
        for w in ball:
            folded = _fold(rs, n, _move_point(w, n, scaled))
            assert folded == target, (point, w)
            assert min(folded) >= 0 and sum(a * x for a, x in zip(theta, folded)) <= n


def test_scan_decides_stable_epipelagic_characters_without_a_walk(monkeypatch):
    # the polytope of a stable epipelagic character is {lambda}, so the
    # scan alone gives "holds" on E6 and F4
    def no_walk(*args):
        raise AssertionError("condition (*) walked the Weyl group")

    for cartan_type, q in (("E6", 2), ("F4", 3)):
        rs = build_root_system(cartan_type)
        ctx = Context(rs, barycenter(rs), q=q)
        vec = [0] * ctx.n_roots
        for i, a in enumerate(simple_affine_roots(rs)):
            vec[ctx.index[a]] = 1 + i % (q - 1)
        chi = _chi(ctx, vec)
        monkeypatch.setattr(weyl, "_shortlex_walk", no_walk)
        assert condition_star(chi) == StarVerdict("holds", None, True, None)
        monkeypatch.undo()
        vec[ctx.index[simple_affine_roots(rs)[0]]] = 0  # unstable: the walk finds a witness
        assert condition_star(_chi(ctx, vec)).status == "fails"


# (type, facet, densities): the chain of integer projections against the
# rational reference, on supports from sparse to dense; D5 and B4 take
# half and full supports
PROJECTION_CASES = [
    ("A2", None, (0.2, 0.5, 0.9)),
    ("C2", (1,), (0.2, 0.5, 0.9)),
    ("G2", None, (0.2, 0.5, 0.9)),
    ("B3", None, (0.2, 0.5, 0.9)),
    ("C3", (0, 2), (0.2, 0.5, 0.9)),
    ("D4", None, (0.3, 0.9)),
    ("F4", None, (0.3, 0.9, 0.95)),
    ("D5", None, (0.5, 1)),
    ("B4", None, (0.5, 1)),
]


@pytest.mark.parametrize(
    "cartan_type, facet, densities",
    PROJECTION_CASES,
    ids=[t + (f"-facet{''.join(map(str, f))}" if f else "") for t, f, _ in PROJECTION_CASES],
)
def test_integer_projections_match_reference(monkeypatch, cartan_type, facet, densities):
    # at every finite orbit point nu the chain's points of stride n are,
    # in order, the points of the reference's box that pass every row,
    # and the chain and the reference read boundedness alike.  On every
    # case here each link of the chain, pruned by Chernikov's rule, lists
    # the same prefixes as the link of the chain built with no rule; in
    # general a pruned link may be looser (see the next test)
    rs = build_root_system(cartan_type)
    ctx = Context(rs, facet_point(rs, facet) if facet else barycenter(rs), q=2)
    rng = random.Random(f"projections/{cartan_type}")
    n, point = ctx.scaled_point
    orbit = [
        tuple(sum(minv[p][i] * point[p] for p in range(rs.rank)) for i in range(rs.rank))
        for _, _, minv, _ in _shortlex_walk(rs, range(1, rs.rank + 1))
    ]
    for density in densities:
        for _ in range(2 if density < 1 else 1):  # a full support is drawn once
            vec = [int(rng.random() < density) for _ in ctx.roots]
            vec[rng.randrange(ctx.n_roots)] = 1
            supp = [a for a, c in zip(ctx.roots, vec) if c]
            r = char_depth(_chi(ctx, vec))
            bounds = [(a.gradient, int(n * (r - a.level))) for a in supp]
            # g . (nu + n * sum k_j a_j^vee) <= b, with a_j^vee = cartan[j]
            k_rows = [([n * sum(map(mul, g, row)) for row in rs.cartan], g, b) for g, b in bounds]
            chain = _chain(rs, bounds)
            with monkeypatch.context() as patch:
                patch.setattr(weyl, "_fm_eliminate", unpruned_eliminate)
                unpruned = _chain(rs, bounds)
            want = reference_projections(rs, [(a.gradient, r - a.level) for a in supp], n)
            bounded = polytope_bounded([a.gradient for a in supp], rs.rank)
            assert _chain_bounded(chain) == _chain_bounded(want) == bounded
            assert _chain_bounded(unpruned) == bounded
            for radius in (None, 2) if bounded else (2,):
                stretch = None if radius is None else n * radius
                for nu in orbit:
                    cuts = [(kc, b - sum(map(mul, g, nu))) for kc, g, b in k_rows]
                    box = itertools.product(*orbit_witness_ranges(nu, want, radius))
                    inside = [k for k in box if all(sum(map(mul, kc, k)) <= b for kc, b in cuts)]
                    got = _chain_points(chain, nu, n, stretch)
                    assert [tuple(x // n for x in p) for p in got] == inside, (vec, nu, radius)
                    for m in range(1, rs.rank):
                        assert (list(_chain_points(chain[:m], nu, n, stretch))
                                == list(_chain_points(unpruned[:m], nu, n, stretch))), (vec, nu, m)


# A4 characters whose pruned chain is looser than the exact one: at the
# barycenter it reads the bounded polytope as unbounded; at the point
# (0, 1/3, 0, 1/2) it reads it as bounded, but its links list prefixes
# that lead to no point of the polytope
LOOSE_CHAIN_CASES = [
    (None, (1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0)),
    ((0, Fraction(1, 3), 0, Fraction(1, 2)), (1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0)),
]


def test_pruned_chain_is_looser_never_tighter(monkeypatch):
    # Chernikov's rule next to the tightest-row-per-direction step can
    # drop a row the projection needs.  Every link still holds on the
    # polytope, so each lists a superset of the exact link's prefixes,
    # the points agree, and a pruned chain that reads bounded is right;
    # condition (*) rebuilds the chain unpruned when it reads unbounded,
    # so its whole verdict matches the one built with no rule at all
    rs = build_root_system("A4")
    outcomes = []
    for point, vec in LOOSE_CHAIN_CASES:
        ctx = Context(rs, point or barycenter(rs), q=2)
        chi = _chi(ctx, vec)
        n, scaled = ctx.scaled_point
        r = char_depth(chi)
        supp = [a for a, c in zip(ctx.roots, vec) if c]
        bounds = [(a.gradient, math.floor(n * (r - a.level))) for a in supp]
        chain = _chain(rs, bounds)
        with monkeypatch.context() as patch:
            patch.setattr(weyl, "_fm_eliminate", unpruned_eliminate)
            exact = _chain(rs, bounds)
            unpruned = [_verdict(condition_star(chi, radius=radius)) for radius in (0, 2)]
        assert [_verdict(condition_star(chi, radius=radius)) for radius in (0, 2)] == unpruned
        bounded = polytope_bounded([a.gradient for a in supp], rs.rank)
        assert bounded and _chain_bounded(exact)
        stretch = None if _chain_bounded(chain) else 2 * n
        looser = False
        for _, _, minv, _ in _shortlex_walk(rs, range(1, rs.rank + 1)):
            nu = tuple(sum(minv[p][i] * scaled[p] for p in range(rs.rank)) for i in range(rs.rank))
            for m in range(1, rs.rank + 1):
                loose = list(_chain_points(chain[:m], nu, n, stretch))
                tight = list(_chain_points(exact[:m], nu, n, stretch))
                assert set(tight) <= set(loose) and (m < rs.rank or loose == tight), (nu, m)
                looser |= loose != tight
        outcomes.append((_chain_bounded(chain), looser))
    assert outcomes == [(False, True), (True, True)]


def _random_valid(space, rng):
    f = space.context.field
    vec = (0,) * space.context.n_roots
    for chi in space.basis:
        c = rng.randrange(f.p)
        vec = tuple(f.add(x, f.mul(c, v)) for x, v in zip(vec, chi.vector))
    return vec


REDUCTION_CASES = [("C2", None, 8), ("C3", None, 6), ("A3", None, 6),
                   # facets put affine roots at depth 0, on both sides of the test;
                   # at the G2 facet {1} some characters have a stabilizer of 2
                   ("C2", (1,), 8), ("A3", (0, 2), 6), ("G2", (1,), 8),
                   # adjoint pinnings
                   ("G2", None, 8), ("B3", None, 5), ("F4", None, 3)]


REDUCTION_IDS = [f"{t}-r{r}" + (f"-facet{''.join(map(str, f))}" if f else "")
                 for t, f, r in REDUCTION_CASES]


def _reduction_characters(cartan_type, facet):
    """Stable characters (every shallow simple parameter nonzero) and random valid ones."""
    from shallow_chars.characters import solve_space

    rs = build_root_system(cartan_type)
    ctx = Context(rs, facet_point(rs, facet) if facet else barycenter(rs), q=3)
    rng = random.Random(f"reduction/{cartan_type}/{facet}")
    simples = [ctx.index[a] for a in simple_affine_roots(rs) if a in ctx.index]
    space = solve_space(ctx, cross_check=False)
    vectors = []
    for _ in range(2):
        vec = [0] * ctx.n_roots
        for pos in simples:
            vec[pos] = rng.randrange(1, 3)
        vectors.append(vec)
    vectors += [_random_valid(space, rng) for _ in range(4)]
    return [_chi(ctx, vec) for vec in vectors]


def _translated(rs):
    """Elements t_k w, k a small coroot and w a word through letter 0.

    `_ball` yields none of these: each has a nonzero `word_translation`
    and a word that omits its translation.
    """
    l = rs.rank
    shifts = [tuple(s * (i == j) for j in range(l)) for i in range(l) for s in (1, -1, 2)]
    shifts.append(tuple((-1) ** j for j in range(l)))
    words = [(0,), (0, 1), (1, 0), (l, 0, 1), (0, l, 0)]
    return [AffineWeylElement.translation_by(rs, k).compose(AffineWeylElement.from_word(rs, word))
            for k in shifts for word in words]


@pytest.mark.parametrize("cartan_type, facet, radius", REDUCTION_CASES, ids=REDUCTION_IDS)
def test_intertwining_reduction_matches_reference(cartan_type, facet, radius):
    # every element of the ball, and translated elements the walk never
    # builds, so the shared rule is checked off the walk's steps too
    characters = _reduction_characters(cartan_type, facet)
    rs = build_root_system(cartan_type)
    elements = _ball(rs, radius) + _translated(rs)
    for chi in characters:
        for w in elements:
            assert intertwining_reduction(chi, w) == reference_reduction(chi, w), (chi.vector, w)


@pytest.mark.parametrize("cartan_type, facet, radius", REDUCTION_CASES, ids=REDUCTION_IDS)
def test_intertwining_scan_matches_reference(cartan_type, facet, radius):
    # the in-place test of each walk step gives the reference scan's
    # verdict, count, witness and stabilizer
    def summary(scan):
        witness = scan.witness.word if scan.witness else None
        return (scan.verdict, scan.moved_checked, witness, [w.word for w in scan.stabilizer])

    verdicts = set()
    for chi in _reduction_characters(cartan_type, facet):
        got = summary(intertwining_scan(chi, radius))
        assert got == summary(reference_scan(chi, radius)), chi.vector
        verdicts.add(got[0])
    assert "counterexample" in verdicts


SIGN_CASES = [("C2", 8), ("C3", 5), ("A3", 5), ("G2", 8), ("B3", 5), ("F4", 4)]


@pytest.mark.parametrize(
    "cartan_type, radius", SIGN_CASES, ids=[f"{t}-r{r}" for t, r in SIGN_CASES]
)
def test_sign_matches_refolding_reference(cartan_type, radius):
    # the pinning's letter tables give the sign of every word of the ball
    # at every finite root as refolding the word does; A and C have matrix
    # pinnings, G2, B3 and F4 adjoint ones
    rs = build_root_system(cartan_type)
    pinning = Pinning(rs)
    ball = _ball(rs, radius)
    assert any(0 in w.word for w in ball)
    tables = pinning.letter_tables
    for w in ball:
        for a in rs.roots:
            assert _word_sign(tables, w.word, a) == reference_sign(pinning, w, a), (w, a)


def test_barycenter_criterion_all_cases(c2_ctx, sp4_example):
    for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        if bits == (0, 0, 0):
            continue
        chi = _chi(c2_ctx, bits + (0,) * 5)
        report = barycenter_criterion(chi)
        assert report.all_simple_nontrivial == (bits == (1, 1, 1))
        assert (report.star.status == "holds") == report.all_simple_nontrivial
    with pytest.raises(ValueError):
        barycenter_criterion(_chi(c2_ctx, (0,) * 8))  # trivial: depth 0
    with pytest.raises(ValueError):
        barycenter_criterion(sp4_example)  # depth 3/4, not minimal
    edge = Context(c2_ctx.rs, (Fraction(1, 3), Fraction(1, 3)), q=2)
    with pytest.raises(ValueError):
        barycenter_criterion(_chi(edge, (1,) * edge.n_roots))


@pytest.mark.parametrize("cartan_type", ("E7", "E8"))
def test_barycenter_criterion_on_e7_and_e8(cartan_type):
    # Reeder-Yu (JAMS 27, 2014): a minimal-depth character at the
    # barycenter satisfies (*) exactly when every simple affine parameter
    # is nonzero.  The epipelagic character holds; with one node at zero
    # it fails by a pure translation.  E8 without node 0 is left out: its
    # witness lies outside the default radius (a radius-6 pin in the CLI
    # tests holds it)
    rs = build_root_system(cartan_type)
    ctx = Context(rs, barycenter(rs), q=2)
    simples = [ctx.index[a] for a in simple_affine_roots(rs)]
    for zero in (None, *range(len(simples))):
        if (cartan_type, zero) == ("E8", 0):
            continue
        vec = [0] * ctx.n_roots
        for node, pos in enumerate(simples):
            vec[pos] = int(node != zero)
        report = barycenter_criterion(_chi(ctx, vec))
        assert report.all_simple_nontrivial == (zero is None), zero
        if zero is not None:
            assert report.star.witness.word == (), zero


def test_intertwining_reduction(c2_ctx, sp4_example, c2):
    assert intertwining_reduction(sp4_example, AffineWeylElement.identity(c2))
    red = intertwining_reduction(sp4_example, AffineWeylElement.from_word(c2, (1,)))
    assert not red.compatible
    assert red.violated is not None
    # the trivial character is compatible with everything
    triv = _chi(c2_ctx, (0,) * 8)
    for word in ((), (0,), (1,), (2, 1)):
        assert intertwining_reduction(triv, AffineWeylElement.from_word(c2, word))


def test_intertwining_scan_refuses_a_large_ball_before_walking(monkeypatch, sp4_example):
    # the ball's size is read off Bott's series, or its lower bound, and
    # the walk never starts
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(weyl, "_shortlex_walk", no_walk)
    e8 = build_root_system("E8")
    trivial = _chi(Context(e8, barycenter(e8), q=2), (0,) * 240)
    with pytest.raises(ValueError, match="202,683 elements"):
        intertwining_scan(trivial, radius=12)
    with pytest.raises(ValueError, match="has at least 120,001 elements"):
        intertwining_scan(sp4_example, radius=40_000)


def test_intertwining_scan_example(sp4_example):
    scan = intertwining_scan(sp4_example, radius=8)
    assert scan.verdict == "collapses_to_P_chi"
    assert scan.witness is None
    assert scan.moved_checked == 96
    assert len(scan.stabilizer) == 1 and scan.stabilizer[0].is_identity()
    data = scan.to_json()
    assert data["intertwining"] == "collapses_to_P_chi"
    assert data["stabilizer_size"] == 1


def test_intertwining_scan_edge_cases(c2_ctx, sp4_example):
    triv = _chi(c2_ctx, (0,) * 8)
    scan = intertwining_scan(triv, radius=8)
    assert scan.verdict == "counterexample"
    assert scan.witness.word == (0,)
    assert intertwining_scan(sp4_example, radius=0).verdict == "inconclusive"
    bad = dict(SP4_PARAMS)
    bad[c2_ctx.roots[4]] = 0
    with pytest.raises(ValueError):
        intertwining_scan(ShallowCharacter(c2_ctx, bad), radius=2)


def test_star_holds_implies_no_compatible_mover(c2_ctx):
    from shallow_chars.characters import solve_space

    for chi in span_elements(solve_space(c2_ctx, cross_check=False)):
        if chi.is_trivial():
            continue
        star = condition_star(chi)
        if star.status == "holds":
            assert intertwining_scan(chi, radius=8).verdict == "collapses_to_P_chi"


def test_orbit_points_exceed_barycenter_depth_somewhere(c2, c2_ctx):
    # any moved orbit point pushes some simple affine value above 1/h,
    # which is what makes full simple support rigid
    from shallow_chars.weyl import _ball

    h = c2.coxeter_number
    simples = simple_affine_roots(c2)
    for w in _ball(c2, 4):
        mu = w.act_on_point(c2_ctx.point)
        if mu == c2_ctx.point:
            continue
        assert max(depth(a, mu) for a in simples) > Fraction(1, h)
