from fractions import Fraction

import pytest

from shallow_chars.context import Context
from shallow_chars.root_system import build_root_system
from shallow_chars.affine_roots import (
    AffineRoot,
    affine_sum,
    barycenter,
    decompose_shallow,
    delta_coordinates,
    depth,
    facet_of,
    facet_point,
    from_delta,
    in_closed_alcove,
    is_indecomposable,
    is_positive_affine,
    is_shallow,
    n_J,
    negate_affine,
    parse_point,
    shallow_roots,
    simple_affine_roots,
)

# gradient/level pairs in enumeration order at the C2 barycenter
C2_SHALLOW = (
    ((-2, -1), 1),
    ((0, 1), 0),
    ((1, 0), 0),
    ((-1, -1), 1),
    ((1, 1), 0),
    ((-1, 0), 1),
    ((0, -1), 1),
    ((2, 1), 0),
)
C2_DEPTHS = ("1/4", "1/4", "1/4", "1/2", "1/2", "3/4", "3/4", "3/4")


def test_parse_point():
    assert parse_point(["1/4", 0, Fraction(2, 3)]) == (
        Fraction(1, 4),
        Fraction(0),
        Fraction(2, 3),
    )
    with pytest.raises(ValueError):
        parse_point([0.25, 0.25])


def test_barycenter_values():
    for cartan_type in ("A1", "A2", "C2", "G2", "B3"):
        rs = build_root_system(cartan_type)
        mu = barycenter(rs)
        for a in simple_affine_roots(rs):
            assert depth(a, mu) == Fraction(1, rs.coxeter_number)


def test_c2_shallow_enumeration():
    rs = build_root_system("C2")
    mu = barycenter(rs)
    roots = shallow_roots(rs, mu)
    assert tuple((a.gradient, a.level) for a in roots) == C2_SHALLOW
    assert tuple(str(depth(a, mu)) for a in roots) == C2_DEPTHS


def test_a1_midpoint():
    rs = build_root_system("A1")
    roots = shallow_roots(rs, barycenter(rs))
    assert roots == (AffineRoot((-1,), 1), AffineRoot((1,), 0))


def test_shallow_requires_alcove_point():
    rs = build_root_system("C2")
    with pytest.raises(ValueError):
        shallow_roots(rs, parse_point([1, 1]))
    assert not in_closed_alcove(rs, parse_point([1, 1]))
    assert in_closed_alcove(rs, barycenter(rs))


# C2 points of the wrong length, and points outside the closed alcove:
# past the wall of A_0 (theta = 2a_1 + a_2), and on the wrong side of a_1
SHORT_AND_LONG = ("1/4", "1/4,1/4,1/4")
OUTSIDE = ("1/2,1/4", "-1/4,1/2")


@pytest.mark.parametrize(
    "coords,message",
    [(c, "rank mismatch between root and point") for c in SHORT_AND_LONG]
    + [(c, "point lies outside the closed fundamental alcove") for c in OUTSIDE],
)
def test_census_refusals(coords, message):
    rs = build_root_system("C2")
    point = parse_point(coords.split(","))
    for build in (shallow_roots, facet_of, lambda rs, point: Context(rs, point, q=2)):
        with pytest.raises(ValueError, match=message):
            build(rs, point)
    if coords in OUTSIDE:
        assert not in_closed_alcove(rs, point)
    else:
        with pytest.raises(ValueError, match=message):
            in_closed_alcove(rs, point)


@pytest.mark.parametrize("cartan_type", ["A2", "C2", "G2", "B3"])
def test_delta_roundtrip_and_positivity(cartan_type):
    rs = build_root_system(cartan_type)
    for a in rs.roots:
        for n in (-2, -1, 0, 1, 2):
            alpha = AffineRoot(a, n)
            assert from_delta(rs, delta_coordinates(rs, alpha)) == alpha
            # positivity in the affine order, checked against the raw definition
            raw = n > 0 or (n == 0 and a in rs.positive_roots)
            assert is_positive_affine(rs, alpha) == raw


@pytest.mark.parametrize("cartan_type", ["A2", "C2", "G2", "A3", "B3"])
def test_shallow_roots_are_positive(cartan_type):
    rs = build_root_system(cartan_type)
    mu = barycenter(rs)
    for alpha in shallow_roots(rs, mu):
        assert is_positive_affine(rs, alpha)
        assert is_shallow(alpha, mu)


def test_facet_point_and_facet_of():
    rs = build_root_system("C2")
    mu = facet_point(rs, {1, 2})
    assert mu == (Fraction(1, 3), Fraction(1, 3))
    assert facet_of(rs, mu) == frozenset({1, 2})
    assert facet_of(rs, barycenter(rs)) == frozenset({0, 1, 2})
    # vertex of the alcove: a single simple affine root stays positive
    nu = facet_point(rs, {0})
    assert nu == (Fraction(0), Fraction(0))
    assert facet_of(rs, nu) == frozenset({0})
    with pytest.raises(ValueError):
        facet_point(rs, set())
    with pytest.raises(ValueError):
        facet_point(rs, {3})
    with pytest.raises(ValueError):
        facet_point(rs, {1, 2}, weights={1: 0})
    with pytest.raises(ValueError):
        facet_of(rs, parse_point([2, 2]))


@pytest.mark.parametrize(
    "cartan_type,J",
    [("A2", (1, 2)), ("C2", (1, 2)), ("C2", (0, 2)), ("G2", (0, 2)), ("B3", (0, 1))],
)
def test_shallow_set_depends_only_on_facet(cartan_type, J):
    rs = build_root_system(cartan_type)
    mu = facet_point(rs, J)
    nu = facet_point(rs, J, weights={J[0]: 2})
    assert mu != nu and facet_of(rs, mu) == facet_of(rs, nu)
    assert shallow_roots(rs, mu) == tuple(
        sorted(shallow_roots(rs, nu), key=lambda a: (depth(a, mu), a.gradient))
    )


@pytest.mark.parametrize("cartan_type", ["A2", "C2", "G2", "B3"])
def test_indecomposable_matches_brute_force(cartan_type):
    rs = build_root_system(cartan_type)
    for J in ({0, 1}, set(range(rs.rank + 1))):
        mu = facet_point(rs, J)
        order = shallow_roots(rs, mu)
        present = set(order)
        for alpha in order:
            brute = not any(
                affine_sum(beta, gamma) == alpha
                for beta in order
                for gamma in order
            )
            assert is_indecomposable(rs, alpha, J) == brute
            assert brute == (n_J(rs, alpha, J) == 1)
            split = decompose_shallow(rs, alpha, mu)
            if brute:
                assert split is None
            else:
                beta, gamma = split
                assert beta in present and gamma in present
                assert affine_sum(beta, gamma) == alpha


def test_c2_barycenter_indecomposables():
    rs = build_root_system("C2")
    mu = barycenter(rs)
    J = frozenset({0, 1, 2})
    simple = set(simple_affine_roots(rs))
    indec = {a for a in shallow_roots(rs, mu) if is_indecomposable(rs, a, J)}
    assert indec == simple


def test_is_indecomposable_rejects_non_shallow():
    rs = build_root_system("C2")
    # depth exactly 1 on the facet where the wall through 2a1+a2 closes up
    with pytest.raises(ValueError):
        is_indecomposable(rs, AffineRoot((2, 1), 0), {1, 2})


def test_affine_arithmetic():
    a = AffineRoot((1, 0), 0)
    b = AffineRoot((-2, -1), 1)
    assert affine_sum(a, b) == AffineRoot((-1, -1), 1)
    assert negate_affine(b) == AffineRoot((2, 1), -1)
    assert depth(b, (Fraction(1, 4), Fraction(1, 4))) == Fraction(1, 4)
