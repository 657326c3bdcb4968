import random

import pytest

from constants_oracle import ReferenceConstants, reference_pinning_hash
from expansion_oracle import shallow_commutator_expansion
from peeling_oracle import bracket_constant, lift, lift_sign, peel
from shallow_chars.root_system import add, build_root_system, negate
from shallow_chars.affine_roots import (
    AffineRoot,
    affine_combination,
    barycenter,
    is_shallow,
)
from shallow_chars.chevalley import (
    Pinning,
    commutator_expansion,
    extraspecial_pairs,
)
from shallow_chars.cli import _sp4_fixture

A0 = AffineRoot((-2, -1), 1)
A1 = AffineRoot((1, 0), 0)
A2 = AffineRoot((0, 1), 0)
A01 = AffineRoot((-1, -1), 1)
A12 = AffineRoot((1, 1), 0)
A012 = AffineRoot((-1, 0), 1)
A021 = AffineRoot((0, -1), 1)
A211 = AffineRoot((2, 1), 0)

# Every commutator of the eight depth < 1 root groups at the C2 barycenter,
# frozen as (beta, alpha, terms of [u_beta(y), u_alpha(x)]).
SP4_TABLE = [
    (A1, A2, [(A12, 1, 1, 1), (A211, 1, 2, -1)]),
    (A1, A0, [(A01, 1, 1, -1), (A021, 1, 2, -1)]),
    (A1, A12, [(A211, 1, 1, 2)]),
    (A1, A01, [(A021, 1, 1, -2)]),
    (A2, A01, [(A012, 1, 1, 1), (AffineRoot((-2, -1), 2), 2, 1, -1)]),
    (A0, A12, [(A012, 1, 1, -1), (AffineRoot((0, 1), 1), 2, 1, -1)]),
    (A12, A021, [(AffineRoot((1, 0), 1), 1, 1, 1), (AffineRoot((2, 1), 1), 1, 2, 1)]),
    (A01, A211, [(AffineRoot((1, 0), 1), 1, 1, -1), (AffineRoot((0, -1), 2), 1, 2, 1)]),
    (A12, A012, [(AffineRoot((0, 1), 1), 1, 1, -2)]),
    (A01, A012, [(AffineRoot((-2, -1), 2), 1, 1, 2)]),
    (A211, A012, [(AffineRoot((1, 1), 1), 1, 1, -1), (AffineRoot((0, 1), 2), 2, 1, 1)]),
    (A021, A012, [(AffineRoot((-1, -1), 2), 1, 1, 1), (AffineRoot((-2, -1), 3), 2, 1, 1)]),
]


@pytest.fixture(scope="module")
def c2_pin():
    return Pinning(build_root_system("C2"), kind="matrix")


def test_sp4_commutator_table(c2_pin):
    for beta, alpha, expected in SP4_TABLE:
        got = list(commutator_expansion(c2_pin, alpha, beta))
        assert got == expected, (beta, alpha)
        for target, i, j, _ in got:
            assert target == affine_combination(i, alpha, j, beta)
            assert target.level == i * alpha.level + j * beta.level


def test_cli_fixture_matches_frozen_table():
    assert _sp4_fixture() == SP4_TABLE


def _mm(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def _u(M, t):
    # exact since every root matrix below squares to zero
    return tuple(
        tuple((1 if i == j else 0) + t * M[i][j] for j in range(4)) for i in range(4)
    )


def test_sp4_xy_sign_forced_by_matrix_identity():
    # [u_{a2}(y), u_{a0+a1}(x)] worked out with literal 4x4 arithmetic in
    # the defining representation; the xy coefficient must be +1, and the
    # frequently quoted -1 variant fails the same identity.
    A = ((0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))  # gradient (-1,-1)
    B = ((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0))  # gradient (0,1)
    T11 = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, -1, 0))  # gradient (-1,0)
    T21 = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0))  # gradient (-2,-1)
    for M in (A, B, T11, T21):
        assert _mm(M, M) == _u(M, 0) or all(v == 0 for row in _mm(M, M) for v in row)
    assert _mm(T11, T21) == _mm(T21, T11)

    def lhs(x, y):
        return _mm(
            _mm(_u(B, -y), _u(A, -x)),
            _mm(_u(B, y), _u(A, x)),
        )

    def rhs(x, y, c11, c21):
        return _mm(_u(T11, c11 * x * y), _u(T21, c21 * x * x * y))

    for x, y in ((1, 1), (2, 3), (-1, 2), (5, -7)):
        assert lhs(x, y) == rhs(x, y, 1, -1)
    assert lhs(1, 1) != rhs(1, 1, -1, -1)


def test_weyl_lift_matrix(c2_pin):
    W, Wi = lift(c2_pin, (1, 0))
    assert W == (
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 0, 1, 0),
    )
    assert Wi == tuple(tuple(-x for x in row) for row in W)


@pytest.mark.parametrize(
    "cartan_type,kind", [("C2", "matrix"), ("G2", "adjoint"), ("A2", "matrix")]
)
def test_reflection_sign_square_is_coroot_pairing(cartan_type, kind):
    rs = build_root_system(cartan_type)
    pin = Pinning(rs, kind=kind)
    for r in rs.roots:
        for s in rs.roots:
            h = pin.reflection_sign(r, s)
            assert h in (1, -1)
            # conjugating twice by w_r(1) is conjugation by h_r(-1)
            assert h * pin.reflection_sign(r, rs.reflect(s, r)) == (-1) ** rs.pairing(
                s, r
            )


def _reference(pin, signs=None):
    """The Fraction recursion, seeded as the pinning is.

    An adjoint pinning takes its signs as given; a matrix pinning's seeds
    are read off its dense brackets, not from the table under test.
    """
    rs = pin.rs
    if pin.kind == "matrix":
        signs = {
            c: 1 if bracket_constant(pin, r, s) > 0 else -1
            for c, (r, s) in extraspecial_pairs(rs).items()
        }
    return ReferenceConstants(rs, signs)


@pytest.mark.parametrize(
    "cartan_type,kind",
    [("C2", "matrix"), ("C2", "adjoint"), ("G2", "adjoint"), ("B3", "adjoint")],
)
def test_constant_magnitudes(cartan_type, kind):
    """|N(a, b)| = p+1 (Carter, ch. 4), which the table builds on, holds
    for the constants of the Fraction recursion, seeded only at the
    extraspecial pairs."""
    rs = build_root_system(cartan_type)
    ref = _reference(Pinning(rs, kind=kind))
    for a in rs.roots:
        for b in rs.roots:
            if not rs.is_root(add(a, b)):
                assert ref.N(a, b) == 0
                continue
            p = 0
            v = b
            while True:
                v = add(v, negate(a))
                if not rs.is_root(v):
                    break
                p += 1
            assert abs(ref.N(a, b)) == p + 1


B3_FLIP = {(1, 1, 1): -1}
E6_FLIP = {(1, 1, 1, 1, 1, 1): -1}
G2_FLIP = {(1, 1): -1, (3, 1): -1}

# every type of SMALL_TYPES (test_properties), D4, B4, C4, F4 and E6-E8,
# in each shipped pinning kind, and adjoint pinnings with flipped signs
REFERENCE_CASES = (
    [
        pytest.param(t, kind, None, id=f"{t}-{kind}")
        for t in ("A1", "A2", "A3", "C2", "C3", "C4")
        for kind in ("matrix", "adjoint")
    ]
    + [
        pytest.param(t, "adjoint", None, id=f"{t}-adjoint")
        for t in ("B2", "B3", "B4", "G2", "D4", "F4", "E6", "E7", "E8")
    ]
    + [
        pytest.param("G2", "adjoint", G2_FLIP, id="G2-adjoint-flipped"),
        pytest.param("B3", "adjoint", B3_FLIP, id="B3-adjoint-flipped"),
        pytest.param("E6", "adjoint", E6_FLIP, id="E6-adjoint-flipped"),
    ]
)


@pytest.mark.parametrize("cartan_type,kind,signs", REFERENCE_CASES)
def test_constants_match_reference(cartan_type, kind, signs):
    """The integer table, sign * (p+1), against the Fraction recursion on
    every pair of roots."""
    rs = build_root_system(cartan_type)
    pin = Pinning(rs, kind=kind, extraspecial_signs=signs)
    ref = _reference(pin, signs)
    mismatches = [
        (a, b)
        for a in rs.roots
        for b in rs.roots
        if pin.structure_constant(a, b) != ref.N(a, b)
    ]
    assert mismatches == []


@pytest.mark.parametrize("cartan_type,kind,signs", REFERENCE_CASES)
def test_pinning_hash_matches_reference(cartan_type, kind, signs):
    """The sparse row writer against one `json.dumps` per dense row."""
    pin = Pinning(build_root_system(cartan_type), kind=kind, extraspecial_signs=signs)
    assert pin.pinning_hash() == reference_pinning_hash(pin)


def test_matrix_and_adjoint_agree_up_to_sign():
    rs = build_root_system("C2")
    pm = Pinning(rs, kind="matrix")
    pa = Pinning(rs, kind="adjoint")
    for a in rs.roots:
        for b in rs.roots:
            assert abs(pm.structure_constant(a, b)) == abs(pa.structure_constant(a, b))


def test_g2_expansions():
    pin = Pinning(build_root_system("G2"))
    assert pin.kind == "adjoint"
    assert pin.gradient_expansion((1, 0), (0, 1)) == (
        ((1, 1), 1, 1, 1),
        ((2, 1), 2, 1, -1),
        ((3, 1), 3, 1, 1),
        ((3, 2), 3, 2, 1),
    )
    assert pin.gradient_expansion((1, 1), (1, 0)) == (
        ((2, 1), 1, 1, 2),
        ((3, 1), 1, 2, -3),
        ((3, 2), 2, 1, -3),
    )


@pytest.mark.parametrize(
    "cartan_type,kind,signs",
    [
        ("A2", "matrix", None),
        ("A3", "matrix", None),
        ("C2", "matrix", None),
        ("C3", "matrix", None),
        ("C2", "adjoint", None),
        ("G2", "adjoint", None),
        pytest.param("G2", "adjoint", G2_FLIP, id="G2-adjoint-flipped"),
    ],
)
def test_formula_matches_peeling(cartan_type, kind, signs):
    """Chevalley's formula against the polynomial-matrix peeling, every pair."""
    rs = build_root_system(cartan_type)
    pin = Pinning(rs, kind=kind, extraspecial_signs=signs)
    pairs = [
        (a, b)
        for a in rs.roots
        for b in rs.roots
        if rs.rank2_subsystem_type(a, b) != "collinear"
    ]
    assert pairs
    mismatches = [
        (a, b) for a, b in pairs if pin.gradient_expansion(a, b) != peel(pin, a, b)
    ]
    assert mismatches == []


@pytest.mark.parametrize(
    "cartan_type,kind",
    [(t, "matrix") for t in ("A2", "A3", "A4", "C2", "C3", "C4")]
    + [(t, "adjoint") for t in ("C2", "G2", "B3", "C3", "D4", "F4")],
)
def test_bracket_matches_structure_constant(cartan_type, kind):
    """[M_a, M_b] = N(a, b) M_{a+b} on every pair of roots.

    The matrix kind reads only its extraspecial signs from its matrices;
    the adjoint kind builds its matrices from N, so this is the Jacobi
    identity for the extraspecial recursion.
    """
    rs = build_root_system(cartan_type)
    pin = Pinning(rs, kind=kind)
    mismatches = [
        (a, b)
        for a in rs.roots
        for b in rs.roots
        if bracket_constant(pin, a, b) != pin.structure_constant(a, b)
    ]
    assert mismatches == []


@pytest.mark.parametrize("cartan_type", ["E6", "E7", "E8"])
def test_bracket_matches_structure_constant_sampled(cartan_type):
    rs = build_root_system(cartan_type)
    pin = Pinning(rs)
    rng = random.Random(cartan_type)
    summing = [(a, b) for a in rs.roots for b in rs.roots if rs.is_root(add(a, b))]
    pairs = rng.sample(summing, 12) + [
        (rng.choice(rs.roots), rng.choice(rs.roots)) for _ in range(4)
    ]
    assert [bracket_constant(pin, a, b) for a, b in pairs] == [
        pin.structure_constant(a, b) for a, b in pairs
    ]


@pytest.mark.parametrize(
    "cartan_type,kind,signs",
    [
        ("A3", "matrix", None),
        ("C3", "matrix", None),
        ("G2", "adjoint", None),
        ("B3", "adjoint", None),
        ("D4", "adjoint", None),
        pytest.param("G2", "adjoint", G2_FLIP, id="G2-adjoint-flipped"),
        pytest.param(
            "B3",
            "adjoint",
            {(1, 1, 0): -1, (0, 1, 1): -1, (1, 1, 1): -1},
            id="B3-adjoint-flipped",
        ),
    ],
)
def test_reflection_sign_matches_lift(cartan_type, kind, signs):
    """The closed form on r-strings against conjugation by the dense lift."""
    rs = build_root_system(cartan_type)
    pin = Pinning(rs, kind=kind, extraspecial_signs=signs)
    mismatches = [
        (r, s)
        for r in rs.roots
        for s in rs.roots
        if pin.reflection_sign(r, s) != lift_sign(pin, r, s)
    ]
    assert mismatches == []


def test_parallel_gradients_rejected(c2_pin):
    with pytest.raises(ValueError):
        c2_pin.gradient_expansion((1, 0), (-1, 0))
    with pytest.raises(ValueError):
        commutator_expansion(c2_pin, A1, AffineRoot((-1, 0), 1))


def test_shallow_expansion_filters_deep_targets(c2_pin):
    mu = barycenter(c2_pin.rs)
    # raw expansion has a depth 5/4 target that the filtered form drops
    raw = commutator_expansion(c2_pin, A01, A2)
    assert len(raw) == 2
    filtered = shallow_commutator_expansion(c2_pin, A01, A2, mu)
    assert filtered == ((A012, 1, 1, 1),)
    assert all(is_shallow(t, mu) for t, _, _, _ in filtered)
    with pytest.raises(ValueError):
        shallow_commutator_expansion(c2_pin, AffineRoot((1, 0), 1), A2, mu)


PINNING_HASHES = [
    ("A3", "matrix", "8d36f79f21268bd7"),
    ("C3", "matrix", "a488e901370c4fa5"),
    ("A3", "adjoint", "279506fd05418875"),
    ("C3", "adjoint", "6e70c3599d53b600"),
    ("G2", "auto", "0bdadc29aaeb409b"),
    ("B3", "auto", "96787151d4a29135"),
    ("D4", "auto", "9a219bfa15f37d89"),
    ("F4", "auto", "aa0d7efe62db5630"),
    ("E6", "auto", "1fcbd779fd25f8c5"),
    ("E7", "auto", "5f3b1aeef3c41f05"),
    ("E8", "auto", "0364861f7eb999d8"),
]


def test_pinning_hash_is_stable(c2_pin):
    assert c2_pin.pinning_hash() == "9fd51649579e662a"
    pa = Pinning(build_root_system("C2"), kind="adjoint")
    assert pa.pinning_hash() == "d5bba55913bce023"
    for cartan_type, kind, digest in PINNING_HASHES:
        pin = Pinning(build_root_system(cartan_type), kind=kind)
        assert pin.pinning_hash() == digest, (cartan_type, kind)
    # N(a, b) is nonzero whenever a + b is a root
    rs = pa.rs
    pairs = [(a, b) for a in rs.roots for b in rs.roots if rs.is_root(add(a, b))]
    assert pairs and all(pa.structure_constant(a, b) != 0 for a, b in pairs)


def test_pinning_arguments_validated():
    g2 = build_root_system("G2")
    with pytest.raises(ValueError):
        Pinning(g2, kind="matrix")
    with pytest.raises(ValueError):
        Pinning(g2, kind="cartan")
    c2 = build_root_system("C2")
    with pytest.raises(ValueError):
        Pinning(c2, kind="matrix", extraspecial_signs={(1, 1): -1})
    # extraspecial signs are +-1 on positive non-simple roots: a value 2
    # or 0, a simple root and a non-root are refused
    b2 = build_root_system("B2")
    for signs in ({(1, 1): 2}, {(1, 1): 0}, {(1, 0): -1}, {(2, 2): -1}):
        with pytest.raises(ValueError, match="extraspecial signs"):
            Pinning(b2, extraspecial_signs=signs)
    assert Pinning(b2, extraspecial_signs={(1, 1): -1, (1, 2): 1}).structure_constant(
        (1, 0), (0, 1)
    ) == -Pinning(b2).structure_constant((1, 0), (0, 1))
    assert Pinning(c2).kind == "matrix"
    assert Pinning(build_root_system("A2")).kind == "matrix"
    assert Pinning(build_root_system("B3")).kind == "adjoint"


@pytest.mark.parametrize("kind", ["matrix", "adjoint"])
def test_structure_constant_off_roots(kind):
    """N(a, b) is 0 unless a, b and a+b are all roots; a non-root
    argument gives 0, not an error, also where a+b is a root."""
    pin = Pinning(build_root_system("C2"), kind=kind)
    assert pin.structure_constant((1, 0), (0, 1)) != 0
    assert pin.structure_constant((1, 0), (1, 0)) == 0  # a+b not a root
    for a, b in [((2, 0), (0, 1)), ((0, 0), (1, 0)), ((1, -1), (1, 2)), ((5, 5), (1, 0))]:
        assert pin.structure_constant(a, b) == 0
        assert pin.structure_constant(b, a) == 0
