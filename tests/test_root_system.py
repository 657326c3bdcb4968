from fractions import Fraction

import pytest

from shallow_chars.root_system import build_root_system, negate, add

COUNTS = {
    "A1": (2, 2),
    "A2": (6, 3),
    "A3": (12, 4),
    "B2": (8, 4),
    "B3": (18, 6),
    "C2": (8, 4),
    "C3": (18, 6),
    "D4": (24, 6),
    "G2": (12, 6),
    "F4": (48, 12),
    "E6": (72, 12),
    "E7": (126, 18),
    "E8": (240, 30),
}


@pytest.mark.parametrize("cartan_type", sorted(COUNTS))
def test_counts_and_coxeter_number(cartan_type):
    rs = build_root_system(cartan_type)
    n_roots, h = COUNTS[cartan_type]
    assert len(rs.roots) == n_roots
    assert rs.coxeter_number == h
    assert len(rs.positive_roots) * 2 == n_roots
    assert rs.highest_root in rs.root_set
    assert all(m >= 1 for m in rs.marks)


@pytest.mark.parametrize("cartan_type", ["A2", "C2", "G2", "B3", "F4"])
def test_closure_properties(cartan_type):
    rs = build_root_system(cartan_type)
    for a in rs.roots:
        assert negate(a) in rs.root_set
        for b in rs.roots:
            # reflections permute the root set
            assert rs.reflect(b, a) in rs.root_set
            assert isinstance(rs.pairing(b, a), int)


def test_bad_types_rejected():
    with pytest.raises(ValueError):
        build_root_system("H2")
    with pytest.raises(ValueError):
        build_root_system("A0")
    with pytest.raises(ValueError):
        build_root_system("B1")
    with pytest.raises(ValueError):
        build_root_system("E9")
    with pytest.raises(ValueError):
        build_root_system("C")  # rank missing
    with pytest.raises(ValueError, match="rank given twice"):
        build_root_system("C2", 3)


def test_c2_basics():
    rs = build_root_system("C", rank=2)
    assert rs.cartan_type == "C2"
    assert rs.highest_root == (2, 1)
    assert rs.marks == (1, 2, 1)
    assert rs.lengths == (1, 2)
    # a2 is the long simple root
    assert rs.length_sq((0, 1)) == 2 * rs.length_sq((1, 0))


@pytest.mark.parametrize(
    "cartan_type,a,b,expected",
    [
        ("A2", (1, 0), (0, 1), "A2"),
        ("C2", (1, 0), (0, 1), "C2"),
        ("G2", (1, 0), (0, 1), "G2"),
        ("C2", (1, 0), (-1, 0), "collinear"),
        ("C2", (0, 1), (2, 1), "A1xA1"),
        ("C2", (1, 0), (1, 1), "C2"),
        ("A3", (1, 0, 0), (0, 0, 1), "A1xA1"),
    ],
)
def test_rank2_subsystem_type(cartan_type, a, b, expected):
    rs = build_root_system(cartan_type)
    assert rs.rank2_subsystem_type(a, b) == expected


def test_root_strings():
    c2 = build_root_system("C2")
    assert c2.root_string((1, 0), (0, 1)) == [(1, 1), (2, 1)]
    assert c2.root_string((0, 1), (1, 0)) == [(1, 1), (1, 2)]
    g2 = build_root_system("G2")
    assert g2.root_string((1, 0), (0, 1)) == [(1, 1), (2, 1), (3, 1), (3, 2)]
    # no chain: orthogonal short roots in A1xA1 position
    a3 = build_root_system("A3")
    assert a3.root_string((1, 0, 0), (0, 0, 1)) == []


def _full_root_string(rs, a, b):
    """Every candidate i*a + j*b with 1 <= i, j <= 3, in (i+j, i) order."""
    return [
        (i, s - i)
        for s in range(2, 7)
        for i in range(max(1, s - 3), min(3, s - 1) + 1)
        if tuple(i * x + (s - i) * y for x, y in zip(a, b)) in rs.root_set
    ]


@pytest.mark.parametrize(
    "cartan_type",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4", "E6"],
)
def test_root_string_matches_full_scan(cartan_type):
    rs = build_root_system(cartan_type)
    for a in rs.roots:
        for b in rs.roots:
            if b == negate(a):
                with pytest.raises(ValueError):
                    rs.root_string(a, b)
                continue
            assert rs.root_string(a, b) == _full_root_string(rs, a, b)


def test_simple_reflect_involution():
    rs = build_root_system("B3")
    for i in range(rs.rank):
        for b in rs.roots:
            assert rs.simple_reflect(i, rs.simple_reflect(i, b)) == b


def test_heights_and_add():
    rs = build_root_system("A2")
    # the height of a root is the sum of its coordinates
    assert add((1, 0), (0, 1)) == (1, 1)
    assert sum(rs.highest_root) == rs.coxeter_number - 1


def test_inner_product_symmetry():
    rs = build_root_system("F4")
    for a in rs.simple_roots:
        for b in rs.simple_roots:
            assert rs.inner(a, b) == rs.inner(b, a)
    lengths = {rs.length_sq(a) for a in rs.roots}
    assert len(lengths) == 2  # two root lengths in F4


SYMPY_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]  # sympy has no C2
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("cartan_type", SYMPY_TYPES)
def test_matches_sympy(cartan_type):
    """Cartan matrix and root count against sympy.liealgebras (test-only)."""
    cartan_matrix = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    cartan_types = pytest.importorskip("sympy.liealgebras.cartan_type")
    rs = build_root_system(cartan_type)
    n_positive = len(cartan_types.CartanType(cartan_type).positive_roots())
    assert len(rs.roots) == 2 * n_positive
    if cartan_type == "A1":
        # sympy 1.14 cannot build the 1x1 matrix (IndexError in type_a)
        assert rs.cartan == ((2,),)
        return
    # sympy's entry (i, j) is <a_i, a_j^vee>, the transpose of ours
    expected = cartan_matrix.CartanMatrix(cartan_type).tolist()
    assert [list(row) for row in zip(*rs.cartan)] == expected
