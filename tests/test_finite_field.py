import pytest

from shallow_chars.characters import relation_holds
from shallow_chars.finite_field import FiniteField

FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]  # every prime power q <= 16


@pytest.mark.parametrize("q", FIELDS)
def test_field_axioms_exhaustive(q):
    f = FiniteField(q)
    els = list(f.elements())
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a and f.mul(a, 1) == a and f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, f.neg(b)), b) == a
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", FIELDS)
def test_frobenius_and_trace(q):
    f = FiniteField(q)
    for a in f.elements():
        x = a
        for _ in range(f.m):
            x = f.frobenius(x)
        assert x == a  # Frobenius has order m
        assert f.psi[1][a] in range(f.p)
        assert f.psi[1][f.frobenius(a)] == f.psi[1][a]
        for b in f.elements():
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert (f.psi[1][f.add(a, b)] - f.psi[1][a] - f.psi[1][b]) % f.p == 0
    if f.m == 1:
        assert all(f.psi[1][a] == a for a in f.elements())
    assert any(f.psi[1][a] != 0 for a in f.elements())  # trace is onto F_p


def test_modulus_choices():
    assert FiniteField(2).modulus_coeffs == (0,)
    assert FiniteField(5).modulus_coeffs == (0,)
    assert FiniteField(4).modulus_coeffs == (1, 1)
    assert FiniteField(8).modulus_coeffs == (1, 1, 0)
    assert FiniteField(9).modulus_coeffs == (1, 0)
    assert FiniteField(16).modulus_coeffs == (1, 1, 0, 0)


def test_f4_trace_table():
    f = FiniteField(4)
    assert {a: f.psi[1][a] for a in f.elements()} == {0: 0, 1: 0, 2: 1, 3: 1}


def test_bad_sizes_rejected():
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            FiniteField(q)
    with pytest.raises(ValueError):
        FiniteField(17)  # prime, but beyond the default bound


@pytest.mark.parametrize("q", FIELDS)
def test_char_eval_nondegenerate(q):
    """psi[c][x] = Tr(c x) = psi[1][c x]; the row of c is zero only for c = 0,
    which lets the group model read a character's nonzero rows off its vector."""
    f = FiniteField(q)
    assert len(f.psi) == q and all(len(row) == q for row in f.psi)
    for c in f.elements():
        assert f.psi[c] == tuple(f.psi[1][f.mul(c, x)] for x in f.elements())
        assert any(f.psi[c]) == (c != 0)


def test_relation_holds_examples():
    # factors (t, i, j, C) read the parameter at t, as Context.relations stores them
    f2 = FiniteField(2)
    assert not relation_holds(f2, (1,), [(0, 1, 1, 1)])
    assert relation_holds(f2, (1,), [(0, 1, 1, 0)])  # C = 0 in F_p kills the factor
    assert relation_holds(f2, (0,), [(0, 1, 1, 1)])  # so does a zero parameter
    assert relation_holds(f2, (1,), [(0, 1, 1, 1), (0, 1, 1, 1)])
    f3 = FiniteField(3)
    assert relation_holds(f3, (1, 2), [(0, 1, 1, 1), (1, 1, 1, 1)])
    assert not relation_holds(f3, (1,), [(0, 1, 1, 1), (0, 1, 2, 1)])
    # Frobenius pairing: Tr(c x) + Tr(c^2 x^2) vanishes identically on F_4
    f4 = FiniteField(4)
    assert relation_holds(f4, (2, 3), [(0, 1, 0, 1), (1, 2, 0, 1)])
    assert not relation_holds(f4, (2,), [(0, 1, 0, 1), (0, 2, 0, 1)])
