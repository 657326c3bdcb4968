"""Dense-matrix oracles for the pinning's constants, for cross-checks.

Everything here reads nothing but the pinning's root matrices, made
dense by `matrix` from the stored entries, and multiplies them out:

* `peel(pinning, a, b)`: the product u_b(y)^-1 u_a(x)^-1 u_b(y) u_a(x)
  is computed as a matrix with polynomial entries in (x, y), stored as
  {(deg_x, deg_y): Matrix}.  It is peeled factor by factor in increasing
  (i+j, i) order: each step reads the constant C as an exact
  proportionality ratio against M_{ia+jb} and divides u_{ia+jb}(C x^i y^j)
  off on the left.  The residue must collapse to the identity, so every
  expansion validates itself.  `Pinning.gradient_expansion` applies
  Chevalley's formula instead, so agreement checks the formula, its sign
  convention and the term order.
* `bracket_constant(pinning, a, b)`: N(a, b) read off the bracket
  [M_a, M_b] = N(a, b) M_{a+b}, which must vanish when a+b is neither a
  root nor zero.  For the adjoint pinning, whose matrices are built from
  the constants, agreement with `structure_constant` is the Jacobi
  identity for the extraspecial recursion; for the matrix pinning it
  checks the signs read from the defining matrices and the recursion.
* `lift(pinning, r)` and `lift_sign(pinning, r, s)`: the lift
  w_r(1) = u_r(1) u_{-r}(-1) u_r(1) as a dense product of exponentials,
  and the sign h in w_r(1) M_s w_r(1)^-1 = h M_{s_r(s)}, against the
  closed form of `Pinning.reflection_sign`.

They are slow: dense products of dim x dim matrices throughout.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from shallow_chars.root_system import _parallel, add
from shallow_chars.weyl import _identity, _mat_mul


# ----------------------------------------------------------------------
# dense integer matrices

def matrix(pinning, r):
    """M_r as a dense matrix, built from the pinning's stored entries."""
    rows = [[0] * pinning.dim for _ in range(pinning.dim)]
    for i, j, v in pinning._entries[r]:
        rows[i][j] = v
    return tuple(tuple(row) for row in rows)


def _mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _mat_scale(c, A):
    return tuple(tuple(c * a for a in row) for row in A)


def _mat_exact_div(A, d):
    assert all(a % d == 0 for row in A for a in row), "non-integral divided power"
    return tuple(tuple(a // d for a in row) for row in A)


def _mat_is_zero(A):
    return all(all(a == 0 for a in row) for row in A)


def _proportionality(K, M):
    """The scalar c with K == c*M; requires M != 0 and exact proportionality."""
    for i, row in enumerate(M):
        for j, m in enumerate(row):
            if m:
                c = Fraction(K[i][j], m)
                if all(
                    K[a][b] * m == K[i][j] * M[a][b]
                    for a in range(len(M))
                    for b in range(len(M))
                ):
                    return c
                raise ArithmeticError("matrix is not proportional to the target")
    raise ArithmeticError("proportionality target is zero")


def _exp_numeric(M, scalar):
    """exp(scalar*M) for nilpotent M with integral divided powers."""
    n = len(M)
    out = _identity(n)
    power = _identity(n)
    k = 1
    while True:
        power = _mat_mul(power, M)
        if _mat_is_zero(power):
            return out
        out = _mat_add(out, _mat_scale(scalar**k, _mat_exact_div(power, factorial(k))))
        k += 1
        assert k <= n, "matrix is not nilpotent"


# ----------------------------------------------------------------------
# commutator expansions by peeling

def _pm_mul(A, B):
    out = {}
    for (da, ea), MA in A.items():
        for (db, eb), MB in B.items():
            key = (da + db, ea + eb)
            prod = _mat_mul(MA, MB)
            out[key] = _mat_add(out[key], prod) if key in out else prod
    return {k: m for k, m in out.items() if not _mat_is_zero(m)}


def _pm_exp(M, mono, scalar):
    """exp(scalar * t * M) as a polynomial matrix, t the monomial x^di y^dj."""
    n = len(M)
    out = {(0, 0): _identity(n)}
    power = _identity(n)
    k = 1
    while True:
        power = _mat_mul(power, M)
        if _mat_is_zero(power):
            return out
        out[(k * mono[0], k * mono[1])] = _mat_scale(
            scalar**k, _mat_exact_div(power, factorial(k))
        )
        k += 1
        assert k <= n, "matrix is not nilpotent"


def peel(pinning, a, b):
    """Terms (i*a + j*b, i, j, C) of [u_b(y), u_a(x)], ordered by (i+j, i)."""
    rs = pinning.rs
    if rs.rank2_subsystem_type(a, b) == "collinear":
        raise ValueError("parallel gradients: commutator is trivial or torus-valued")
    Ma, Mb = matrix(pinning, a), matrix(pinning, b)
    P = _pm_mul(
        _pm_mul(_pm_exp(Mb, (0, 1), -1), _pm_exp(Ma, (1, 0), -1)),
        _pm_mul(_pm_exp(Mb, (0, 1), 1), _pm_exp(Ma, (1, 0), 1)),
    )
    terms = []
    for i, j in rs.root_string(a, b):
        target = tuple(i * x + j * y for x, y in zip(a, b))
        K = P.get((i, j))
        if K is None:
            continue
        ratio = _proportionality(K, matrix(pinning, target))
        assert ratio.denominator == 1, "non-integer commutator constant"
        C = int(ratio)
        if C:
            terms.append((target, i, j, C))
            P = _pm_mul(_pm_exp(matrix(pinning, target), (i, j), -C), P)
    residue_is_identity = P == {(0, 0): _identity(pinning.dim)}
    assert residue_is_identity, "commutator residue is not the identity"
    return tuple(terms)


# ----------------------------------------------------------------------
# brackets and Weyl lifts

def bracket_constant(pinning, a, b):
    """N(a, b) with [M_a, M_b] = N(a, b) M_{a+b}, from dense products."""
    Ma, Mb = matrix(pinning, a), matrix(pinning, b)
    K = _mat_add(_mat_mul(Ma, Mb), _mat_scale(-1, _mat_mul(Mb, Ma)))
    c = add(a, b)
    if not pinning.rs.is_root(c):
        assert _parallel(a, b) or _mat_is_zero(K), "bracket off the root lattice"
        return 0
    ratio = _proportionality(K, matrix(pinning, c))
    assert ratio.denominator == 1
    return int(ratio)


@lru_cache(maxsize=64)
def lift(pinning, r):
    """(W, W^-1) for W = w_r(1) = u_r(1) u_{-r}(-1) u_r(1)."""
    Mr, Mn = matrix(pinning, r), matrix(pinning, tuple(-x for x in r))
    W = _mat_mul(
        _mat_mul(_exp_numeric(Mr, 1), _exp_numeric(Mn, -1)), _exp_numeric(Mr, 1)
    )
    Wi = _mat_mul(
        _mat_mul(_exp_numeric(Mr, -1), _exp_numeric(Mn, 1)), _exp_numeric(Mr, -1)
    )
    return W, Wi


def lift_sign(pinning, r, s):
    """h with w_r(1) M_s w_r(1)^-1 = h M_{s_r(s)}, from dense conjugation."""
    W, Wi = lift(pinning, r)
    T = _mat_mul(_mat_mul(W, matrix(pinning, s)), Wi)
    ratio = _proportionality(T, matrix(pinning, pinning.rs.reflect(s, r)))
    assert ratio in (1, -1)
    return int(ratio)
