"""Commutator constants by peeling a polynomial matrix, for cross-checks.

The product u_b(y)^-1 u_a(x)^-1 u_b(y) u_a(x) is computed in the
pinning's representation as a matrix with polynomial entries in (x, y),
stored as {(deg_x, deg_y): Matrix}.  It is peeled factor by factor in
increasing (i+j, i) order: each step reads the constant C as an exact
proportionality ratio against M_{ia+jb} and divides u_{ia+jb}(C x^i y^j)
off on the left.  The residue must collapse to the identity, so every
expansion validates itself.

It reads nothing but the pinning's root matrices, while
`Pinning.gradient_expansion` applies Chevalley's formula to structure
constants, so agreement checks the formula, its sign convention and the
term order.  It is slow: dense products of dim x dim matrices for every
pair of monomials.
"""

from math import factorial

from shallow_chars.chevalley import (
    _identity,
    _mat_add,
    _mat_exact_div,
    _mat_is_zero,
    _mat_mul,
    _mat_scale,
    _proportionality,
)


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
    Ma, Mb = pinning.matrix(a), pinning.matrix(b)
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
        ratio = _proportionality(K, pinning.matrix(target))
        assert ratio.denominator == 1, "non-integer commutator constant"
        C = int(ratio)
        if C:
            terms.append((target, i, j, C))
            P = _pm_mul(_pm_exp(pinning.matrix(target), (i, j), -C), P)
    residue_is_identity = P == {(0, 0): _identity(pinning.dim)}
    assert residue_is_identity, "commutator residue is not the identity"
    return tuple(terms)
