"""Commutator structure constants from pinned matrix representations.

A pinning fixes, for every root r, a nilpotent matrix M_r in a faithful
representation, so that u_r(x) = exp(x M_r) is the root group morphism.
Types A and C use the defining representations (elementary matrices;
antidiagonal symplectic form, matching u_r(x) = 1 + x M_r since every
M_r squares to zero); all other types use the adjoint representation
built from a Chevalley basis whose structure constants are produced by
the extraspecial-pair recursion below, with all signs on extraspecial
pairs +1 unless overridden.

All matrices are integral, including the exponentials: the divided
powers M_r^k / k! preserve the basis lattice, which the exponential
routines assert by exact division.

Commutator constants come from Chevalley's commutator formula (Carter,
*Simple Groups of Lie Type*, Thm 5.2.2).  For non-parallel a, b and
i, j > 0 with i*a + j*b a root, let

    M(r, s, i) = (1/i!) * prod_{k=0}^{i-1} N(r, s + k*r),

with N read from the pinning's own brackets (`structure_constant`).
Carter's constants are C_{i1} = M(a, b, i), C_{1j} = (-1)^j M(b, a, j),
C_{32} = M(a+b, a, 2)/3 and C_{23} = -2 M(a+b, b, 2)/3, and his factor
at (i, j) is u_{ia+jb}(C_{ij} (-x)^i y^j).  The constant stored here is
therefore (-1)^i C_{ij}, the coefficient of x^i y^j in

    [u_b(y), u_a(x)] = u_b(y)^-1 u_a(x)^-1 u_b(y) u_a(x),

with the factors in increasing (i+j, i) order (factors of equal i+j
commute).  Every constant is asserted integral.  Expanding the product
as a polynomial matrix and peeling it factor by factor gives the same
terms; that construction is kept in tests/peeling_oracle.py as the
reference the formula is checked against.

Constants depend only on gradients; affine levels just add, so the
affine expansion of [u_beta(y), u_alpha(x)] places the term (i, j) at
the affine root i*alpha + j*beta.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .affine_roots import AffineRoot, Point, affine_combination, is_shallow
from .root_system import Root, RootSystem, add, negate

Matrix = Tuple[Tuple[int, ...], ...]


class CommutatorTerm(NamedTuple):
    i: int
    j: int
    constant: int


# ----------------------------------------------------------------------
# dense integer matrices, written for sparse contents

def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(A):
        oi = out[i]
        for k, a in enumerate(row):
            if a:
                bk = B[k]
                for j, b in enumerate(bk):
                    if b:
                        oi[j] += a * b
    return _freeze(out)


def _mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _mat_scale(c: int, A: Matrix) -> Matrix:
    return tuple(tuple(c * a for a in row) for row in A)


def _mat_exact_div(A: Matrix, d: int) -> Matrix:
    assert all(a % d == 0 for row in A for a in row), "non-integral divided power"
    return tuple(tuple(a // d for a in row) for row in A)


def _mat_is_zero(A: Matrix) -> bool:
    return all(all(a == 0 for a in row) for row in A)


def _proportionality(K: Matrix, M: Matrix) -> Fraction:
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


def _exp_numeric(M: Matrix, scalar: int) -> Matrix:
    """exp(scalar*M) for nilpotent M with integral divided powers."""
    n = len(M)
    out = _identity(n)
    power = _identity(n)
    k = 1
    while True:
        power = _mat_mul(power, M)
        if _mat_is_zero(power):
            return out
        out = _mat_add(out, _mat_scale(scalar ** k, _mat_exact_div(power, factorial(k))))
        k += 1
        assert k <= n, "matrix is not nilpotent"


# ----------------------------------------------------------------------
# structure constants by the extraspecial-pair recursion

class StructureConstants:
    """Chevalley constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b}.

    Positive roots are totally ordered by (height, coordinates).  For
    each positive non-simple c the extraspecial pair is (r, c-r) with r
    minimal; its constant is sign(c) * (p+1) where p is the length of
    the descending a-string through b, and every other constant follows
    from antisymmetry, the opposition rule N(-a,-b) = -N(a,b), the
    trilinear identity N(x,y)/(z,z) = N(y,z)/(x,x) for x+y+z = 0, and
    the four-root identity on a+b-r-s = 0.
    """

    def __init__(self, rs: RootSystem, signs: Optional[Dict[Root, int]] = None):
        self.rs = rs
        self._order = {r: k for k, r in enumerate(rs.positive_roots)}
        self._signs = dict(signs or {})
        self._extraspecial: Dict[Root, Tuple[Root, Root]] = {}
        for c in rs.positive_roots:
            if sum(c) < 2:
                continue
            for r in rs.positive_roots:
                rest = tuple(x - y for x, y in zip(c, r))
                if sum(rest) > 0 and rs.is_root(rest):
                    self._extraspecial[c] = (r, rest)
                    break
        self._memo: Dict[Tuple[Root, Root], Fraction] = {}

    def extraspecial_pair(self, c: Root) -> Tuple[Root, Root]:
        return self._extraspecial[c]

    def p_down(self, a: Root, b: Root) -> int:
        """Largest p with b - p*a a root."""
        p = 0
        while self.rs.is_root(tuple(x - (p + 1) * y for x, y in zip(b, a))):
            p += 1
        return p

    def N(self, a: Root, b: Root) -> int:
        val = self._n(a, b)
        assert val.denominator == 1
        return int(val)

    def _n(self, a: Root, b: Root) -> Fraction:
        rs = self.rs
        c = add(a, b)
        if not rs.is_root(c):
            return Fraction(0)
        key = (a, b)
        if key in self._memo:
            return self._memo[key]
        ha, hb = sum(a), sum(b)
        if ha > 0 and hb > 0:
            if self._order[a] > self._order[b]:
                val = -self._n(b, a)
            elif (a, b) == self._extraspecial[c]:
                sign = self._signs.get(c, 1)
                val = Fraction(sign * (self.p_down(a, b) + 1))
            else:
                r, s = self._extraspecial[c]
                acc = Fraction(0)
                br = tuple(x - y for x, y in zip(b, r))
                if rs.is_root(br):
                    acc += Fraction(
                        self._n(b, negate(r)) * self._n(a, negate(s)),
                        rs.length_sq(br),
                    )
                ar = tuple(x - y for x, y in zip(a, r))
                if rs.is_root(ar):
                    acc += Fraction(
                        self._n(negate(r), a) * self._n(b, negate(s)),
                        rs.length_sq(ar),
                    )
                val = Fraction(rs.length_sq(c)) * acc / self._n(r, s)
        elif ha < 0 and hb < 0:
            val = -self._n(negate(a), negate(b))
        elif ha < 0:
            val = -self._n(b, a)
        else:
            # a positive, b negative, z = -a-b the third leg of a zero triangle
            z = negate(c)
            if sum(z) > 0:
                val = Fraction(rs.length_sq(z), rs.length_sq(b)) * self._n(z, a)
            else:
                val = -Fraction(rs.length_sq(z), rs.length_sq(a)) * self._n(
                    negate(b), negate(z)
                )
        self._memo[key] = val
        return val


# ----------------------------------------------------------------------
# pinned representations

def _basis_matrix(n: int, entries: Sequence[Tuple[int, int, int]]) -> Matrix:
    """Matrix with the given (row, col, value) entries, 0-based."""
    rows = [[0] * n for _ in range(n)]
    for i, j, v in entries:
        rows[i][j] = v
    return _freeze(rows)


def _type_a_matrices(rs: RootSystem) -> Dict[Root, Matrix]:
    n = rs.rank + 1
    out = {}
    for r in rs.roots:
        # weight vector of the root in the standard basis e_1..e_n
        v = [0] * n
        for k, c in enumerate(r):
            v[k] += c
            v[k + 1] -= c
        i = v.index(1)
        j = v.index(-1)
        out[r] = _basis_matrix(n, [(i, j, 1)])
    return out


def _type_c_matrices(rs: RootSystem) -> Dict[Root, Matrix]:
    """Symplectic pinning, antidiagonal form; i' = 2n+1-i, 1-based."""
    n = rs.rank
    dim = 2 * n
    out: Dict[Root, Matrix] = {}

    def conj(i: int) -> int:  # 0-based index of i'
        return dim - 1 - i

    for r in rs.roots:
        if sum(r) < 0:
            continue
        v = [0] * n
        for k, c in enumerate(r):
            v[k] += c
            if k + 1 < n:
                v[k + 1] -= c
            else:
                v[k] += c  # a_n = 2 e_n
        pos = [k for k, x in enumerate(v) if x > 0]
        neg = [k for k, x in enumerate(v) if x < 0]
        if neg:  # e_i - e_j
            i, j = pos[0], neg[0]
            M = _basis_matrix(dim, [(i, j, 1), (conj(j), conj(i), -1)])
        elif len(pos) == 2:  # e_i + e_j
            i, j = pos
            M = _basis_matrix(dim, [(i, conj(j), 1), (j, conj(i), 1)])
        else:  # 2 e_i
            i = pos[0]
            M = _basis_matrix(dim, [(i, conj(i), 1)])
        out[r] = M
        out[negate(r)] = tuple(zip(*M))  # transpose
    return out


def _adjoint_matrices(
    rs: RootSystem, sc: StructureConstants
) -> Dict[Root, Matrix]:
    roots = rs.roots
    idx = {r: k for k, r in enumerate(roots)}
    R = len(roots)
    dim = R + rs.rank
    out = {}
    for r in roots:
        rows = [[0] * dim for _ in range(dim)]
        for s in roots:
            col = idx[s]
            if s == negate(r):
                # [e_r, e_-r] = h_r, expanded over the simple coroots
                for i, c in enumerate(rs.coroot(r)):
                    rows[R + i][col] = c
            else:
                t = add(r, s)
                if rs.is_root(t):
                    rows[idx[t]][col] = sc.N(r, s)
        for i in range(rs.rank):
            rows[idx[r]][R + i] = -rs.pairing(r, rs.simple_roots[i])
        out[r] = _freeze(rows)
    return out


class Pinning:
    """Root group morphisms u_r(x) = exp(x M_r) for a fixed representation.

    kind "matrix" (defining representation, types A and C only) or
    "adjoint" (any type); "auto" picks matrix when available.  The C2
    matrix pinning is the shipped default used by every Sp4 fixture.
    """

    def __init__(
        self,
        rs: RootSystem,
        kind: str = "auto",
        extraspecial_signs: Optional[Dict[Root, int]] = None,
    ):
        if kind == "auto":
            kind = "matrix" if rs.letter in ("A", "C") else "adjoint"
        if kind == "matrix":
            if rs.letter == "A":
                self._matrices = _type_a_matrices(rs)
            elif rs.letter == "C":
                self._matrices = _type_c_matrices(rs)
            else:
                raise ValueError(f"no matrix pinning shipped for type {rs.letter}")
            if extraspecial_signs:
                raise ValueError("extraspecial signs apply to adjoint pinnings only")
            self.constants = None
        elif kind == "adjoint":
            self.constants = StructureConstants(rs, extraspecial_signs)
            self._matrices = _adjoint_matrices(rs, self.constants)
        else:
            raise ValueError(f"unknown pinning kind {kind!r}")
        self.rs = rs
        self.kind = kind
        self.dim = len(next(iter(self._matrices.values())))
        self._expansions: Dict[Tuple[Root, Root], Tuple] = {}
        self._lift_cache: Dict[Root, Tuple[Matrix, Matrix]] = {}
        self._signs: Dict[Tuple[Root, Root], int] = {}

    def matrix(self, r: Root) -> Matrix:
        return self._matrices[r]

    def structure_constant(self, a: Root, b: Root) -> int:
        """N(a, b) with [M_a, M_b] = N(a, b) M_{a+b}; 0 when a+b is not a root."""
        c = add(a, b)
        if not self.rs.is_root(c):
            return 0
        bracket = _mat_add(
            _mat_mul(self.matrix(a), self.matrix(b)),
            _mat_scale(-1, _mat_mul(self.matrix(b), self.matrix(a))),
        )
        ratio = _proportionality(bracket, self.matrix(c))
        assert ratio.denominator == 1
        return int(ratio)

    # ------------------------------------------------------------------
    # commutator expansion by Chevalley's formula

    def _divided(self, r: Root, s: Root, i: int) -> Fraction:
        """M(r, s, i) = (1/i!) * prod_{k<i} N(r, s + k*r)."""
        prod = 1
        for k in range(i):
            prod *= self.structure_constant(r, tuple(y + k * x for x, y in zip(r, s)))
        return Fraction(prod, factorial(i))

    def gradient_expansion(
        self, a: Root, b: Root
    ) -> Tuple[Tuple[Root, int, int, int], ...]:
        """Terms (i*a + j*b, i, j, C) of [u_b(y), u_a(x)], ordered by (i+j, i)."""
        key = (a, b)
        if key in self._expansions:
            return self._expansions[key]
        if self.rs.rank2_subsystem_type(a, b) == "collinear":
            raise ValueError(
                "parallel gradients: commutator is trivial or torus-valued"
            )
        ab = add(a, b)
        terms = []
        for i, j in self.rs.root_string(a, b):
            if j == 1:
                carter = self._divided(a, b, i)
            elif i == 1:
                carter = (-1) ** j * self._divided(b, a, j)
            elif (i, j) == (3, 2):
                carter = self._divided(ab, a, 2) / 3
            else:  # (2, 3), the only other string position in a reduced system
                carter = -2 * self._divided(ab, b, 2) / 3
            ratio = (-1) ** i * carter
            assert ratio.denominator == 1, "non-integer commutator constant"
            C = int(ratio)
            if C:
                target = tuple(i * x + j * y for x, y in zip(a, b))
                terms.append((target, i, j, C))
        out = tuple(terms)
        self._expansions[key] = out
        return out

    # ------------------------------------------------------------------
    # Weyl reflection lifts w_r(1) = u_r(1) u_{-r}(-1) u_r(1)

    def _lift(self, r: Root) -> Tuple[Matrix, Matrix]:
        if r not in self._lift_cache:
            Mr, Mn = self.matrix(r), self.matrix(negate(r))
            W = _mat_mul(
                _mat_mul(_exp_numeric(Mr, 1), _exp_numeric(Mn, -1)),
                _exp_numeric(Mr, 1),
            )
            Wi = _mat_mul(
                _mat_mul(_exp_numeric(Mr, -1), _exp_numeric(Mn, 1)),
                _exp_numeric(Mr, -1),
            )
            self._lift_cache[r] = (W, Wi)
        return self._lift_cache[r]

    def weyl_lift_matrix(self, r: Root) -> Matrix:
        return self._lift(r)[0]

    def reflection_sign(self, r: Root, s: Root) -> int:
        """Sign h in w_r(1) u_s(x) w_r(1)^-1 = u_{s_r(s)}(h x)."""
        key = (r, s)
        if key not in self._signs:
            W, Wi = self._lift(r)
            T = _mat_mul(_mat_mul(W, self.matrix(s)), Wi)
            ratio = _proportionality(T, self.matrix(self.rs.reflect(s, r)))
            assert ratio in (1, -1)
            self._signs[key] = int(ratio)
        return self._signs[key]

    # ------------------------------------------------------------------
    # reporting

    def pinning_hash(self) -> str:
        payload = {
            "cartan_type": self.rs.cartan_type,
            "kind": self.kind,
            "matrices": [
                [list(r), [list(row) for row in self.matrix(r)]]
                for r in self.rs.roots
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def constants_table(self) -> Dict:
        pairs = []
        for a in self.rs.roots:
            for b in self.rs.roots:
                if self.rs.is_root(add(a, b)):
                    pairs.append(
                        {"a": list(a), "b": list(b), "n": self.structure_constant(a, b)}
                    )
        return {
            "cartan_type": self.rs.cartan_type,
            "kind": self.kind,
            "pinning_hash": self.pinning_hash(),
            "constants": pairs,
        }

    def __repr__(self) -> str:
        return f"Pinning({self.rs.cartan_type}, {self.kind})"


# ----------------------------------------------------------------------
# affine expansions

def commutator_expansion(
    pinning: Pinning, alpha: AffineRoot, beta: AffineRoot
) -> Tuple[Tuple[AffineRoot, CommutatorTerm], ...]:
    """Expansion of [u_beta(y), u_alpha(x)] over affine root groups.

    Returns ((i*alpha + j*beta, CommutatorTerm(i, j, C)), ...) ordered
    by (i+j, i), the factor at (i, j) carrying the argument C x^i y^j.
    Parallel gradients are rejected: those commutators are trivial or
    torus-valued and carry no root-group data.
    """
    terms = pinning.gradient_expansion(alpha.gradient, beta.gradient)
    return tuple(
        (affine_combination(i, alpha, j, beta), CommutatorTerm(i, j, C))
        for _, i, j, C in terms
    )


def shallow_commutator_expansion(
    pinning: Pinning, alpha: AffineRoot, beta: AffineRoot, point: Point
) -> Tuple[Tuple[AffineRoot, CommutatorTerm], ...]:
    """commutator_expansion filtered to targets that stay shallow at the point.

    Dropped targets have depth >= 1 there, hence die in the quotient the
    characters live on.
    """
    if not (is_shallow(alpha, point) and is_shallow(beta, point)):
        raise ValueError("both arguments must be shallow at the point")
    return tuple(
        (target, term)
        for target, term in commutator_expansion(pinning, alpha, beta)
        if is_shallow(target, point)
    )
