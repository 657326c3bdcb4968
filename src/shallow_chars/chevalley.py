"""Pinnings and their commutator structure constants.

A pinning fixes, for every root r, a nilpotent matrix M_r in a faithful
representation, so that u_r(x) = exp(x M_r) is the root group morphism.
Types A and C use the defining representations (elementary matrices;
antidiagonal symplectic form, matching u_r(x) = 1 + x M_r since every
M_r squares to zero); all other types use the adjoint representation
of a Chevalley basis.  Each M_r is stored as its (row, col, value)
entries and made dense only on request; the adjoint entries are built
only when a matrix or the pinning hash is asked for.

Every pinning reads its structure constants N(a, b), defined by
[M_a, M_b] = N(a, b) M_{a+b}, from one `StructureConstants`: the
extraspecial-pair recursion (Carter, *Simple Groups of Lie Type*,
§4.2) fixes them all once the sign on each extraspecial pair is chosen.
The adjoint kind takes those signs as given (+1 unless overridden) and
builds its matrices from the constants.  The matrix kind reads each sign
from one entry of the bracket of its defining matrices, one per
positive non-simple root.  The reflection signs of the Weyl lifts
w_r(1) = u_r(1) u_{-r}(-1) u_r(1) follow from the same constants
(Carter, §6.4), so no matrix product is formed at run time.

Commutator constants come from Chevalley's commutator formula (Carter,
Thm 5.2.2).  For non-parallel a, b and i, j > 0 with i*a + j*b a root,
let

    M(r, s, i) = (1/i!) * prod_{k=0}^{i-1} N(r, s + k*r).

Carter's constants are C_{i1} = M(a, b, i), C_{1j} = (-1)^j M(b, a, j),
C_{32} = M(a+b, a, 2)/3 and C_{23} = -2 M(a+b, b, 2)/3, and his factor
at (i, j) is u_{ia+jb}(C_{ij} (-x)^i y^j).  The constant stored here is
therefore (-1)^i C_{ij}, the coefficient of x^i y^j in

    [u_b(y), u_a(x)] = u_b(y)^-1 u_a(x)^-1 u_b(y) u_a(x),

with the factors in increasing (i+j, i) order (factors of equal i+j
commute).  Every constant is asserted integral.  The dense checks live
in tests/peeling_oracle.py: peeling the commutator as a polynomial
matrix, the bracket [M_a, M_b] and the conjugation by the lifted
reflection, each against the constants used here.

Constants depend only on gradients; affine levels just add, so the
affine expansion of [u_beta(y), u_alpha(x)] places the term (i, j) at
the affine root i*alpha + j*beta.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Tuple

from .affine_roots import AffineRoot, Point, affine_combination, is_shallow, simple_affine_roots
from .root_system import Root, RootSystem, _parallel, add, negate

Matrix = Tuple[Tuple[int, ...], ...]
Entries = Tuple[Tuple[int, int, int], ...]  # (row, col, value), 0-based


class CommutatorTerm(NamedTuple):
    i: int
    j: int
    constant: int


# ----------------------------------------------------------------------
# structure constants by the extraspecial-pair recursion

def extraspecial_pairs(rs: RootSystem) -> Dict[Root, Tuple[Root, Root]]:
    """(r, c-r) with r minimal, for every positive non-simple root c."""
    out: Dict[Root, Tuple[Root, Root]] = {}
    for c in rs.positive_roots:
        if sum(c) < 2:
            continue
        for r in rs.positive_roots:
            rest = tuple(x - y for x, y in zip(c, r))
            if sum(rest) > 0 and rs.is_root(rest):
                out[c] = (r, rest)
                break
    return out


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
        self._extraspecial = extraspecial_pairs(rs)
        self._memo: Dict[Tuple[Root, Root], Fraction] = {}

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
# pinned representations, as sparse root matrices

def _type_a_entries(rs: RootSystem) -> Tuple[int, Dict[Root, Entries]]:
    n = rs.rank + 1
    out = {}
    for r in rs.roots:
        # weight vector of the root in the standard basis e_1..e_n
        v = [0] * n
        for k, c in enumerate(r):
            v[k] += c
            v[k + 1] -= c
        out[r] = ((v.index(1), v.index(-1), 1),)
    return n, out


def _type_c_entries(rs: RootSystem) -> Tuple[int, Dict[Root, Entries]]:
    """Symplectic pinning, antidiagonal form; i' = 2n+1-i, 1-based."""
    n = rs.rank
    dim = 2 * n
    out: Dict[Root, Entries] = {}

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
            M = ((i, j, 1), (conj(j), conj(i), -1))
        elif len(pos) == 2:  # e_i + e_j
            i, j = pos
            M = ((i, conj(j), 1), (j, conj(i), 1))
        else:  # 2 e_i
            i = pos[0]
            M = ((i, conj(i), 1),)
        out[r] = M
        out[negate(r)] = tuple((j, i, v) for i, j, v in M)  # transpose
    return dim, out


def _adjoint_entries(rs: RootSystem, sc: StructureConstants) -> Dict[Root, Entries]:
    roots = rs.roots
    idx = {r: k for k, r in enumerate(roots)}
    R = len(roots)
    out = {}
    for r in roots:
        entries = []
        for s in roots:
            col = idx[s]
            if s == negate(r):
                # [e_r, e_-r] = h_r, expanded over the simple coroots
                entries += [(R + i, col, c) for i, c in enumerate(rs.coroot(r)) if c]
            else:
                t = add(r, s)
                if rs.is_root(t):
                    entries.append((idx[t], col, sc.N(r, s)))
        for i, a in enumerate(rs.simple_roots):
            c = rs.pairing(r, a)
            if c:
                entries.append((idx[r], R + i, -c))
        out[r] = tuple(entries)
    return out


def _bracket_sign(entries: Dict[Root, Entries], r: Root, s: Root) -> int:
    """Sign of N(r, s), read from one entry of [M_r, M_s] = N(r, s) M_{r+s}."""
    i, j, v = entries[add(r, s)][0]

    def product_entry(a: Root, b: Root) -> int:
        return sum(
            x * y
            for ai, ak, x in entries[a]
            if ai == i
            for bk, bj, y in entries[b]
            if bk == ak and bj == j
        )

    return 1 if (product_entry(r, s) - product_entry(s, r)) * v > 0 else -1


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
                self.dim, self._entries = _type_a_entries(rs)
            elif rs.letter == "C":
                self.dim, self._entries = _type_c_entries(rs)
            else:
                raise ValueError(f"no matrix pinning shipped for type {rs.letter}")
            if extraspecial_signs:
                raise ValueError("extraspecial signs apply to adjoint pinnings only")
            signs = {
                c: _bracket_sign(self._entries, r, s)
                for c, (r, s) in extraspecial_pairs(rs).items()
            }
            self.constants = StructureConstants(rs, signs)
        elif kind == "adjoint":
            self.constants = StructureConstants(rs, extraspecial_signs)
            self.dim = len(rs.roots) + rs.rank
        else:
            raise ValueError(f"unknown pinning kind {kind!r}")
        self.rs = rs
        self.kind = kind
        self._expansions: Dict[Tuple[Root, Root], Tuple] = {}

    @cached_property
    def _entries(self) -> Dict[Root, Entries]:
        """The adjoint matrices, built on first use.

        Only `matrix` and `pinning_hash` read them; the matrix kind sets
        its own at construction, as it reads its signs from them.
        """
        return _adjoint_entries(self.rs, self.constants)

    def matrix(self, r: Root) -> Matrix:
        """M_r as a dense matrix, built from its stored entries."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, j, v in self._entries[r]:
            rows[i][j] = v
        return tuple(tuple(row) for row in rows)

    def structure_constant(self, a: Root, b: Root) -> int:
        """N(a, b) with [M_a, M_b] = N(a, b) M_{a+b}; 0 when a+b is not a root."""
        return self.constants.N(a, b)

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
        if _parallel(a, b):
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

    def reflection_sign(self, r: Root, s: Root) -> int:
        """Sign h in w_r(1) u_s(x) w_r(1)^-1 = u_{s_r(s)}(h x).

        h = -1 for s = +-r.  Otherwise let the r-string through s run
        from b = s - p*r to s + q*r.  The vectors v_k = ad(e_r)^k e_b / k!
        span an sl2-module on which w_r(1) sends v_k to (-1)^k v_{p+q-k},
        and e_{b+k*r} is v_k times the signs of N(r, b + i*r), i < k.
        So h = (-1)^p times the signs of N(r, b + i*r) for i between p
        and q (Carter, §6.4).
        """
        if s == r or s == negate(r):
            return -1
        p = self.constants.p_down(r, s)
        q = p - self.rs.pairing(s, r)
        h = (-1) ** p
        for i in range(min(p, q), max(p, q)):
            link = tuple(y + (i - p) * x for x, y in zip(r, s))
            if self.structure_constant(r, link) < 0:
                h = -h
        return h

    @cached_property
    def letter_tables(self) -> Tuple[Dict[Root, Tuple[int, Root]], ...]:
        """Per affine letter j, each root a -> (h, s_r(a)), with h = `reflection_sign(r, a)`.

        r is the gradient of the simple affine root A_j (-theta for j = 0),
        so s_r is the linear part of the affine simple reflection s_j.
        Built on first use, with one `reflection_sign` per (letter, root).
        """
        rs = self.rs
        return tuple(
            {a: (self.reflection_sign(r, a), rs.reflect(a, r)) for a in rs.roots}
            for r, _ in simple_affine_roots(rs)
        )

    # ------------------------------------------------------------------
    # reporting

    def pinning_hash(self) -> str:
        """First 16 hex of the sha256 of the dense matrices as sorted JSON.

        The JSON is fed to the hash one root at a time, from the stored
        entries; an all-zero row is formatted once.
        """

        def dump(obj) -> str:
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        n = self.dim
        zero_row = dump([0] * n)
        digest = hashlib.sha256()
        head = dump({"cartan_type": self.rs.cartan_type, "kind": self.kind})
        digest.update((head[:-1] + ',"matrices":[').encode())
        for k, r in enumerate(self.rs.roots):
            rows: Dict[int, List[int]] = {}
            for i, j, v in self._entries[r]:
                rows.setdefault(i, [0] * n)[j] = v
            body = ",".join(dump(rows[i]) if i in rows else zero_row for i in range(n))
            digest.update(f"{',' if k else ''}[{dump(list(r))},[{body}]]".encode())
        digest.update(b"]}")
        return digest.hexdigest()[:16]

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
