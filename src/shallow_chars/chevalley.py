"""Pinnings and their commutator structure constants.

A pinning fixes, for every root r, a nilpotent matrix M_r in a faithful
representation, so that u_r(x) = exp(x M_r) is the root group morphism.
Types A and C use the defining representations (elementary matrices;
antidiagonal symplectic form, matching u_r(x) = 1 + x M_r since every
M_r squares to zero); all other types use the adjoint representation
of a Chevalley basis.  Each M_r is stored as its (row, col, value)
entries; the adjoint entries are built only when a matrix or the
pinning hash is asked for, and the hash writes each distinct nonzero row
of the dense JSON once, from its entries, between cached runs of zeros.

Every pinning reads its structure constants N(a, b), defined by
[M_a, M_b] = N(a, b) M_{a+b}, from one `StructureConstants`, in
integers: |N(a, b)| = p+1 for the a-string b - p*a, ..., b (Carter,
*Simple Groups of Lie Type*, ch. 4), and the extraspecial-pair recursion
(§4.2) fixes every sign once the sign on each extraspecial pair is
chosen.  The adjoint kind takes those signs as given (+1 unless
overridden); the matrix kind reads each from one entry of the bracket of
its defining matrices.  The reflection signs of the Weyl lifts
w_r(1) = u_r(1) u_{-r}(-1) u_r(1) follow from the same constants
(Carter, §6.4), so no matrix product is formed at run time.  The
`Fraction` recursion for both sign and magnitude is kept as a reference
in tests/constants_oracle.py.

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
commute).  Every division is asserted exact.  The dense checks live
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
import operator
from functools import cached_property
from math import factorial
from typing import Dict, NamedTuple, Optional, Tuple

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
    """Chevalley constants N(a, b) with [e_a, e_b] = N(a, b) e_{a+b}, as ints.

    |N(a, b)| = p+1, p the length of the descending a-string through b
    (Carter, ch. 4), so only the sign recurses.  Positive roots are
    ordered by (height, coordinates); for each positive non-simple c the
    extraspecial pair is (r, c-r) with r minimal, and its sign is given
    (+1 unless set).  Every other sign follows from antisymmetry, the
    opposition rule N(-a,-b) = -N(a,b), the trilinear identity
    N(x,y)/(z,z) = N(y,z)/(x,x) for x+y+z = 0, and the four-root identity
    on a+b-r-s = 0, as products of signs; only where both legs of the
    four-root identity are present are the legs' integer values weighed.
    N takes root indices (positions in `rs.roots`).  Each root is coded
    as the integer sum c_i * base**i: the code is linear, and base is so
    wide that a sum or string step is a root iff its code is a root's.
    """

    def __init__(self, rs: RootSystem, signs: Optional[Dict[Root, int]] = None):
        self.rs = rs
        self.index = {r: k for k, r in enumerate(rs.roots)}
        base = 12 * max(rs.highest_root) + 1  # codes differ where |coordinates| <= 6h
        self.codes = [sum(c * base**i for i, c in enumerate(r)) for r in rs.roots]
        self.at_code = {code: k for k, code in enumerate(self.codes)}
        self.opposite = [self.at_code[-code] for code in self.codes]
        order = {r: k for k, r in enumerate(rs.positive_roots)}
        self._order = [order.get(r, -1) for r in rs.roots]  # -1 on negative roots
        index = self.index
        self._extraspecial = {
            index[c]: (index[r], index[s]) for c, (r, s) in extraspecial_pairs(rs).items()
        }
        signs = signs or {}
        if any(index.get(c) not in self._extraspecial or e not in (1, -1) for c, e in signs.items()):
            raise ValueError(f"extraspecial signs must be +-1 on positive non-simple roots: {signs}")
        self._signs = {index[c]: e for c, e in signs.items()}
        self._memo: Dict[Tuple[int, int], int] = {}

    def p_down(self, a: int, b: int) -> int:
        """Largest p with b - p*a a root, on root indices."""
        ca, cb, p = self.codes[a], self.codes[b], 0
        while cb - (p + 1) * ca in self.at_code:
            p += 1
        return p

    def N(self, a: int, b: int) -> int:
        """N on root indices."""
        val = self._memo.get((a, b))
        if val is None:
            val = self._memo[a, b] = self._constant(a, b)
        return val

    def _constant(self, a: int, b: int) -> int:
        codes, n, opp, order = self.codes, self.N, self.opposite, self._order
        c = self.at_code.get(codes[a] + codes[b])
        if c is None:
            return 0
        if order[a] >= 0 and order[b] >= 0:
            if order[a] > order[b]:
                sign = -n(b, a)
            elif (a, b) == self._extraspecial[c]:
                sign = self._signs.get(c, 1)
            else:
                r, s = self._extraspecial[c]
                # N(a,b) N(r,s) / (c,c) = t_br / (b-r,b-r) + t_ar / (a-r,a-r)
                t_br = n(b, opp[r]) * n(a, opp[s])
                t_ar = n(opp[r], a) * n(b, opp[s])
                if t_br and t_ar:
                    ar, br = (self.rs.roots[self.at_code[codes[x] - codes[r]]] for x in (a, b))
                    sign = t_br * self.rs.length_sq(ar) + t_ar * self.rs.length_sq(br)
                else:
                    sign = t_br + t_ar
                sign *= n(r, s)
        elif order[a] < 0 and order[b] < 0:
            sign = -n(opp[a], opp[b])
        elif order[a] < 0:
            sign = -n(b, a)
        else:  # z = -a-b closes a zero triangle; the length ratio is positive
            z = opp[c]
            sign = n(z, a) if order[z] >= 0 else -n(opp[b], opp[z])
        assert sign, "the recursion left a root sum without a constant"
        return (1 if sign > 0 else -1) * (self.p_down(a, b) + 1)


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
    """ad(e_r) on the basis (e_s for s in rs.roots, then the simple coroots).

    Built for positive r; the matrix of -r follows by N(-r, -s) = -N(r, s)
    and h_{-r} = -h_r: negate every value and send each root index to
    its opposite.
    """
    R = len(rs.roots)
    flip = sc.opposite + list(range(R, R + rs.rank))
    out = {}
    for k, r in enumerate(rs.roots):
        if sum(r) < 0:
            continue
        # e_s -> N(r, s) e_{r+s}, for every s with r+s a root
        sums = map(sc.at_code.get, map(sc.codes[k].__add__, sc.codes))
        entries = [(t, s, sc.N(k, s)) for s, t in enumerate(sums) if t is not None]
        # e_-r -> h_r, over the simple coroots
        entries += [(R + i, sc.opposite[k], c) for i, c in enumerate(rs.coroot(r)) if c]
        # h_i -> -<r, a_i^vee> e_r
        for i, cartan_row in enumerate(rs.cartan):
            c = sum(map(operator.mul, r, cartan_row))
            if c:
                entries.append((k, R + i, -c))
        out[r] = tuple(entries)
        out[negate(r)] = tuple([(flip[i], flip[j], -v) for i, j, v in entries])
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
        """N(a, b) with [M_a, M_b] = N(a, b) M_{a+b}; 0 unless a, b, a+b are roots."""
        ia, ib = self.constants.index.get(a), self.constants.index.get(b)
        return 0 if ia is None or ib is None else self.constants.N(ia, ib)

    # ------------------------------------------------------------------
    # commutator expansion by Chevalley's formula

    def _divided(self, r: Root, s: Root, i: int) -> int:
        """M(r, s, i) = (1/i!) * prod_{k<i} N(r, s + k*r)."""
        prod = 1
        for _ in range(i):
            prod *= self.structure_constant(r, s)
            s = add(s, r)
        assert prod % factorial(i) == 0, "non-integral divided power"
        return prod // factorial(i)

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
        terms = []
        for i, j in self.rs.root_string(a, b):
            if j == 1:
                num, den = self._divided(a, b, i), 1
            elif i == 1:
                num, den = (-1) ** j * self._divided(b, a, j), 1
            elif (i, j) == (3, 2):
                num, den = self._divided(add(a, b), a, 2), 3
            else:  # (2, 3), the only other string position in a reduced system
                num, den = -2 * self._divided(add(a, b), b, 2), 3
            assert num % den == 0, "non-integer commutator constant"
            C = (-1) ** i * (num // den)
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
        index = self.constants.index
        p = self.constants.p_down(index[r], index[s])
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

        The JSON goes to the hash one root at a time, written from the
        stored entries: each distinct nonzero row once, as its values
        after cached runs of "0,", and every other row as the zero row.
        """
        n = self.dim
        lead = [b"0," * k for k in range(n)]
        zero_row = b"[" + lead[n - 1] + b"0]"
        written: Dict[Tuple[Tuple[int, int], ...], bytes] = {}
        digest = hashlib.sha256()
        head = json.dumps({"cartan_type": self.rs.cartan_type, "kind": self.kind},
                          sort_keys=True, separators=(",", ":"))
        digest.update((head[:-1] + ',"matrices":[').encode())
        for k, r in enumerate(self.rs.roots):
            rows: Dict[int, Tuple[Tuple[int, int], ...]] = {}
            for i, j, v in self._entries[r]:
                rows[i] = rows.get(i, ()) + ((j, v),)
            body = [zero_row] * n
            for i, cells in rows.items():
                if cells not in written:
                    last, values = -1, []
                    for j, v in sorted(cells):
                        values.append(lead[j - last - 1] + str(v).encode())
                        last = j
                    written[cells] = b"[" + b",".join(values) + b",0" * (n - 1 - last) + b"]"
                body[i] = written[cells]
            digest.update(f"{',' if k else ''}[[{','.join(map(str, r))}],[".encode())
            digest.update(b",".join(body))
            digest.update(b"]]")
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
