"""Reference structure constants and pinning hash, for cross-checks.

* `ReferenceConstants(rs, signs)`: the extraspecial-pair recursion of
  Carter (*Simple Groups of Lie Type*, §4.2) in `Fraction`s, both sign
  and magnitude.  Only the extraspecial pairs are seeded, with
  sign(c) * (p+1) read off an r-string walked here; every other constant
  comes out of antisymmetry, the opposition rule N(-a,-b) = -N(a,b), the
  trilinear identity N(x,y)/(z,z) = N(y,z)/(x,x) for x+y+z = 0, and the
  four-root identity on a+b-r-s = 0.  `StructureConstants` builds each
  constant as sign * (p+1) in integers instead, so agreement checks
  both that |N(a, b)| = p+1 and its sign recursion.
* `reference_pinning_hash(pinning)`: the pinning hash formatted with one
  `json.dumps` per dense nonzero row, against `Pinning.pinning_hash`,
  which writes each row from its sparse entries.
"""

import hashlib
import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from shallow_chars.chevalley import extraspecial_pairs
from shallow_chars.root_system import add, negate


def _string_below(rs, a, b) -> int:
    """The number of steps of the a-string down from b: b - a, b - 2a, ..."""
    p, v = 0, b
    while True:
        v = tuple(x - y for x, y in zip(v, a))
        if v not in rs.root_set:
            return p
        p += 1


class ReferenceConstants:
    """N(a, b) by the extraspecial-pair recursion, in `Fraction`s."""

    def __init__(self, rs, signs: Optional[Dict[tuple, int]] = None):
        self.rs = rs
        self._order = {r: k for k, r in enumerate(rs.positive_roots)}
        self._signs = dict(signs or {})
        self._extraspecial = extraspecial_pairs(rs)
        self._memo: Dict[Tuple[tuple, tuple], Fraction] = {}

    def N(self, a, b) -> int:
        val = self._n(a, b)
        assert val.denominator == 1
        return int(val)

    def _n(self, a, b) -> Fraction:
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
                val = Fraction(sign * (_string_below(rs, a, b) + 1))
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


def reference_pinning_hash(pinning) -> str:
    """`Pinning.pinning_hash`, with every nonzero row made dense and dumped."""

    def dump(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    n = pinning.dim
    zero_row = dump([0] * n)
    digest = hashlib.sha256()
    head = dump({"cartan_type": pinning.rs.cartan_type, "kind": pinning.kind})
    digest.update((head[:-1] + ',"matrices":[').encode())
    for k, r in enumerate(pinning.rs.roots):
        rows: Dict[int, List[int]] = {}
        for i, j, v in pinning._entries[r]:
            rows.setdefault(i, [0] * n)[j] = v
        body = ",".join(dump(rows[i]) if i in rows else zero_row for i in range(n))
        digest.update(f"{',' if k else ''}[{dump(list(r))},[{body}]]".encode())
    digest.update(b"]}")
    return digest.hexdigest()[:16]

