"""Bundled working data for a fixed (root system, point, field, pinning).

Everything downstream of the shallow-root enumeration is positional: a
context freezes the enumeration (depth, then gradient, both ascending),
and builds on first use the one commutator table, `relations`, that the
relation rows, the validator, the exhaustive oracle, the collector and
the Sp4 report all read.  Its constants are reduced into F_p here and
nowhere else.  Every target is checked to land strictly later than both
generators of its pair, which is the fact making the rewriting terminate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional, Tuple

from .affine_roots import Point, _census, parse_point, point_to_json
from .chevalley import Pinning, commutator_expansion
from .finite_field import FiniteField
from .root_system import RootSystem, add

Factor = Tuple[int, int, int, int]  # (target position, i, j, C in F_p)


class Context:
    def __init__(
        self,
        rs: RootSystem,
        point,
        q: int,
        pinning: Optional[Pinning] = None,
    ):
        self.rs = rs
        self.point: Point = parse_point(point)
        self.field = FiniteField(q)
        self.pinning = pinning if pinning is not None else Pinning(rs)
        n, x, self.facet, census = _census(rs, self.point)
        self.scaled_point: Tuple[int, Tuple[int, ...]] = (n, x)  # as `scale_point`
        self.roots = tuple(alpha for _, alpha in census)
        self.index = {r: k for k, r in enumerate(self.roots)}
        self._scaled_depths = tuple(r for r, _ in census)  # n * depth, integers
        self.depths: Tuple[Fraction, ...] = tuple(Fraction(r, n) for r in self._scaled_depths)
        self._cayley = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def coset_count(self) -> int:
        return self.field.q ** len(self.roots)

    @cached_property
    def relations(self) -> Dict[Tuple[int, int], Tuple[Factor, ...]]:
        """The shallow commutator factors over F_p, one entry per pair.

        Keys (early, late) with early < late, in ascending order; values
        the factors (target, i, j, C) of [u_late(y), u_early(x)], ordered
        by (i+j, i), that carry u_target(C x^i y^j) with target shallow
        and C a nonzero element of F_p.  Pairs with no such factor are
        absent.  Built on first use.  A target i*alpha + j*beta has depth
        at least d(alpha) + d(beta), and depths ascend, so the scan of
        late stops at the first pair whose depths sum to 1 or more.  A
        pair whose gradients do not sum to a root has no factor in a
        reduced root system, so it is skipped without an expansion; that
        covers the parallel pairs too.
        """
        p, root_set = self.field.p, self.rs.root_set
        n, depths = self.scaled_point[0], self._scaled_depths
        table: Dict[Tuple[int, int], Tuple[Factor, ...]] = {}
        for early, alpha in enumerate(self.roots):
            for late in range(early + 1, len(self.roots)):
                if depths[early] + depths[late] >= n:
                    break
                beta = self.roots[late]
                if add(alpha.gradient, beta.gradient) not in root_set:
                    continue
                factors = []
                for target, term in commutator_expansion(self.pinning, alpha, beta):
                    pos, c = self.index.get(target), term.constant % p
                    if pos is None or not c:
                        continue  # depth >= 1, or C = 0 in F_p: trivial here
                    assert pos > late, "commutator target must come later"
                    factors.append((pos, term.i, term.j, c))
                if factors:
                    table[early, late] = tuple(factors)
        return table

    def expansion_terms(self, early: int, late: int) -> Tuple[Factor, ...]:
        """The factors of [u_late(y), u_early(x)], early < late: `relations`, or ()."""
        return self.relations.get((early, late), ())

    def to_json(self) -> Dict:
        return {
            "cartan_type": self.rs.cartan_type,
            "point": point_to_json(self.point),
            "q": self.field.q,
            "pinning_hash": self.pinning.pinning_hash(),
            "shallow_roots": [r.to_json() for r in self.roots],
            "depths": [str(d) for d in self.depths],
        }

    def __repr__(self) -> str:
        return (
            f"Context({self.rs.cartan_type}, {point_to_json(self.point)}, "
            f"q={self.field.q})"
        )
