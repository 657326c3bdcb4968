"""Bundled working data for a fixed (root system, point, field, pinning).

Everything downstream of the shallow-root enumeration is positional: a
context freezes the enumeration (depth, then gradient, both ascending),
and caches the commutator data exchanged between the character relations
and the normal-form rewriting.  The cache is keyed by positions, not
roots, and stores only targets that stay shallow; every cached target is
checked to land strictly later in the enumeration, which is the fact
making the rewriting terminate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .affine_roots import (
    Point,
    depth,
    facet_of,
    parse_point,
    point_to_json,
    shallow_roots,
)
from .chevalley import Pinning, commutator_expansion
from .finite_field import FiniteField
from .root_system import RootSystem, _parallel


class Context:
    def __init__(
        self,
        rs: RootSystem,
        point,
        q: Optional[int] = None,
        field: Optional[FiniteField] = None,
        pinning: Optional[Pinning] = None,
    ):
        if field is None:
            if q is None:
                raise ValueError("provide q or an explicit field")
            field = FiniteField(q)
        self.rs = rs
        self.point: Point = parse_point(point)
        self.field = field
        self.pinning = pinning if pinning is not None else Pinning(rs)
        self.roots = shallow_roots(rs, self.point)
        self.index = {r: k for k, r in enumerate(self.roots)}
        self.depths: Tuple[Fraction, ...] = tuple(
            depth(r, self.point) for r in self.roots
        )
        self.facet = facet_of(rs, self.point)
        self._terms: Dict[Tuple[int, int], Tuple[Tuple[int, int, int, int], ...]] = {}
        self._cayley = None

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def coset_count(self) -> int:
        return self.field.q ** len(self.roots)

    def expansion_terms(self, early: int, late: int) -> Tuple[Tuple[int, int, int, int], ...]:
        """Shallow commutator data for the generator pair at two positions.

        Entries (target_position, i, j, C) describe the factor
        u_target(C x^i y^j) of [u_late(y), u_early(x)], keeping only
        targets that are themselves shallow; parallel gradients give ().
        """
        key = (early, late)
        if key not in self._terms:
            alpha, beta = self.roots[early], self.roots[late]
            if _parallel(alpha.gradient, beta.gradient):
                out: Tuple[Tuple[int, int, int, int], ...] = ()
            else:
                found = []
                for target, term in commutator_expansion(self.pinning, alpha, beta):
                    pos = self.index.get(target)
                    if pos is None:
                        continue  # depth >= 1, dies in the quotient
                    assert pos > max(early, late), "commutator target must come later"
                    found.append((pos, term.i, term.j, term.constant))
                out = tuple(found)
            self._terms[key] = out
        return self._terms[key]

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
