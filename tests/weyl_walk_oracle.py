"""Breadth-first enumeration by composition, the reference for the walk.

`bfs` composes every element of a level with each generator and keeps
the children whose (root map, translation) it has not seen, so it reads
neither the descent test nor the walk's key.  Each element keeps the
first word that reached it, so words are reduced and nondecreasing in
length.  With a radius it stops at that word length; without one it
runs until the generated group is exhausted, which must be finite.
"""

from typing import List, Optional, Sequence

from shallow_chars.root_system import RootSystem
from shallow_chars.weyl import AffineWeylElement


def bfs(
    rs: RootSystem, letters: Sequence[int], radius: Optional[int] = None
) -> List[AffineWeylElement]:
    gens = [AffineWeylElement.simple(rs, i) for i in letters]
    out = [AffineWeylElement.identity(rs)]
    seen = {out[0].key()}
    frontier = list(out)
    length = 0
    while frontier and (radius is None or length < radius):
        nxt = []
        for w in frontier:
            for g in gens:
                child = w.compose(g)
                if child.key() not in seen:
                    seen.add(child.key())
                    nxt.append(child)
        out.extend(nxt)
        frontier = nxt
        length += 1
    return out
