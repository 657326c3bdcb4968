"""Bubble-sort collection, the reference for `group_model._collect`.

A word is a list of tokens (position, value), each standing for
u_position(value).  The pass below merges neighbours at one position,
then swaps the first adjacent pair out of order: u_b(y) u_a(x) with
a < b becomes u_a(x) u_b(y) followed by the factors of
[u_b(y), u_a(x)] from `Context.relations`.  Every factor
lands strictly later than both, so the rewriting terminates.  It
rebuilds the token list and rescans from the start after every swap,
so it is slow, and it shares nothing with collection from the left but
the commutator data.
"""

from typing import Iterable, List, Tuple

Token = Tuple[int, int]


def bubble_collect(ctx, tokens: Iterable[Token]) -> List[Token]:
    """The normal form of a token word, as its nonzero tokens in order."""
    f = ctx.field
    toks = [t for t in tokens if t[1]]
    steps = 0
    while True:
        merged: List[Token] = []
        for p, v in toks:
            if merged and merged[-1][0] == p:
                s = f.add(merged[-1][1], v)
                if s:
                    merged[-1] = (p, s)
                else:
                    merged.pop()
            else:
                merged.append((p, v))
        toks = merged
        k = next(
            (k for k in range(len(toks) - 1) if toks[k][0] > toks[k + 1][0]), None
        )
        if k is None:
            return toks
        p1, v1 = toks[k]
        p2, v2 = toks[k + 1]
        corrections: List[Token] = []
        for pos, i, j, c in ctx.relations.get((p2, p1), ()):
            val = f.mul(c, f.mul(f.pow(v2, i), f.pow(v1, j)))
            if val:
                corrections.append((pos, val))
        toks[k : k + 2] = [(p2, v2), (p1, v1)] + corrections
        steps += 1
        assert steps < 100_000, "collection failed to terminate"
