"""Brute-force filter, the reference for `characters.enumerate_valid`.

Every one of the q^N parameter vectors is built as a character and
checked against all pair relations by `validate`, in lexicographic
order.  It shares with the pruned search only the pair checks, not the
order in which they are run or the cuts.
"""

import itertools
from typing import Iterator

from shallow_chars.characters import ShallowCharacter, validate
from shallow_chars.context import Context


def brute_valid(ctx: Context) -> Iterator[ShallowCharacter]:
    """Brute-force oracle: filter every parameter vector through validate."""
    for vec in itertools.product(range(ctx.q), repeat=ctx.n_roots):
        chi = ShallowCharacter.from_vector(ctx, vec)
        if validate(chi).ok:
            yield chi
