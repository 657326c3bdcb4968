"""Every F_p-combination of a solved basis, for the tests that read the span.

`characters.solve_space` checks its basis against the oracle without
listing the span, so the tests that want its elements list them here.
"""

import itertools
from typing import Iterator

from shallow_chars.characters import CharacterSpace, ShallowCharacter


def span_elements(space: CharacterSpace) -> Iterator[ShallowCharacter]:
    """All F_p-combinations of the basis, coefficients in lexicographic order."""
    ctx = space.context
    f = ctx.field
    for coeffs in itertools.product(range(f.p), repeat=len(space.basis)):
        vec = [0] * ctx.n_roots
        for a, chi in zip(coeffs, space.basis):
            vec = [f.add(v, f.mul(a, c)) for v, c in zip(vec, chi.vector)]
        yield ShallowCharacter.from_vector(ctx, vec)
