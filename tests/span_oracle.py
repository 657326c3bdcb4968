"""Dense references for the solved span: its elements and its RREF.

`characters.solve_space` checks its basis against the oracle without
listing the span, so the tests that want its elements list them here.
`nullspace` is the dense mod-p RREF that the sparse Gauss-Jordan pass of
`characters._nullspace` replaced; it eliminates column by column, with
row swaps, on dense lists.
"""

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

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


def dense(rows: Sequence[Dict[int, int]], ncols: int) -> List[List[int]]:
    """Sparse rows (column -> coefficient) as dense lists of ncols entries."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def rref(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """The reduced rows and their pivot columns, in increasing order."""
    mat = [row[:] for row in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(mat)) if mat[k][col] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col]:
                factor = mat[k][col]
                mat[k] = [(a - factor * b) % p for a, b in zip(mat[k], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def nullspace(
    rows: List[List[int]], ncols: int, p: int
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """RREF nullspace basis, one vector per free column, and those columns."""
    reduced, pivots = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = (-row[fc]) % p
        basis.append(tuple(vec))
    return basis, free
