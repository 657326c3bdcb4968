"""The affine commutator expansion filtered by rational depth: the
reference for `Context.relations`.

`shallow_commutator_expansion` keeps the factors of Chevalley's formula
whose targets stay shallow at the point, each tested with `is_shallow`
in `Fraction`s, one pair at a time.  The context instead reduces the
constants mod p and stops each early root's scan by its integer depths.
"""

from shallow_chars.affine_roots import is_shallow
from shallow_chars.chevalley import commutator_expansion


def shallow_commutator_expansion(pinning, alpha, beta, point):
    """commutator_expansion filtered to targets that stay shallow at the point.

    Dropped targets have depth >= 1 there, hence die in the quotient the
    characters live on.
    """
    if not (is_shallow(alpha, point) and is_shallow(beta, point)):
        raise ValueError("both arguments must be shallow at the point")
    return tuple(
        (target, i, j, c)
        for target, i, j, c in commutator_expansion(pinning, alpha, beta)
        if is_shallow(target, point)
    )
