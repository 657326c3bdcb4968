"""Recession-cone boundedness, the reference for `weyl.condition_star`.

The witness polytope {mu : a(mu) <= const for each support gradient a}
is bounded exactly when its recession cone {a(mu) <= 0} is {0}.  Here
that is tested one coordinate direction at a time: the cone meets the
half-space mu_i >= 1 (or mu_i <= -1) exactly when a Fourier-Motzkin
elimination of every variable leaves no contradictory row.  That costs
2·l feasibility tests per character, and it shares with condition (*)
only the elimination step, not the reading of the projections.
"""

from fractions import Fraction
from typing import List, Sequence

from shallow_chars.weyl import InequalityRows, _fm_eliminate


def fm_feasible(rows: InequalityRows, nvars: int) -> bool:
    for var in range(nvars):
        rows = _fm_eliminate(rows, var)
    return all(rhs >= 0 for _, rhs in rows)


def polytope_bounded(gradients: List[Sequence[int]], rank: int) -> bool:
    """Is {mu : a(mu) <= const for all listed gradients} bounded?"""
    cone: InequalityRows = [
        (tuple(Fraction(c) for c in a), Fraction(0)) for a in gradients
    ]
    for i in range(rank):
        for sgn in (1, -1):
            ray = cone + [
                (tuple(Fraction(-sgn if p == i else 0) for p in range(rank)), Fraction(-1))
            ]
            if fm_feasible(ray, rank):
                return False
    return True
