"""Fourier-Motzkin over rationals, the reference for `weyl.condition_star`.

`reference_projections` projects the witness polytope onto each coroot
coordinate, computed the slow way: every row is normalised by division
into `Fraction`s, and each coordinate gets its own l - 1 eliminations.
`orbit_witness_ranges` reads the integer ranges those projections leave
at one finite orbit point, the box whose points condition (*) may meet
there.

`polytope_bounded` is recession-cone boundedness.  The witness polytope
{mu : a(mu) <= const for each support gradient a} is bounded exactly
when its recession cone {a(mu) <= 0} is {0}.  Here that is tested one
coordinate direction at a time: the cone meets the half-space mu_i >= 1
(or mu_i <= -1) exactly when a Fourier-Motzkin elimination of every
variable leaves no contradictory row.  That costs 2·l feasibility tests
per character, and it shares no code with condition (*).

`unpruned_eliminate` is `weyl._fm_eliminate` without Chernikov's rule:
every combined row is kept up to the tightest row per direction.  Put in
its place, it builds the chain the pruned one must match link by link.

`cone_lattice_point` searches the same cone by brute force for a
nonzero coroot lattice point in a box.  Each one is a translation t_k
that moves lambda to lambda + k != lambda inside the polytope, so an
unbounded polytope always has a witness to condition (*), even where
the search reports "inconclusive" for want of radius.
"""

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

InequalityRows = List[Tuple[Tuple[Fraction, ...], Fraction]]


def fm_eliminate(rows: InequalityRows, var: int) -> InequalityRows:
    """Project out one variable, keeping the tightest row per direction.

    Each row is scaled so that its first nonzero coefficient is +-1, and
    of rows with equal scaled coefficients only the least right-hand
    side is kept.
    """
    zero, pos, neg = [], [], []
    for coeffs, rhs in rows:
        c = coeffs[var]
        if c == 0:
            zero.append((coeffs, rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    out = list(zero)
    for cp, bp in pos:
        for cn, bn in neg:
            a, c = cp[var], cn[var]
            coeffs = tuple(-c * x + a * y for x, y in zip(cp, cn))
            out.append((coeffs, -c * bp + a * bn))
    tightest: Dict[Tuple[Fraction, ...], Fraction] = {}
    for coeffs, rhs in out:
        lead = next((abs(c) for c in coeffs if c), 1)
        coeffs = tuple(c / lead for c in coeffs)
        rhs = rhs / lead
        if coeffs not in tightest or rhs < tightest[coeffs]:
            tightest[coeffs] = rhs
    return list(tightest.items())


def unpruned_eliminate(rows, var: int, most: int):
    """Rows (coeffs, rhs, sources) with var projected out; most is ignored.

    Pairs are combined with the least integer multipliers that cancel
    var, and of rows along one primitive direction the first with the
    least bound is kept.
    """
    zero, pos, neg = [], [], []
    for row in rows:
        c = row[0][var]
        (zero if c == 0 else pos if c > 0 else neg).append(row)
    out = list(zero)
    for cp, bp, sp in pos:
        for cn, bn, sn in neg:
            a, c = cp[var], -cn[var]
            x, y = c // math.gcd(a, c), a // math.gcd(a, c)
            coeffs = tuple(x * u + y * v for u, v in zip(cp, cn))
            rhs = x * bp + y * bn
            g = math.gcd(*coeffs, rhs) or 1
            out.append((tuple(u // g for u in coeffs), rhs // g, sp | sn))
    tightest: Dict[Tuple[int, ...], Tuple[Fraction, tuple]] = {}
    for row in out:
        g = math.gcd(*row[0]) or 1
        direction = tuple(u // g for u in row[0])
        bound = Fraction(row[1], g)
        if direction not in tightest or bound < tightest[direction][0]:
            tightest[direction] = (bound, row)
    return [row for _, row in tightest.values()]


def reference_projections(rs, rows_mu, n: int):
    """Rows (c, b, rhs) meaning c * k_j + b . nu <= rhs, for each j.

    The points are nu / n + sum_i k_i a_i^vee, and rows_mu holds the rows
    (gradient, rhs) of the polytope a(mu) <= rhs.
    """
    l = rs.rank
    rows: InequalityRows = []
    for gradient, rhs in rows_mu:
        kc = tuple(
            Fraction(sum(gradient[i] * rs.cartan[j][i] for i in range(l))) for j in range(l)
        )
        rows.append((kc + tuple(Fraction(c) for c in gradient), Fraction(rhs)))
    out = []
    for keep in range(l):
        proj = rows
        for var in range(l):
            if var != keep:
                proj = fm_eliminate(proj, var)
        projected = []
        for c, rhs in proj:
            c, b, rhs = n * c[keep], c[l:], n * rhs
            scale = math.lcm(c.denominator, rhs.denominator, *(x.denominator for x in b))
            projected.append((int(c * scale), tuple(int(x * scale) for x in b), int(rhs * scale)))
        out.append(projected)
    return out


def orbit_witness_ranges(nu: Sequence[int], projections, radius: Optional[int]) -> List[range]:
    """Integer k-ranges of the projections at the orbit point nu.

    Without a radius each projection must bound k_j on both sides.  All
    ranges are empty as soon as one of them is.
    """
    empty = [range(0)] * len(projections)
    ranges = []
    for rows in projections:
        lo, hi = (-math.inf, math.inf) if radius is None else (-radius, radius)
        for c, b, rhs in rows:
            rhs -= sum(map(mul, b, nu))
            if c > 0:
                hi = min(hi, rhs // c)
            elif c < 0:
                lo = max(lo, -(rhs // -c))
            elif rhs < 0:
                return empty
        if lo > hi:
            return empty
        ranges.append(range(lo, hi + 1))
    return ranges


def fm_feasible(rows: InequalityRows, nvars: int) -> bool:
    for var in range(nvars):
        rows = fm_eliminate(rows, var)
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


def cone_lattice_point(gradients: List[Sequence[int]], cartan, bound: int):
    """A nonzero k with |k_j| <= bound and g(sum k_j a_j^vee) <= 0 for
    every listed gradient g, or None; a_j^vee is row j of the Cartan
    matrix in the point's coordinates."""
    l = len(cartan)
    rows = [[sum(g[i] * cartan[j][i] for i in range(l)) for j in range(l)] for g in gradients]
    for k in itertools.product(range(-bound, bound + 1), repeat=l):
        if any(k) and all(sum(map(mul, row, k)) <= 0 for row in rows):
            return k
    return None
