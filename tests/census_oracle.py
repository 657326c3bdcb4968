"""The shallow census in exact rationals: the reference for the integer
census of `affine_roots` and `Context`.

Every root is valued with `depth` over `Fraction`, both integer levels
around the floor of its value are tried, the census is sorted by the
depths evaluated again, and the alcove is read from the values of the
simple affine roots.  Slow, and independent of the scaling by n.
"""

from shallow_chars.affine_roots import AffineRoot, depth, simple_affine_roots


def in_closed_alcove(rs, point):
    return all(depth(a, point) >= 0 for a in simple_affine_roots(rs))


def facet_of(rs, point):
    if not in_closed_alcove(rs, point):
        raise ValueError("point lies outside the closed fundamental alcove")
    return frozenset(
        j for j, a in enumerate(simple_affine_roots(rs)) if depth(a, point) > 0
    )


def shallow_roots(rs, point):
    if not in_closed_alcove(rs, point):
        raise ValueError("point lies outside the closed fundamental alcove")
    found = []
    for a in rs.roots:
        v = depth(AffineRoot(a, 0), point)
        low = -v  # need low < level < low + 1
        n0 = low.numerator // low.denominator  # floor
        for level in (n0, n0 + 1):
            if 0 < v + level < 1:
                found.append(AffineRoot(a, level))
    found.sort(key=lambda al: (depth(al, point), al.gradient))
    return tuple(found)


def depths(rs, point):
    return tuple(depth(r, point) for r in shallow_roots(rs, point))
