"""The intertwining reduction over rationals, the reference for
`weyl.intertwining_reduction`, and the conjugation sign by refolding, the
reference for `AffineWeylElement.sign`, and the scan built from them, the
reference for `weyl.intertwining_scan`.

Every shallow root and every preimage of one under w is a candidate, in
sorted order.  Depths are `Fraction`s at the context's point, images come
from `AffineWeylElement.act_on_root`, the preimages from the inverse
element, and signs from `reference_sign`, so this shares no arithmetic
with the integer reduction or with the pinning's letter tables.  The
reference scan builds the whole ball with `weyl._ball` and moves the
point with `AffineWeylElement.act_on_point`, in rationals.
"""

from shallow_chars.affine_roots import AffineRoot, depth
from shallow_chars.root_system import negate
from shallow_chars.weyl import ReductionVerdict, ScanResult, _ball


def reference_sign(pinning, w, gradient) -> int:
    """The sign of w at a finite root, folding the word from the right.

    Each letter asks `reflection_sign` for its root's lift at the current
    gradient, then reflects the gradient in that root.
    """
    rs = pinning.rs
    eta = 1
    for letter in reversed(w.word):
        r = negate(rs.highest_root) if letter == 0 else rs.simple_roots[letter - 1]
        eta *= pinning.reflection_sign(r, gradient)
        gradient = rs.reflect(gradient, r)
    return eta


def reference_reduction(chi, w) -> ReductionVerdict:
    ctx = chi.context
    winv = w.inverse()
    candidates = set(ctx.roots) | {winv.act_on_root(r) for r in ctx.roots}
    f = ctx.field

    def param(alpha: AffineRoot) -> int:
        pos = ctx.index.get(alpha)
        return chi.vector[pos] if pos is not None else 0

    for beta in sorted(candidates):
        if depth(beta, ctx.point) <= 0:
            continue
        image = w.act_on_root(beta)
        if depth(image, ctx.point) <= 0:
            continue
        eta = reference_sign(ctx.pinning, w, beta.gradient)
        if param(image) != f.mul(f.from_int(eta), param(beta)):
            return ReductionVerdict(False, beta)
    return ReductionVerdict(True, None)


def reference_scan(chi, radius) -> ScanResult:
    """The scan over the whole ball, each element judged by `reference_reduction`."""
    ctx = chi.context
    stabilizer = []
    moved = 0
    for w in _ball(ctx.rs, radius):
        compatible = reference_reduction(chi, w).compatible
        if w.act_on_point(ctx.point) == ctx.point:
            if compatible:
                stabilizer.append(w)
            continue
        moved += 1
        if compatible:
            return ScanResult("counterexample", w, radius, moved, tuple(stabilizer))
    outcome = "collapses_to_P_chi" if moved else "inconclusive"
    return ScanResult(outcome, None, radius, moved, tuple(stabilizer))
