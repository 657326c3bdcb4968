"""The intertwining reduction over rationals, the reference for
`weyl.intertwining_reduction`.

Every shallow root and every preimage of one under w is a candidate, in
sorted order.  Depths are `Fraction`s at the context's point, images come
from `AffineWeylElement.act_on_root`, and the preimages from the inverse
element, so this shares no arithmetic with the integer reduction.
"""

from shallow_chars.affine_roots import AffineRoot, depth
from shallow_chars.weyl import ReductionVerdict


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
        eta = w.sign(ctx.pinning, beta)
        if param(image) != f.mul(f.from_int(eta), param(beta)):
            return ReductionVerdict(False, beta)
    return ReductionVerdict(True, None)
