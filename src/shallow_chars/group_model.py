"""Cosets of the depth-one subgroup inside the pro-unipotent radical.

A coset has a unique normal form: one parameter per shallow root, taken
in enumeration order.  Products are computed by collection from the
left (Vaughan-Lee, J. Symb. Comp. 9, 1990) on the dense entry list of a
normal form.  To multiply by u_p(v), the entries above p are taken off,
v is added at p, and each taken u_t(x) is multiplied back on, followed
by the factors of its commutator with u_p(v) supplied by the context.
Every factor lands strictly later than both, so the rewriting
terminates.

Verification of a character against this multiplication has three
levels.  Checking chi(w * g) = chi(w) + chi(g) over every coset w and
every generator g = u_pos(v) is already exact: induction on the token
length of the right factor extends the identity to arbitrary pairs.
That sweep needs no Cayley table.  Write w = h * u_pos(a) * s, with h
the entries below pos and s the suffix above it.  Collection moves g
left through s, and every correction lands strictly later, so s * g
becomes g * phi(s) with phi(s) above pos, and
w * g = h * u_pos(a + v) * phi(s).  Each row of the character table is
additive (it is the trace of c * x), so the defect
chi(w * g) - chi(w) - chi(g) depends on s alone: one form phi(s) per
suffix decides the q^N checks of every generator.

Each form is one small step from another.  A nonzero suffix is
s = s' * u_m(a), with m its top entry and s' its parent, so

    s * g = s' * g * u_m(a) * C = g * phi(s') * u_m(a) * C,

where C is the list of factors of [u_m(a), g].  So phi(s) is one
collection of u_m(a) * C onto phi(s'), and chi(s) = chi(s') +
chi(u_m(a)) is carried along.  The parent has the smaller code, so the
sweep reaches it first; suffix 0 needs no collection, so a full sweep
takes q^N - 1 - N * (q - 1) in all.  The count of checks is still
taken in (pos, v, code) order up to and including the first failure,
so a homomorphism reports N * (q - 1) * q^N, and the witness is the
least coset with the first failing suffix, code s * q^(pos + 1).

The pairs mode rests on the same induction: every pair check is a sum
of generator checks, so a character that passes the sweep passes all
q^(2N) pairs.  One that fails has a failing pair, a failing generator
check being one, and the pairs are walked in (code1, code2) order up to
the first.  With m the top entry of w2 = w2' * u_m(a), the product
w1 * w2 is one collection of u_m(a) onto the kept form of w1 * w2'.  A
Cayley-table loop was never independent of the argument either: it
formed w1 * w2 as ((w1 * t1) * t2) ... * tk over the tokens of w2.
Only the seeded sampling mode multiplies two whole normal forms.

Where the first failure of a block lies is known before the sweep gets
there.  Collecting s * g commutes g or a correction past entries of
s, never two entries of s past each other, so it writes only to the
rows that u_pos reaches: pos, the targets of its commutators, theirs,
and so on.  The entries at t and above form a normal subgroup U_t,
and u_t(x) is central modulo U_(t+1), so entry t of s * g is s_t plus
a function of the entries of s below t.  With additive rows the defect
is then a function of the entries of s below r, the last reached row
on which chi is nonzero: a failing suffix still fails with its entries
from r on set to 0, so the least failing suffix of the block is below
q^(r - 1 - pos).  The sweep takes those low suffixes of every block
first, in block order, and its first failure there is the first
failure overall, however late its block.  A second pass takes the
remaining suffixes, so a homomorphism is still reported only after
every suffix has been collected, and that verdict does not lean on the
argument about r.  Either way a witness is a failing check in its own
right.
"""

from __future__ import annotations

import os
import random
from operator import getitem
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .context import Context

Token = Tuple[int, int]  # (position in the enumeration, field element)


class CosetWord(NamedTuple):
    entries: Tuple[int, ...]

    def tokens(self) -> Tuple[Token, ...]:
        return tuple((p, v) for p, v in enumerate(self.entries) if v)


def identity_word(ctx: Context) -> CosetWord:
    return CosetWord((0,) * ctx.n_roots)


def generator_word(ctx: Context, position: int, value: int) -> CosetWord:
    entries = [0] * ctx.n_roots
    entries[position] = value
    return CosetWord(tuple(entries))


def encode(ctx: Context, word: CosetWord) -> int:
    q = ctx.q
    code = 0
    for v in reversed(word.entries):
        code = code * q + v
    return code


def decode(ctx: Context, code: int) -> CosetWord:
    q = ctx.q
    entries = []
    for _ in range(ctx.n_roots):
        entries.append(code % q)
        code //= q
    return CosetWord(tuple(entries))


def _commutator(ctx: Context, early: int, x: int, late: int, y: int) -> List[Token]:
    """The factors of [u_late(y), u_early(x)], in order; nonzero for units x, y."""
    f = ctx.field
    return [
        (target, f.mul(c, f.mul(f.pow(x, i), f.pow(y, j))))
        for target, i, j, c in ctx.expansion_terms(early, late)
    ]


# tokens taken off the stack in one collection.  A product of two random
# normal forms takes about 4 * 10**6 on E8 at q = 16, so reaching this
# means the rewriting does not terminate.
_STEP_LIMIT = 10**8


def _collect(
    ctx: Context, tokens: Iterable[Token], start: Optional[Sequence[int]] = None
) -> List[int]:
    """Collection from the left: the entries of start * tokens in normal form.

    start is a normal form given by its entries, the identity by
    default.  The tokens are multiplied on one at a time from a stack.
    u_p(v) commutes past the entries above p at the cost of their
    commutator factors, so those entries are taken off, v is added at p,
    and each taken u_t(x) goes back on the stack followed by the factors
    of [u_t(x), u_p(v)].
    """
    f = ctx.field
    entries = [0] * ctx.n_roots if start is None else list(start)
    top = len(entries) - 1  # the highest nonzero entry, -1 for the identity
    while top >= 0 and not entries[top]:
        top -= 1
    stack = list(tokens)
    stack.reverse()
    steps = 0
    while stack:
        p, v = stack.pop()
        if not v:
            continue
        steps += 1
        assert steps < _STEP_LIMIT, "collection failed to terminate"
        if p < top:
            moved: List[Token] = []
            for t in range(p + 1, top + 1):
                x = entries[t]
                if x:
                    entries[t] = 0
                    moved.append((t, x))
                    moved += _commutator(ctx, p, v, t, x)
            moved.reverse()
            stack += moved
            top = p
        elif p > top:
            top = p
        entries[p] = f.add(entries[p], v)
        while top >= 0 and not entries[top]:
            top -= 1
    return entries


def from_tokens(ctx: Context, tokens: Iterable[Token]) -> CosetWord:
    return CosetWord(tuple(_collect(ctx, tokens)))


def multiply(ctx: Context, w1: CosetWord, w2: CosetWord) -> CosetWord:
    return CosetWord(tuple(_collect(ctx, w2.tokens(), w1.entries)))


def evaluate(chi, word: CosetWord) -> int:
    """Value of the character on a normal form, as an exponent mod p."""
    total = 0
    for p, v in enumerate(word.entries):
        if v:
            total += chi.table[p][v]
    return total % chi.context.field.p


def cayley_tables(ctx: Context):
    """Right multiplication by each generator as a permutation of coset codes.

    No runtime path calls it: the tests read it as an oracle, and the
    perfbench tracer wraps it by name.
    """
    if ctx._cayley is None:
        tables = {}
        count = ctx.coset_count()
        base = [decode(ctx, code).entries for code in range(count)]
        for pos in range(ctx.n_roots):
            for val in range(1, ctx.q):
                gen = ((pos, val),)
                col = [
                    encode(ctx, CosetWord(tuple(_collect(ctx, gen, entries))))
                    for entries in base
                ]
                tables[(pos, val)] = tuple(col)
        ctx._cayley = tables
    return ctx._cayley


class VerifyResult(NamedTuple):
    ok: bool
    mode: str
    checked: int
    witness: Optional[Tuple[CosetWord, CosetWord]]

    def __bool__(self) -> bool:
        return self.ok


def _word_values(chi, ctx: Context) -> List[int]:
    p = ctx.field.p
    values = []
    for code in range(ctx.coset_count()):
        values.append(evaluate(chi, decode(ctx, code)))
    assert all(0 <= v < p for v in values)
    return values


def _reach(ctx: Context) -> List[FrozenSet[int]]:
    """The rows that collecting a token at each position can write.

    A token at x writes x; each swap with another token writes the
    targets of their commutator, and those corrections are collected in
    turn.  Only the factors in `Context.relations` are ever written, and
    every target lies after both positions of its pair.
    """
    n = ctx.n_roots
    targets: List[set] = [set() for _ in range(n)]
    for pair, factors in ctx.relations.items():
        for x in pair:
            targets[x].update(t for t, _, _, _ in factors)
    reach: List[FrozenSet[int]] = [frozenset()] * n
    for x in reversed(range(n)):
        reach[x] = frozenset({x}.union(*(reach[t] for t in targets[x])))
    return reach


class _Block:
    """The checks of one generator g = u_pos(val), one suffix s above pos each.

    phi(s) is collected onto the form of the parent s', as the module
    docstring explains.  A parent's top entry is below the last row, so
    its code is below q^(L - 1), with L = N - 1 - pos entries above pos.
    Only those suffixes are kept: phi(s) as L bytes in `forms` and
    chi(s) in `chis`, both in code order.
    """

    def __init__(self, chi, pos: int, val: int):
        self.chi, self.pos, self.val = chi, pos, val
        self.width = chi.context.n_roots - 1 - pos
        self.forms = bytearray(self.width)  # suffix 0: s * g = g
        self.chis = bytearray(1 if self.width else 0)

    def sweep(self, tops: range) -> Optional[int]:
        """Check, in code order, the suffixes whose top entry is pos + 1 + k
        for k in tops; the first failing code, or None."""
        chi, pos, val, width = self.chi, self.pos, self.val, self.width
        ctx = chi.context
        q, p = ctx.q, ctx.field.p
        head = bytes(pos) + bytes((val,))
        rows = chi.table[pos + 1 :]
        forms, chis = self.forms, self.chis
        for k in tops:
            m = pos + 1 + k
            keep = k < width - 1
            size = q**k
            for a in range(1, q):
                tokens = [(m, a)] + _commutator(ctx, pos, val, m, a)
                chi_top = chi.table[m][a]
                for parent in range(size):
                    lo = parent * width
                    entries = _collect(ctx, tokens, head + forms[lo : lo + width])
                    above = entries[pos + 1 :]
                    chi_s = (chis[parent] + chi_top) % p
                    if sum(map(getitem, rows, above)) % p != chi_s:
                        return a * size + parent
                    if keep:
                        forms += bytes(above)
                        chis.append(chi_s)
        return None


def _generator_sweep(chi) -> VerifyResult:
    """chi(w * g) = chi(w) + chi(g) for every coset w and generator g.

    One collection per nonzero suffix above pos decides a block of q^N
    checks, each from its parent's collected form.  In every block the
    suffixes below the last nonzero row that u_pos can reach go first,
    then the rest; the module docstring gives both arguments.
    """
    ctx = chi.context
    q, n = ctx.q, ctx.n_roots
    count = ctx.coset_count()
    nonzero = [any(row) for row in chi.table]
    # per pos, how many top entries the low suffixes, those below row r, span
    cuts = [
        max(max((r for r in rows if nonzero[r]), default=pos) - 1 - pos, 0)
        for pos, rows in enumerate(_reach(ctx))
    ]
    blocks = [_Block(chi, pos, val) for pos in range(n) for val in range(1, q)]
    for low in (True, False):
        for k, block in enumerate(blocks):
            pos, cut = block.pos, cuts[block.pos]
            suffix = block.sweep(range(cut) if low else range(cut, block.width))
            if suffix is not None:
                step = q ** (pos + 1)
                checked = k * count + suffix * step + 1
                w = decode(ctx, suffix * step)
                witness = (w, generator_word(ctx, pos, block.val))
                return VerifyResult(False, "generators", checked, witness)
            if not low:
                blocks[k] = None  # its parents are no longer needed
    return VerifyResult(True, "generators", len(blocks) * count, None)


def _pair_sweep(chi) -> VerifyResult:
    """chi(w1 * w2) = chi(w1) + chi(w2) for every pair of cosets.

    The generator sweep decides the verdict; a character that fails it
    is walked pair by pair in (code1, code2) order to its first failing
    pair.  Each w1 * w2 is collected onto the form of w1 * w2', w2' being
    w2 less its top entry, so only the forms of codes below q^(N - 1),
    the parents, are kept, one list per w1.
    """
    ctx = chi.context
    count = ctx.coset_count()
    if _generator_sweep(chi).ok:
        return VerifyResult(True, "pairs", count**2, None)
    q, n, p = ctx.q, ctx.n_roots, ctx.field.p
    values = _word_values(chi, ctx)
    for code1 in range(count):
        forms = [decode(ctx, code1).entries]  # w1 * w2' by code of w2'
        for m in range(n):
            size = q**m
            for a in range(1, q):
                for parent in range(size):
                    entries = _collect(ctx, [(m, a)], forms[parent])
                    code2 = a * size + parent
                    chi_w = sum(map(getitem, chi.table, entries)) % p
                    if chi_w != (values[code1] + values[code2]) % p:
                        witness = (decode(ctx, code1), decode(ctx, code2))
                        checked = code1 * count + code2 + 1
                        return VerifyResult(False, "pairs", checked, witness)
                    if m < n - 1:
                        forms.append(entries)
    raise AssertionError("a failing generator check is a failing pair")


# most cosets (generators mode) or coset pairs (pairs mode) swept exactly
_SWEEP_LIMIT = 2**20


def verify_homomorphism(
    chi,
    mode: str = "auto",
    samples: int = 1000,
    seed: Optional[int] = None,
) -> VerifyResult:
    """Check chi(w1 * w2) = chi(w1) + chi(w2) against the group model.

    Modes: "generators" sweeps every coset against every generator,
    which is exact; "pairs" takes that sweep's verdict, since every pair
    check is a sum of generator checks (a Cayley-table loop composes
    the same checks), and walks the pairs in code order to the
    first failing one; "sample" draws seeded random pairs; "auto" picks
    generators when the coset count is at most 2**20 and falls back to
    sampling.  The two sweeps refuse more than 2**20 cosets or pairs up
    front, before any collection.
    """
    ctx = chi.context
    count = ctx.coset_count()
    if mode == "auto":
        mode = "generators" if count <= _SWEEP_LIMIT else "sample"
    if mode == "sample" and samples < 1:
        raise ValueError(f"sample mode needs at least one sample, got {samples}")

    if mode in ("generators", "pairs"):
        size, unit = (count, "cosets") if mode == "generators" else (count**2, "coset pairs")
        if size > _SWEEP_LIMIT:
            raise ValueError(
                f"{mode} mode would sweep {size} {unit}, above the limit of"
                f" {_SWEEP_LIMIT}; use --mode sample"
            )
        if mode == "generators":
            return _generator_sweep(chi)
        return _pair_sweep(chi)

    if mode == "sample":
        if seed is None:
            seed = int(os.environ.get("SHALLOW_CHARS_SEED", "0"))
        rng = random.Random(seed)
        p = ctx.field.p
        for k in range(samples):
            w1 = decode(ctx, rng.randrange(count))
            w2 = decode(ctx, rng.randrange(count))
            lhs = evaluate(chi, multiply(ctx, w1, w2))
            rhs = (evaluate(chi, w1) + evaluate(chi, w2)) % p
            if lhs != rhs:
                return VerifyResult(False, mode, k + 1, (w1, w2))
        return VerifyResult(True, mode, samples, None)

    raise ValueError(f"unknown mode {mode!r}")
