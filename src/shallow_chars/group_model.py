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

where C is the list of factors of [u_m(a), g].  `_parent_walk` takes
the suffixes in code order, parents first, and collects each form
F(s) = F(s') * step onto its parent's, carrying chi(s) = chi(s') +
chi(u_m(a)); only the parents' forms are kept.  Here F(0) = g and the
step is u_m(a) * C, so F(s) = s * g, and suffix 0 needs no collection.
The count of checks is taken in (pos, v, code) order up to and
including the first failure, so a homomorphism reports
N * (q - 1) * q^N, and the witness is the least coset with the first
failing suffix, code s * q^(pos + 1).

The pairs mode rests on the same induction: every pair check is a sum
of generator checks, so a character that passes the sweep passes all
q^(2N) pairs.  One that fails has a failing pair, found in (code1,
code2) order by one walk per w1, from F(0) = w1 with step u_m(a), so
that F(w2) = w1 * w2.

The pairs walks and the sampling mode read only the rows that chi
reads.  Let r be the last row on which chi is nonzero.  The entries
above r form the normal subgroup U_(r+1), so the entries up to r of
w1 * w2 depend only on those of w1 and w2, and as u_r is central modulo
U_(r+1), entry r is w1_r + w2_r plus a function of the entries below r.
So the defect chi(w1 * w2) - chi(w1) - chi(w2) reads only the entries
below r.  Each pairs walk stops after the q^r - 1 suffixes w2 with no
entry from r on: a failing w2 still fails once those entries are set to
0, and its code gets smaller, so the first failing pair and its count
stay the same.  Every product is taken modulo U_(r+1), as `_collect`
drops each token past the end of the form it starts from: the walks
start from w1 cut after row r, and the seeded sampling mode multiplies
the forms it draws cut there, and keeps the whole pair as its witness.

A block needs only its low suffixes.  Collecting s * g commutes g or a
correction past entries of s, never two entries of s past each other,
so it writes only to the rows that u_pos reaches: pos, the targets of
its commutators, theirs, and so on.  The entries at t and above form a
normal subgroup U_t, and u_t(x) is central modulo U_(t+1) (Moy-Prasad,
Invent. Math. 116, 1994), so entry t of s * g is s_t + f_t(s_<t), with
f_t a function of the entries of s below t.  With additive rows the
defect is the sum of chi_t(f_t(s_<t)) over the reached rows t up to r,
the last reached row on which chi is nonzero, so it reads only the
entries of s below r.  The suffixes below q^(r - 1 - pos) meet every
value it takes, and a failing suffix still fails, with a smaller code,
once its entries from r on are set to 0.  So the sweep walks only those
low suffixes, from g cut after row r, q^cut - 1 collections for a block
that spans cut entries below r, and (q - 1) * (q^cut_pos - 1) summed
over pos in all: its verdict, and not only its first witness, rests on
this argument.  The first failure among them, in block order, is the
first failure of the whole sweep.  The tests' `table_sweep` and
`table_pairs` read every check off materialised Cayley tables as oracles.
"""

from __future__ import annotations

import random
from itertools import islice
from operator import getitem
from typing import Callable, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .context import Context

Token = Tuple[int, int]  # (position in the enumeration, field element)
Form = Tuple[int, ...]  # a normal form: its entries, one per shallow root


def generator_word(ctx: Context, position: int, value: int) -> Form:
    entries = [0] * ctx.n_roots
    entries[position] = value
    return tuple(entries)


def encode(ctx: Context, form: Sequence[int]) -> int:
    q = ctx.q
    code = 0
    for v in reversed(form):
        code = code * q + v
    return code


def decode(ctx: Context, code: int, length: Optional[int] = None) -> Form:
    """The form of a code, cut after its first length entries (all by default)."""
    q = ctx.q
    entries = []
    for _ in range(ctx.n_roots if length is None else length):
        entries.append(code % q)
        code //= q
    return tuple(entries)


def _commutator(ctx: Context, early: int, x: int, late: int, y: int) -> List[Token]:
    """The factors of [u_late(y), u_early(x)], in order; nonzero for units x, y."""
    f = ctx.field
    return [
        (target, f.mul(c, f.mul(f.pow(x, i), f.pow(y, j))))
        for target, i, j, c in ctx.relations.get((early, late), ())
    ]


# tokens taken off the stack in one collection: about 4 * 10**6 for two
# random whole normal forms on E8 at q = 16, at most 45 for the same forms
# cut after row 8, so reaching this means the rewriting does not terminate.
_STEP_LIMIT = 10**8


def _collect(ctx: Context, tokens: Iterable[Token], start: Sequence[int]) -> List[int]:
    """Collection from the left: the entries of start * tokens in normal form.

    start is a normal form given by its entries.  The tokens are
    multiplied on one at a time from a stack.  u_p(v) commutes past the
    entries above p at the cost of their commutator factors, so those
    entries are taken off, v is added at p, and each taken u_t(x) goes
    back on the stack followed by the factors of [u_t(x), u_p(v)].  The
    product is taken modulo the normal subgroup U_cut, cut = len(start):
    a token at p >= cut, given or a commutator factor, is dropped, as
    x * n * y = x * y * (y^-1 n y) for n in U_cut.
    """
    f = ctx.field
    entries = list(start)
    cut = len(entries)
    top = cut - 1  # the highest nonzero entry, -1 for the identity
    while top >= 0 and not entries[top]:
        top -= 1
    stack = list(tokens)
    stack.reverse()
    steps = 0
    while stack:
        p, v = stack.pop()
        if not v or p >= cut:
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


def evaluate(chi, form: Sequence[int]) -> int:
    """Value of the character on a normal form, as an exponent mod p."""
    return sum(map(getitem, chi.table, form)) % chi.context.field.p


def cayley_tables(ctx: Context):
    """Right multiplication by each generator as a permutation of coset codes.

    No runtime path calls it: the tests read it as an oracle, and the
    perfbench tracer wraps it by name.
    """
    if ctx._cayley is None:
        tables = {}
        count = ctx.coset_count()
        base = [decode(ctx, code) for code in range(count)]
        for pos in range(ctx.n_roots):
            for val in range(1, ctx.q):
                gen = ((pos, val),)
                col = [encode(ctx, _collect(ctx, gen, form)) for form in base]
                tables[(pos, val)] = tuple(col)
        ctx._cayley = tables
    return ctx._cayley


class VerifyResult(NamedTuple):
    ok: bool
    mode: str
    checked: int
    witness: Optional[Tuple[Form, Form]]

    def __bool__(self) -> bool:
        return self.ok


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


def _parent_walk(
    chi, start: Sequence[int], lo: int, step: Callable[[int, int], List[Token]]
) -> Iterator[Tuple[int, int, List[int]]]:
    """(code of s, chi(s) mod p, F(s)) for each nonzero suffix s above lo.

    The suffixes come in code order, the code counting entries from
    lo + 1.  F(0) = start and F(s) = F(s') * step(m, a), collected modulo
    U_n, n = len(start), where s = s' * u_m(a) with m the top entry of s.
    A parent's top entry is below row n - 1, so its code is below
    q^(L - 1), with L = n - 1 - lo entries above lo.  Only those forms
    are kept, as n bytes each in `forms`, with chi(s') in `chis`.
    """
    ctx = chi.context
    q, n, p = ctx.q, len(start), ctx.field.p
    width = n - 1 - lo
    forms, chis = bytearray(start), bytearray(1)
    for k in range(width):
        m, size = lo + 1 + k, q**k
        for a in range(1, q):
            tokens, chi_top = step(m, a), chi.table[m][a]
            for parent in range(size):
                entries = _collect(ctx, tokens, forms[parent * n : (parent + 1) * n])
                chi_s = (chis[parent] + chi_top) % p
                if k < width - 1:
                    forms += bytes(entries)
                    chis.append(chi_s)
                yield a * size + parent, chi_s, entries


def _last_row(chi) -> int:
    """The last position at which chi is nonzero, -1 for the trivial character."""
    return max((t for t, c in enumerate(chi.vector) if c), default=-1)


def _first_failure(chi, walk, shift: int) -> Optional[int]:
    """The first code of the walk whose form F has chi(F) != chi(s) + shift, or None."""
    p = chi.context.field.p
    for code, chi_s, entries in walk:
        if sum(map(getitem, chi.table, entries)) % p != (chi_s + shift) % p:
            return code
    return None


def _generator_sweep(chi) -> VerifyResult:
    """chi(w * g) = chi(w) + chi(g) for every coset w and generator g.

    One collection per nonzero low suffix decides a block of q^N checks:
    the walk from g cut after r, the last nonzero row that u_pos can
    reach, whose step is u_m(a) * [u_m(a), g], over the suffixes below
    row r, collected modulo U_(r+1).  They meet every value of the
    defect, so the verdict rests on the module docstring's argument;
    `table_sweep` in the tests is its oracle.
    """
    ctx = chi.context
    q, n, count = ctx.q, ctx.n_roots, ctx.coset_count()
    reach, nonzero = _reach(ctx), {t for t, c in enumerate(chi.vector) if c}
    blocks = [(pos, val) for pos in range(n) for val in range(1, q)]
    for k, (pos, val) in enumerate(blocks):
        def step(m: int, a: int) -> List[Token]:
            return [(m, a)] + _commutator(ctx, pos, val, m, a)

        last = max(reach[pos] & nonzero, default=pos)
        walk = _parent_walk(chi, generator_word(ctx, pos, val)[: last + 1], pos, step)
        low = q ** max(last - 1 - pos, 0) - 1
        suffix = _first_failure(chi, islice(walk, low), chi.table[pos][val])
        if suffix is not None:
            stride = q ** (pos + 1)
            checked = k * count + suffix * stride + 1
            witness = (decode(ctx, suffix * stride), generator_word(ctx, pos, val))
            return VerifyResult(False, "generators", checked, witness)
    return VerifyResult(True, "generators", len(blocks) * count, None)


def _pair_sweep(chi) -> VerifyResult:
    """chi(w1 * w2) = chi(w1) + chi(w2) for every pair of cosets.

    The generator sweep decides the verdict; a character that fails it
    is walked pair by pair in (code1, code2) order to its first failing
    pair, one walk from w1 whose step is u_m(a) for each w1, through the
    suffixes w2 below chi's last nonzero row.
    """
    ctx = chi.context
    count = ctx.coset_count()
    if _generator_sweep(chi).ok:
        return VerifyResult(True, "pairs", count**2, None)
    r = _last_row(chi)
    for code1 in range(count):
        w1 = decode(ctx, code1)
        walk = _parent_walk(chi, w1[: r + 1], -1, lambda m, a: [(m, a)])
        code2 = _first_failure(chi, islice(walk, ctx.q**r - 1), evaluate(chi, w1))
        if code2 is not None:
            checked = code1 * count + code2 + 1
            return VerifyResult(False, "pairs", checked, (w1, decode(ctx, code2)))
    raise AssertionError("a failing generator check is a failing pair")


# most cosets (generators mode) or coset pairs (pairs mode) swept exactly
_SWEEP_LIMIT = 2**20


def verify_homomorphism(
    chi,
    mode: str = "auto",
    samples: int = 1000,
    seed: int = 0,
) -> VerifyResult:
    """Check chi(w1 * w2) = chi(w1) + chi(w2) against the group model.

    Modes: "generators" decides every coset against every generator
    from the low suffixes of each block, exactly by the argument in the
    module docstring; "pairs" takes that verdict, since every pair check
    is a sum of generator checks, and walks the pairs in code order to
    the first failing one.  `table_sweep` and `table_pairs` in the tests
    are the oracles of both.  "sample" draws pairs from
    random.Random(seed), the same on every call with the same arguments,
    and multiplies them cut after chi's last nonzero row r, modulo U_(r+1);
    "auto" picks generators when the coset count is at most 2**20 and
    falls back to sampling.  The two sweeps refuse more than 2**20
    cosets or pairs up front, before any collection.
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
        rng = random.Random(seed)
        p, r = ctx.field.p, _last_row(chi)
        for k in range(samples):
            code1, code2 = rng.randrange(count), rng.randrange(count)
            # chi is zero past row r, so only the heads up to r are decoded
            h1, h2 = decode(ctx, code1, r + 1), decode(ctx, code2, r + 1)
            lhs = evaluate(chi, _collect(ctx, [(t, v) for t, v in enumerate(h2) if v], h1))
            rhs = (evaluate(chi, h1) + evaluate(chi, h2)) % p
            if lhs != rhs:
                return VerifyResult(False, mode, k + 1, (decode(ctx, code1), decode(ctx, code2)))
        return VerifyResult(True, mode, samples, None)

    raise ValueError(f"unknown mode {mode!r}")
