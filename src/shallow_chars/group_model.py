"""Cosets of the depth-one subgroup inside the pro-unipotent radical.

A coset has a unique normal form: one parameter per shallow root, taken
in enumeration order.  Products are computed by bubble sort on the
generator tokens; each adjacent swap emits the commutator correction
terms supplied by the context, and every correction lands strictly
later in the enumeration, so the rewriting terminates.

Verification of a character against this multiplication has three
levels.  Checking chi(w * g) = chi(w) + chi(g) over every coset w and
every generator g is already exact: induction on the token length of
the right factor extends the identity to arbitrary pairs.  The
exhaustive pairs mode and the seeded sampling mode exist to exercise
the same claim without leaning on that argument.
"""

from __future__ import annotations

import os
import random
from typing import Iterable, List, NamedTuple, Optional, Tuple

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


def _collect(ctx: Context, tokens: Iterable[Token]) -> List[Token]:
    f = ctx.field
    toks = [t for t in tokens if t[1]]
    steps = 0
    while True:
        merged: List[Token] = []
        for p, v in toks:
            if merged and merged[-1][0] == p:
                s = f.add(merged[-1][1], v)
                if s:
                    merged[-1] = (p, s)
                else:
                    merged.pop()
            else:
                merged.append((p, v))
        toks = merged
        k = next(
            (k for k in range(len(toks) - 1) if toks[k][0] > toks[k + 1][0]), None
        )
        if k is None:
            return toks
        p1, v1 = toks[k]
        p2, v2 = toks[k + 1]
        corrections: List[Token] = []
        for pos, i, j, c in ctx.expansion_terms(p2, p1):
            val = f.mul(f.from_int(c), f.mul(f.pow(v2, i), f.pow(v1, j)))
            if val:
                corrections.append((pos, val))
        toks[k : k + 2] = [(p2, v2), (p1, v1)] + corrections
        steps += 1
        assert steps < 100_000, "collection failed to terminate"


def from_tokens(ctx: Context, tokens: Iterable[Token]) -> CosetWord:
    entries = [0] * ctx.n_roots
    for p, v in _collect(ctx, tokens):
        assert entries[p] == 0
        entries[p] = v
    return CosetWord(tuple(entries))


def multiply(ctx: Context, w1: CosetWord, w2: CosetWord) -> CosetWord:
    return from_tokens(ctx, w1.tokens() + w2.tokens())


def evaluate(chi, word: CosetWord) -> int:
    """Value of the character on a normal form, as an exponent mod p."""
    total = 0
    for p, v in enumerate(word.entries):
        if v:
            total += chi.table[p][v]
    return total % chi.context.field.p


def cayley_tables(ctx: Context):
    """Right multiplication by each generator as a permutation of coset codes."""
    if ctx._cayley is None:
        tables = {}
        count = ctx.coset_count()
        base = [decode(ctx, code).tokens() for code in range(count)]
        for pos in range(ctx.n_roots):
            for val in range(1, ctx.q):
                col = [
                    encode(ctx, from_tokens(ctx, toks + ((pos, val),)))
                    for toks in base
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
    which is exact; "pairs" sweeps every pair of cosets; "sample" draws
    seeded random pairs; "auto" picks generators when the coset count
    is at most 2**20 and falls back to sampling.  The two sweeps refuse
    more than 2**20 cosets or pairs up front, before building any table.
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
        tables = cayley_tables(ctx)
        values = _word_values(chi, ctx)
        p = ctx.field.p
        checked = 0
        if mode == "generators":
            for (pos, val), col in sorted(tables.items()):
                gen_value = chi.table[pos][val]
                for code in range(count):
                    checked += 1
                    if values[col[code]] != (values[code] + gen_value) % p:
                        return VerifyResult(
                            False,
                            mode,
                            checked,
                            (decode(ctx, code), generator_word(ctx, pos, val)),
                        )
            return VerifyResult(True, mode, checked, None)
        checked = 0
        for code1 in range(count):
            w1 = decode(ctx, code1)
            for code2 in range(count):
                code = code1
                for tok in decode(ctx, code2).tokens():
                    code = tables[tok][code]
                checked += 1
                if values[code] != (values[code1] + values[code2]) % p:
                    return VerifyResult(
                        False, mode, checked, (w1, decode(ctx, code2))
                    )
        return VerifyResult(True, mode, checked, None)

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
