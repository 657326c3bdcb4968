import random

import pytest

import sp4_oracle
from shallow_chars.affine_roots import barycenter
from shallow_chars.characters import ShallowCharacter
from shallow_chars.context import Context
from shallow_chars.group_model import (
    cayley_tables,
    decode,
    encode,
    evaluate,
    from_tokens,
    generator_word,
    identity_word,
    multiply,
    verify_homomorphism,
)

from conftest import SP4_PARAMS


def test_encode_decode_roundtrip(c2_ctx):
    count = c2_ctx.coset_count()
    assert count == 256
    seen = set()
    for code in range(count):
        word = decode(c2_ctx, code)
        assert encode(c2_ctx, word) == code
        seen.add(word)
    assert len(seen) == count


def test_identity_and_generators(c2_ctx):
    e = identity_word(c2_ctx)
    assert encode(c2_ctx, e) == 0 and e.tokens() == ()
    g = generator_word(c2_ctx, 3, 1)
    assert g.tokens() == ((3, 1),)
    assert multiply(c2_ctx, e, g) == g
    assert multiply(c2_ctx, g, e) == g
    # order two at q = 2: the root groups are elementary abelian
    assert multiply(c2_ctx, g, g) == e
    assert from_tokens(c2_ctx, ((3, 1), (3, 1))) == e


def test_tokens_collect_out_of_order(c2_ctx):
    # u_4 u_2 = u_2 u_4 (commutator lands at depth >= 1): same normal form
    assert from_tokens(c2_ctx, ((4, 1), (2, 1))) == from_tokens(
        c2_ctx, ((2, 1), (4, 1))
    )
    # u_2 u_1 picks up the corrections of the swap
    w = from_tokens(c2_ctx, ((2, 1), (1, 1)))
    assert w.entries[1] == 1 and w.entries[2] == 1
    assert w != from_tokens(c2_ctx, ((1, 1), (2, 1)))


def test_oracle_generators_are_symplectic(c2_ctx):
    omega = sp4_oracle.OMEGA
    for alpha in c2_ctx.roots:
        g = sp4_oracle.root_element(alpha.gradient, alpha.level, 1)
        gt = sp4_oracle.transpose(g)
        assert sp4_oracle.mat_mul(sp4_oracle.mat_mul(gt, omega), g) == omega


def test_oracle_separates_all_cosets(c2_ctx):
    reps = {
        sp4_oracle.canonical(sp4_oracle.embed(c2_ctx, decode(c2_ctx, code)))
        for code in range(c2_ctx.coset_count())
    }
    assert len(reps) == c2_ctx.coset_count()


def test_multiplication_matches_oracle(c2_ctx):
    rng = random.Random(11)
    count = c2_ctx.coset_count()
    for _ in range(300):
        w1 = decode(c2_ctx, rng.randrange(count))
        w2 = decode(c2_ctx, rng.randrange(count))
        product = sp4_oracle.embed(c2_ctx, multiply(c2_ctx, w1, w2))
        direct = sp4_oracle.mat_mul(
            sp4_oracle.embed(c2_ctx, w1), sp4_oracle.embed(c2_ctx, w2)
        )
        assert sp4_oracle.same_coset(product, direct)


def test_multiplication_associative(c2_ctx):
    rng = random.Random(3)
    count = c2_ctx.coset_count()
    for _ in range(300):
        w1, w2, w3 = (decode(c2_ctx, rng.randrange(count)) for _ in range(3))
        left = multiply(c2_ctx, multiply(c2_ctx, w1, w2), w3)
        right = multiply(c2_ctx, w1, multiply(c2_ctx, w2, w3))
        assert left == right


def test_cayley_tables_are_permutations(c2_ctx):
    tables = cayley_tables(c2_ctx)
    count = c2_ctx.coset_count()
    assert set(tables) == {(pos, 1) for pos in range(c2_ctx.n_roots)}
    for col in tables.values():
        assert sorted(col) == list(range(count))
    assert cayley_tables(c2_ctx) is tables  # cached on the context


def test_verify_modes_agree_on_valid(sp4_example):
    for mode in ("generators", "pairs", "sample", "auto"):
        res = verify_homomorphism(sp4_example, mode=mode)
        assert res.ok and res.witness is None
        assert res.checked > 0
    assert verify_homomorphism(sp4_example, mode="auto").mode == "generators"


def test_verify_catches_bad_character(c2_ctx, sp4_example):
    bad_params = dict(SP4_PARAMS)
    # clearing a1+a2 while keeping 2a1+a2 breaks the commutator relation
    bad_params[c2_ctx.roots[4]] = 0
    bad = ShallowCharacter(c2_ctx, bad_params)
    for mode in ("generators", "pairs"):
        res = verify_homomorphism(bad, mode=mode)
        assert not res.ok
        w1, w2 = res.witness
        lhs = evaluate(bad, multiply(c2_ctx, w1, w2))
        rhs = (evaluate(bad, w1) + evaluate(bad, w2)) % c2_ctx.field.p
        assert lhs != rhs
    res = verify_homomorphism(bad, mode="sample", samples=4000, seed=5)
    assert not res.ok


def test_sample_mode_seeding(sp4_example, monkeypatch):
    a = verify_homomorphism(sp4_example, mode="sample", samples=50, seed=9)
    b = verify_homomorphism(sp4_example, mode="sample", samples=50, seed=9)
    assert a == b
    monkeypatch.setenv("SHALLOW_CHARS_SEED", "9")
    c = verify_homomorphism(sp4_example, mode="sample", samples=50)
    assert c == a


def test_unknown_mode_rejected(sp4_example):
    with pytest.raises(ValueError):
        verify_homomorphism(sp4_example, mode="exhaustive")


def test_evaluate_reads_the_table(sp4_example, c2_ctx):
    word = generator_word(c2_ctx, 0, 1)
    assert evaluate(sp4_example, word) == 1  # c = 1 on a0 at q = 2
    assert evaluate(sp4_example, identity_word(c2_ctx)) == 0


def test_oversized_sweeps_refused_before_tables(c2):
    ctx = Context(c2, barycenter(c2), q=7)
    chi = ShallowCharacter.from_vector(ctx, (1,) * ctx.n_roots)
    for mode, size in (("generators", 7**8), ("pairs", 7**16)):
        with pytest.raises(ValueError, match=f"sweep {size} "):
            verify_homomorphism(chi, mode=mode)
    assert ctx._cayley is None
    assert verify_homomorphism(chi, mode="auto", samples=5).mode == "sample"
