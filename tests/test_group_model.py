import random

import pytest

import sp4_oracle
from collection_oracle import bubble_collect
from shallow_chars import group_model
from shallow_chars.affine_roots import barycenter, facet_point
from shallow_chars.characters import ShallowCharacter, solve_space, validate
from shallow_chars.context import Context
from shallow_chars.group_model import (
    CosetWord,
    VerifyResult,
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
from shallow_chars.root_system import build_root_system

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


def _assert_associative(ctx, rng, trials):
    count = ctx.coset_count()
    for _ in range(trials):
        w1, w2, w3 = (decode(ctx, rng.randrange(count)) for _ in range(3))
        left = multiply(ctx, multiply(ctx, w1, w2), w3)
        right = multiply(ctx, w1, multiply(ctx, w2, w3))
        assert left == right


def test_multiplication_associative(c2_ctx):
    _assert_associative(c2_ctx, random.Random(3), 300)


@pytest.mark.parametrize("cartan_type, q", [("G2", 3), ("A2", 4)])
def test_multiplication_associative_beyond_c2(cartan_type, q):
    _assert_associative(_context(cartan_type, q), random.Random(cartan_type), 100)


# (type, q, facet) for the collector against bubble sort
COLLECT_MATRIX = [
    *(("A2", q, None) for q in (2, 3, 4, 8, 9)),
    *(("C2", q, None) for q in (2, 3, 5)),
    ("G2", 2, None), ("G2", 3, None),
    *((t, 2, None) for t in ("A3", "B3", "C3", "D4", "F4")),
    ("C2", 3, {1}), ("G2", 3, {1, 2}),
]


def _random_word(ctx, rng):
    """Tokens in any order, with repeated positions and cancelling runs."""
    n, f = ctx.n_roots, ctx.field
    length = rng.randrange(3 * n)
    word = [(rng.randrange(n), rng.randrange(ctx.q)) for _ in range(length)]
    if word and rng.random() < 0.5:
        word += [(t, f.neg(v)) for t, v in reversed(word[-3:])]
    if word and rng.random() < 0.5:
        t = rng.choice(word)[0]
        word.insert(rng.randrange(len(word)), (t, rng.randrange(1, ctx.q)))
    return word


@pytest.mark.parametrize("cartan_type, q, facet", COLLECT_MATRIX)
def test_collect_matches_bubble_collect(cartan_type, q, facet):
    ctx = _context(cartan_type, q, facet)
    rng = random.Random(f"{cartan_type}{q}{facet}")
    for _ in range(270):
        word = _random_word(ctx, rng)
        want = tuple(bubble_collect(ctx, word))
        assert from_tokens(ctx, word).tokens() == want, word
        # the same product collected onto the normal form of a prefix
        cut = rng.randrange(len(word) + 1)
        start = from_tokens(ctx, word[:cut]).entries
        got = group_model._collect(ctx, word[cut:], start)
        assert CosetWord(tuple(got)).tokens() == want, (word, cut)


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


def _word_values(chi, ctx):
    """chi of every coset, by code, for the table oracles."""
    values = [evaluate(chi, decode(ctx, code)) for code in range(ctx.coset_count())]
    assert all(0 <= v < ctx.field.p for v in values)
    return values


def table_sweep(chi):
    """Oracle: the generators sweep read off materialised Cayley tables.

    Every coset against every generator, in (pos, val, code) order,
    with one collection per table entry.
    """
    ctx = chi.context
    tables = cayley_tables(ctx)
    values = _word_values(chi, ctx)
    p = ctx.field.p
    checked = 0
    for (pos, val), col in sorted(tables.items()):
        gen_value = chi.table[pos][val]
        for code in range(ctx.coset_count()):
            checked += 1
            if values[col[code]] != (values[code] + gen_value) % p:
                witness = (decode(ctx, code), generator_word(ctx, pos, val))
                return VerifyResult(False, "generators", checked, witness)
    return VerifyResult(True, "generators", checked, None)


def table_pairs(chi):
    """Oracle: the pairs sweep read off materialised Cayley tables.

    Every pair of cosets in (code1, code2) order, the product of w1 and
    w2 taken as w1 times the tokens of w2, one table lookup each.
    """
    ctx = chi.context
    count = ctx.coset_count()
    tables = cayley_tables(ctx)
    values = _word_values(chi, ctx)
    p = ctx.field.p
    checked = 0
    for code1 in range(count):
        w1 = decode(ctx, code1)
        for code2 in range(count):
            code = code1
            for tok in decode(ctx, code2).tokens():
                code = tables[tok][code]
            checked += 1
            if values[code] != (values[code1] + values[code2]) % p:
                return VerifyResult(False, "pairs", checked, (w1, decode(ctx, code2)))
    return VerifyResult(True, "pairs", checked, None)


def _context(cartan_type, q, facet=None):
    rs = build_root_system(cartan_type)
    point = barycenter(rs) if facet is None else facet_point(rs, facet)
    return Context(rs, point, q=q)


def _basis_sum(ctx, basis, rng):
    """A random F_p-combination of solver basis vectors, so valid."""
    f = ctx.field
    vec = [0] * ctx.n_roots
    for chi in basis:
        scale = f.from_int(rng.randrange(f.p))
        for t, c in enumerate(chi.vector):
            vec[t] = f.add(vec[t], f.mul(scale, c))
    return vec


def _sample_characters(ctx, rng, valid, broken, random_):
    """Valid basis sums, the same with one entry shifted, and uniform vectors."""
    basis = solve_space(ctx, cross_check=False).basis
    vecs = [_basis_sum(ctx, basis, rng) for _ in range(valid)]
    for _ in range(broken):
        vec = _basis_sum(ctx, basis, rng)
        t = rng.randrange(ctx.n_roots)
        vec[t] = ctx.field.add(vec[t], rng.randrange(1, ctx.q))
        vecs.append(vec)
    vecs += [[rng.randrange(ctx.q) for _ in range(ctx.n_roots)] for _ in range(random_)]
    return [ShallowCharacter.from_vector(ctx, v) for v in vecs]


# (type, q, facet): the barycenter unless a facet is given
SWEEP_MATRIX = [
    ("A2", 2, None), ("A2", 3, None), ("A2", 4, None), ("C2", 2, None),
    ("C2", 3, None), ("G2", 2, None), ("A3", 2, None),
    ("C2", 3, {1}), ("G2", 3, {1}),
]


def test_generator_sweep_matches_table_sweep():
    rng = random.Random(7)
    late_witnesses = 0
    for cartan_type, q, facet in SWEEP_MATRIX:
        ctx = _context(cartan_type, q, facet)
        for chi in _sample_characters(ctx, rng, valid=1, broken=3, random_=3):
            want = table_sweep(chi)
            assert verify_homomorphism(chi, mode="generators") == want, (ctx, chi)
            if want.witness is not None:
                late_witnesses += any(want.witness[1].entries[1:])
            else:
                assert want.checked == ctx.n_roots * (q - 1) * ctx.coset_count()
    assert late_witnesses >= 3  # failures past the first generator block


def _last_reached_rows(chi):
    """Per pos, the last nonzero row of chi that u_pos reaches, else pos."""
    reach = group_model._reach(chi.context)
    return [max((t for t in rows if any(chi.table[t])), default=pos)
            for pos, rows in enumerate(reach)]


def _low_suffix_collections(chi):
    """(q - 1) * (q^cut - 1) summed over pos: the collections of a valid
    generators sweep, with cut the entries of the suffix below the last
    nonzero row of chi that u_pos reaches."""
    q = chi.context.q
    return sum((q - 1) * (q ** max(r - 1 - pos, 0) - 1)
               for pos, r in enumerate(_last_reached_rows(chi)))


def test_generator_sweep_collects_once_per_suffix(monkeypatch):
    ctx = _context("C2", 2)
    n = ctx.n_roots
    chi = ShallowCharacter(ctx, SP4_PARAMS)  # the worked example
    calls = []
    collect = group_model._collect

    def counting(*args):
        calls.append(None)
        return collect(*args)

    walk = group_model._parent_walk
    kept = {}  # (lo, val): (forms, chis) of each walk, read at its last item

    def recorded(chi, start, lo, step):
        inner = walk(chi, start, lo, step)
        for item in inner:
            state = inner.gi_frame.f_locals
            kept[lo, start[lo]] = (len(state["forms"]), len(state["chis"]))
            yield item

    monkeypatch.setattr(group_model, "_collect", counting)
    monkeypatch.setattr(group_model, "_parent_walk", recorded)
    res = verify_homomorphism(chi, mode="generators")
    assert res.ok and res.checked == n * 2**n
    # cuts [5, 5, 4, 0, 0, 0, 0, 0]: one collection per nonzero low
    # suffix, against 2**8 - 1 - 8 = 247 for every suffix
    assert len(calls) == _low_suffix_collections(chi) == 31 + 31 + 15
    assert ctx._cayley is None
    # parents only, codes below q^(last - 1 - lo), all met, with last the
    # block's last reached nonzero row; each is collected modulo
    # U_(last + 1) and kept as last + 1 bytes, and the blocks whose cut is
    # 0 walk nothing
    assert sorted(kept) == [(0, 1), (1, 1), (2, 1)]
    lasts = _last_reached_rows(chi)
    for (lo, _), (forms, chis) in kept.items():
        assert chis == 2 ** (lasts[lo] - 1 - lo)
        assert forms == chis * (lasts[lo] + 1)


def _walk_to_the_end(walk, q, width, n):
    """Every item of a walk over width entries, in code order.  The
    parents it keeps, codes below q^(width - 1), are read from the
    generator while it is suspended at its last item."""
    items = [next(walk) for _ in range(1, q**width)]
    state = walk.gi_frame.f_locals
    assert len(state["chis"]) == q ** (width - 1)
    assert len(state["forms"]) == n * len(state["chis"])
    assert next(walk, None) is None
    assert [code for code, _, _ in items] == list(range(1, q**width))
    return items


def _normal_form(ctx, tokens):
    entries = [0] * ctx.n_roots
    for t, v in bubble_collect(ctx, tokens):
        entries[t] = v
    return entries


@pytest.mark.parametrize("cartan_type, q", [("C2", 3), ("G2", 2)])
def test_parent_walk_matches_bubble_collect(cartan_type, q):
    """Every yielded form is the collected product, built from its
    parent's, and the carried chi(s) is chi of the suffix: s * g for the
    generator step, w1 * w2 for the pairs step."""
    ctx = _context(cartan_type, q)
    n = ctx.n_roots
    chi = _sample_characters(ctx, random.Random(2), valid=1, broken=0, random_=0)[0]
    for pos in range(n - 1):
        for val in range(1, q):
            def step(m, a):
                return [(m, a)] + group_model._commutator(ctx, pos, val, m, a)

            start = generator_word(ctx, pos, val).entries
            walk = group_model._parent_walk(chi, start, pos, step)
            for code, chi_s, form in _walk_to_the_end(walk, q, n - 1 - pos, n):
                s = decode(ctx, code * q ** (pos + 1))
                assert form == _normal_form(ctx, s.tokens() + ((pos, val),))
                assert form[: pos + 1] == [0] * pos + [val]
                assert chi_s == evaluate(chi, s)
    rng = random.Random(cartan_type)
    for code1 in (ctx.coset_count() - 1, rng.randrange(ctx.coset_count())):
        w1 = decode(ctx, code1)
        walk = group_model._parent_walk(chi, w1.entries, -1, lambda m, a: [(m, a)])
        for code2, chi_w2, form in _walk_to_the_end(walk, q, n, n):
            w2 = decode(ctx, code2)
            assert form == _normal_form(ctx, w1.tokens() + w2.tokens())
            assert chi_w2 == evaluate(chi, w2)


# (type, q, facet, sharp): sharp where clearing entry r - 1 as well
# changes some sampled defect; on A3 and B3 no sampled defect reads it
DEFECT_MATRIX = [
    ("C2", 3, None, True), ("G2", 2, None, True), ("A3", 2, None, False),
    ("B3", 2, None, False), ("G2", 2, {1, 2}, True),
]


@pytest.mark.parametrize("cartan_type, q, facet, sharp", DEFECT_MATRIX)
def test_defect_reads_only_the_suffix_below_its_last_row(cartan_type, q, facet, sharp):
    """The fact the generators sweep's verdict rests on.

    For every block g = u_pos(val) and random suffixes s above pos, the
    defect chi(s * g) - chi(s) - chi(g), collected by bubble sort, is
    unchanged when the entries of s from r on are cleared, r the last
    nonzero row of chi that u_pos reaches.  Where the cut is sharp,
    clearing entry r - 1 as well changes some defect.
    """
    ctx = _context(cartan_type, q, facet)
    n, p = ctx.n_roots, ctx.field.p
    rng = random.Random(f"defect-{cartan_type}{q}{facet}")
    reach = group_model._reach(ctx)
    failing = moved = 0
    for chi in _sample_characters(ctx, rng, valid=1, broken=3, random_=3):
        nonzero = [any(row) for row in chi.table]

        def defect(pos, val, entries):
            s = CosetWord(tuple(entries))
            form = CosetWord(tuple(_normal_form(ctx, s.tokens() + ((pos, val),))))
            return (evaluate(chi, form) - evaluate(chi, s) - chi.table[pos][val]) % p

        for pos in range(n):
            r = max((t for t in reach[pos] if nonzero[t]), default=pos)
            for val in range(1, q):
                for _ in range(12):
                    s = [0] * (pos + 1) + [rng.randrange(q) for _ in range(n - 1 - pos)]
                    low = defect(pos, val, s[:r] + [0] * (n - r))
                    assert defect(pos, val, s) == low, (chi, pos, val, s)
                    failing += low != 0
                    if r > pos + 1:
                        moved += defect(pos, val, s[: r - 1] + [0] * (n - r + 1)) != low
    assert failing > 0
    if sharp:
        assert moved > 0



def whole_sample(chi, samples, seed):
    """Oracle: sample mode multiplying the whole normal forms it draws."""
    ctx = chi.context
    rng, p = random.Random(seed), ctx.field.p
    for k in range(samples):
        w1 = decode(ctx, rng.randrange(ctx.coset_count()))
        w2 = decode(ctx, rng.randrange(ctx.coset_count()))
        if evaluate(chi, multiply(ctx, w1, w2)) != (evaluate(chi, w1) + evaluate(chi, w2)) % p:
            return VerifyResult(False, "sample", k + 1, (w1, w2))
    return VerifyResult(True, "sample", samples, None)


# (q, type) for products of truncated forms against whole ones
TRUNCATION_MATRIX = [
    *((q, t) for q in (2, 3, 4) for t in ("C2", "G2", "B3", "F4")), (2, "E6"), (3, "E6"),
]


@pytest.mark.parametrize("q, cartan_type", TRUNCATION_MATRIX)
def test_truncated_products_agree_up_to_the_cut(q, cartan_type):
    """The entries up to r of w1 * w2 depend only on those of w1 and w2,
    since the entries above r form a normal subgroup U_(r+1).  So the
    product of the forms cut after row r, collected modulo U_(r+1), is
    the whole product cut there, and sample mode, which multiplies the
    forms cut after chi's last nonzero row, gives the verdict, count and
    witness of multiplying the whole forms."""
    ctx = _context(cartan_type, q)
    n = ctx.n_roots
    rng = random.Random(f"cut-{cartan_type}{q}")
    for _ in range(10):
        w1, w2 = (decode(ctx, rng.randrange(ctx.coset_count())) for _ in range(2))
        whole = multiply(ctx, w1, w2).entries
        for r in (-1, *rng.sample(range(n), 3)):
            heads = (CosetWord(w.entries[: r + 1]) for w in (w1, w2))
            assert multiply(ctx, *heads).entries == whole[: r + 1], (w1, w2, r)
    chars = _sample_characters(ctx, rng, valid=1, broken=2, random_=1)
    chars.append(ShallowCharacter.from_vector(ctx, [0] * n))
    failing = 0
    for seed, chi in enumerate(chars):
        want = whole_sample(chi, 30, seed)
        assert verify_homomorphism(chi, mode="sample", samples=30, seed=seed) == want, chi
        failing += not want.ok
    assert failing > 0


def test_e8_sample_mode_ends_with_the_default_samples():
    """The E8 barycenter has 2**240 cosets, so auto picks sample mode.  On
    the sum of the solver's basis, zero above row 8, its 1,000 products
    of truncated forms take well under a second."""
    ctx = _context("E8", 2)
    vec = [0] * ctx.n_roots
    for chi in solve_space(ctx, cross_check=False).basis:
        vec = [ctx.field.add(a, b) for a, b in zip(vec, chi.vector)]
    chi = ShallowCharacter.from_vector(ctx, vec)
    assert verify_homomorphism(chi) == (True, "sample", 1000, None)

# (type, q, facet) for the pairs sweep against the table oracle
PAIRS_MATRIX = [
    ("A1", 2, None), ("A1", 4, None), ("A1", 8, None), ("A2", 2, None),
    ("A2", 3, None), ("C2", 2, None), ("B2", 2, None), ("G2", 2, {1, 2}),
    ("C2", 3, {1}), ("C2", 2, {0, 1}), ("B2", 2, {0, 1}), ("A3", 2, {0, 1}),
]


@pytest.mark.parametrize("cartan_type, q, facet", PAIRS_MATRIX)
def test_pair_sweep_matches_table_pairs(cartan_type, q, facet):
    """Valid, shifted and uniform characters, and characters with one or
    two nonzero entries, whose first failing pair often lies past many
    whole rows of w1.  The oracle takes every pair of a valid character,
    3 to 7 s of table lookups on A2 q=3 and G2 {1,2}, so valid characters
    run against it only up to 2**16 pairs; validate drops them there."""
    ctx = _context(cartan_type, q, facet)
    n = ctx.n_roots
    rng = random.Random(f"{cartan_type}{q}{facet}")
    chars = _sample_characters(ctx, rng, valid=2, broken=3, random_=3)
    for size in (1, 2, 2, 2):
        vec = [0] * n
        for t in rng.sample(range(n), size):
            vec[t] = rng.randrange(1, q)
        chars.append(ShallowCharacter.from_vector(ctx, vec))
    if ctx.coset_count() ** 2 > 2**16:
        chars = [chi for chi in chars if not validate(chi).ok]
    assert chars
    for chi in chars:
        assert verify_homomorphism(chi, mode="pairs") == table_pairs(chi), chi


def test_pair_sweep_builds_no_table(monkeypatch):
    def refuse(ctx):
        raise AssertionError("Cayley tables built")

    monkeypatch.setattr(group_model, "cayley_tables", refuse)
    ctx = _context("C2", 2)
    good = ShallowCharacter(ctx, SP4_PARAMS)
    bad = ShallowCharacter.from_vector(ctx, good.vector[:4] + (0,) + good.vector[5:])
    assert verify_homomorphism(good, mode="pairs") == (True, "pairs", 2**16, None)
    res = verify_homomorphism(bad, mode="pairs")
    assert not res.ok and res.checked > 1
    assert ctx._cayley is None


# the contexts of PAIRS_MATRIX that have characters that are not homomorphisms
NONABELIAN_PAIRS = [
    ("A2", 2, None), ("A2", 3, None), ("C2", 2, None), ("B2", 2, None),
    ("G2", 2, {1, 2}), ("C2", 2, {0, 1}),
]


@pytest.mark.parametrize("cartan_type, q, facet", NONABELIAN_PAIRS)
def test_pair_walks_stop_below_the_last_row(monkeypatch, cartan_type, q, facet):
    """Each pairs walk collects the q^r - 1 suffixes w2 below chi's last
    nonzero row r, and no more.  So once the generator sweep has failed,
    the first failing pair (w1, w2) costs code1 * (q^r - 1) + code2
    collections, and it is the table oracle's.  The cut rests on the
    defect of a pair being unchanged when w2's entries from r on are set
    to 0, checked here on random pairs."""
    ctx = _context(cartan_type, q, facet)
    n, p = ctx.n_roots, ctx.field.p
    rng = random.Random(f"pairs-cut-{cartan_type}{q}{facet}")
    chars = _sample_characters(ctx, rng, valid=0, broken=3, random_=3)
    chars = [chi for chi in chars if not validate(chi).ok]
    assert chars

    def defect(chi, w1, w2):
        return (evaluate(chi, multiply(ctx, w1, w2)) - evaluate(chi, w1) - evaluate(chi, w2)) % p

    calls = []
    collect = group_model._collect

    def counting(*args):
        calls.append(None)
        return collect(*args)

    for chi in chars:
        r = group_model._last_row(chi)
        for _ in range(20):
            w1, w2 = (decode(ctx, rng.randrange(ctx.coset_count())) for _ in range(2))
            low = CosetWord(w2.entries[:r] + (0,) * (n - r))
            assert defect(chi, w1, w2) == defect(chi, w1, low), (chi, w1, w2)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(group_model, "_collect", counting)
            m.setattr(group_model, "_generator_sweep",
                      lambda chi: VerifyResult(False, "generators", 1, None))
            res = verify_homomorphism(chi, mode="pairs")
        assert res == table_pairs(chi), chi
        code1, code2 = (encode(ctx, w) for w in res.witness)
        assert len(calls) == code1 * (q**r - 1) + code2, chi


@pytest.mark.parametrize("cartan_type, q", [("C2", 3), ("A3", 2), ("G2", 2)])
def test_invalid_character_stops_below_its_last_row(monkeypatch, cartan_type, q):
    """Values on the simple affine roots plus one entry at a later row k.

    These are the benchmark's characters: valid without the extra entry,
    invalid with it.  An invalid one fails among the suffixes below row
    k, however late its first failing block, and the table oracle
    confirms that this failure is the first of the whole sweep.
    """
    ctx = _context(cartan_type, q)
    n, simple = ctx.n_roots, ctx.rs.rank + 1  # the simple roots come first
    rng = random.Random(5)
    calls = []
    collect = group_model._collect

    def counting(*args):
        calls.append(None)
        return collect(*args)

    late = 0
    for k in [None, *range(simple, n)]:
        vec = [rng.randrange(1, q) for _ in range(simple)] + [0] * (n - simple)
        if k is not None:
            vec[k] = rng.randrange(1, q)
        chi = ShallowCharacter.from_vector(ctx, vec)
        want = table_sweep(chi)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(group_model, "_collect", counting)
            assert verify_homomorphism(chi, mode="generators") == want, chi
        assert want.ok is (k is None)
        if want.ok:
            assert len(calls) == _low_suffix_collections(chi)
            continue
        assert len(calls) <= n * (q - 1) * q ** (k - 1)
        late += any(want.witness[1].entries[1:]) and len(calls) < (q - 1) * q ** (n - 1)
    assert late >= 1  # a failure past block 0 found before block 0 was swept


@pytest.mark.parametrize(
    "cartan_type, q, facet",
    [
        ("G2", 2, None), ("A3", 2, None), ("C2", 2, {0, 1}), ("A2", 4, None),
        ("B3", 2, None), ("C3", 2, None), ("A2", 8, None),
    ],
)
def test_validate_matches_group_model(cartan_type, q, facet):
    # beyond the prime C2/A2 barycenters of acceptance criterion 4
    ctx = _context(cartan_type, q, facet)
    chars = _sample_characters(ctx, random.Random(cartan_type), valid=3, broken=5, random_=12)
    verdicts = [validate(chi).ok for chi in chars]
    assert verdicts[:3] == [True] * 3 and not all(verdicts)
    for chi, ok in zip(chars, verdicts):
        res = verify_homomorphism(chi, mode="generators")
        assert res.ok == ok, chi
        if ok:
            assert res.checked == ctx.n_roots * (q - 1) * ctx.coset_count()


@pytest.mark.parametrize(
    "cartan_type, q", [("C2", 2), ("C2", 3), ("G2", 2), ("G2", 3), ("A3", 2), ("B3", 2)]
)
def test_reach_covers_every_written_row(cartan_type, q):
    """Collecting u_x(v) onto a normal form changes only rows in _reach[x].

    The sweep orders its suffixes by the last reached row, so a row
    written outside the reach could move a first failure past it.
    """
    ctx = _context(cartan_type, q)
    reach = group_model._reach(ctx)
    rng = random.Random(f"{cartan_type}-{q}")
    widest = 0
    for _ in range(300):
        start = [rng.randrange(q) for _ in range(ctx.n_roots)]
        x, v = rng.randrange(ctx.n_roots), rng.randrange(1, q)
        end = group_model._collect(ctx, [(x, v)], start)
        written = {t for t, (a, b) in enumerate(zip(start, end)) if a != b}
        assert written <= reach[x], (start, x, v)
        widest = max(widest, len(written))
    assert widest > 1  # some token wrote commutator corrections
