import time
from collections import deque

import pytest
from hypothesis import given, strategies as st

from braidedthompson import (BraidWord, Label, LabeledBraid, LabelGroupSpec,
                             Permutation, Spraige, braid_equal, cable,
                             delete_strands, half_twist, is_cyclic, is_pure,
                             is_trivial, permutation_of, shifted,
                             word_from_permutation)
from braidedthompson import braids
from braidedthompson.braids import (_dynnikov, _dynnikov_act, _free_reduce,
                                    _leftweight_pair, _tau)
from braidedthompson.forests import decode
from braidedthompson.labeled import label_equal
from conftest import context_half_twist, forbidden, seeded


def test_permutation_of_identity():
    assert permutation_of(BraidWord(3)).is_identity()


def test_permutation_of_single_crossing():
    assert permutation_of(BraidWord(2, [1])).image == (2, 1)


def test_permutation_of_traced_word():
    # frozen from the position-tracing oracle: strand 1 ends at 3, etc.
    assert permutation_of(BraidWord(3, [1, 2])).image == (3, 1, 2)


def test_permutation_composition():
    rng = seeded("perm-comp")
    for _ in range(100):
        n = rng.randint(2, 6)
        w1 = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                           for _ in range(rng.randint(0, 6))])
        w2 = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                           for _ in range(rng.randint(0, 6))])
        assert permutation_of(w1 * w2) == permutation_of(w1) * permutation_of(w2)


def test_braid_equal_free_cancellation():
    assert braid_equal(BraidWord(2, [1, -1]), BraidWord(2))


def test_braid_equal_braid_relation():
    assert braid_equal(BraidWord(3, [1, 2, 1]), BraidWord(3, [2, 1, 2]))


def test_braid_equal_exponent_sum_obstruction():
    assert not braid_equal(BraidWord(2, [1, 1]), BraidWord(2))


def test_braid_equal_far_commutation():
    assert braid_equal(BraidWord(4, [1, 3]), BraidWord(4, [3, 1]))


def test_braid_equal_strand_mismatch():
    with pytest.raises(ValueError):
        braid_equal(BraidWord(2), BraidWord(3))


def test_braid_equal_is_invariant_under_rewrites():
    # insertion of i -i, the braid relation, far commutation: 200 cases per n
    rng = seeded("rewrites")
    for n in range(2, 7):
        for _ in range(200):
            letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                       for _ in range(rng.randint(0, 8))]
            w = BraidWord(n, letters)
            ls = list(letters)
            for _ in range(3):
                pos = rng.randint(0, len(ls))
                op = rng.randint(0, 2)
                if op == 0:
                    i = rng.randint(1, n - 1)
                    ls[pos:pos] = [i, -i]
                elif op == 1 and n >= 3:
                    i = rng.randint(1, n - 2)
                    ls[pos:pos] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
                elif op == 2 and n >= 4:
                    i = rng.randint(1, n - 3)
                    j = rng.randint(i + 2, n - 1)
                    ls[pos:pos] = [i, j, -i, -j]
            w2 = BraidWord(n, ls)
            assert braid_equal(w, w2)
            assert w.exponent_sum() == w2.exponent_sum()


def test_invert_trivial_cases():
    assert str(BraidWord(2).inverse()) == ""
    assert str(BraidWord(2, [1]).inverse()) == "-1"


def test_invert_product_is_trivial():
    w = BraidWord(3, [1, -2, 1])
    assert str(w.inverse()) == "-1 2 -1"
    assert is_trivial(w * w.inverse())
    rng = seeded("invert")
    for _ in range(100):
        n = rng.randint(1, 6)
        w = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                          for _ in range(rng.randint(0, 8))] if n > 1 else [])
        assert is_trivial(w * w.inverse())
        assert is_trivial(w.inverse() * w)


def test_half_twist_words():
    assert str(half_twist(2)) == "1"
    assert str(half_twist(3)) == "1 2 1"
    with pytest.raises(ValueError):
        half_twist(1)


def test_half_twist_square_is_central():
    for d in range(2, 6):
        sq = half_twist(d) * half_twist(d)
        for i in range(1, d):
            s = BraidWord(d, [i])
            assert braid_equal(sq * s, s * sq)


def test_shifted_offsets_letters_and_fixes_outside_strands():
    w = BraidWord(3, [1, -2, 2, -1])
    s = shifted(w, 2, 6)
    assert s == BraidWord(6, [3, -4, 4, -3])
    rng = seeded("shifted")
    for _ in range(100):
        n = rng.randint(1, 5)
        total = rng.randint(n, 8)
        offset = rng.randint(0, total - n)
        w = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                          for _ in range(rng.randint(0, 6))] if n > 1 else [])
        p, q = permutation_of(w), permutation_of(shifted(w, offset, total))
        assert all(q(j) == j for j in range(1, total + 1)
                   if not offset < j <= offset + n)
        assert all(q(offset + j) == offset + p(j) for j in range(1, n + 1))
    for offset, total in ((-1, 5), (3, 5), (0, 2)):
        with pytest.raises(ValueError):
            shifted(BraidWord(3, [1, 2]), offset, total)


def test_cable_trivial_cases():
    assert cable(BraidWord(1), [3]) == BraidWord(3)
    assert cable(BraidWord(2, [1]), [1, 1]) == BraidWord(2, [1])
    with pytest.raises(ValueError):
        cable(BraidWord(2, [1]), [1])


def test_cable_width_two_block():
    c = cable(BraidWord(2, [1]), [2, 1])
    p = permutation_of(c)
    assert (p(1), p(2), p(3)) == (2, 3, 1)
    assert braid_equal(delete_strands(c, {2}), BraidWord(2, [1]))


def _block_expanded_permutation(p, widths):
    n = p.size
    pinv = p.inverse()
    bot_start = {}
    acc = 1
    for q in range(1, n + 1):
        bot_start[q] = acc
        acc += widths[pinv(q) - 1]
    img = []
    for j in range(1, n + 1):
        img.extend(bot_start[p(j)] + t for t in range(widths[j - 1]))
    return Permutation(img)


def test_cable_delete_roundtrip_and_permutations():
    rng = seeded("cable")
    for _ in range(200):
        n = rng.randint(1, 5)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                   for _ in range(rng.randint(0, 8))] if n > 1 else []
        w = BraidWord(n, letters)
        widths = [rng.randint(1, 3) for _ in range(n)]
        c = cable(w, widths)
        starts, acc = [], 1
        for x in widths:
            starts.append(acc)
            acc += x
        kill = set(range(1, sum(widths) + 1)) - set(starts)
        back = delete_strands(c, kill) if kill else c
        assert braid_equal(back, w)
        assert permutation_of(c) == _block_expanded_permutation(permutation_of(w), widths)


def test_cable_of_inverse_cancels():
    rng = seeded("cable-inv")
    for _ in range(100):
        n = rng.randint(2, 4)
        w = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                          for _ in range(rng.randint(0, 5))])
        widths = [rng.randint(1, 3) for _ in range(n)]
        assert is_trivial(cable(w * w.inverse(), widths))


def test_delete_strands_trivial_cases():
    assert delete_strands(BraidWord(2, [1]), {2}) == BraidWord(1)
    assert delete_strands(BraidWord(2, [1, 1]), {1}) == BraidWord(1)
    assert delete_strands(BraidWord(3, [2, 2]), {3}) == BraidWord(2)
    with pytest.raises(ValueError):
        delete_strands(BraidWord(2, [1]), {1, 2})


def test_purity_and_cyclicity():
    assert is_pure(BraidWord(2)) and is_cyclic(BraidWord(2))
    assert not is_pure(BraidWord(2, [1])) and is_cyclic(BraidWord(2, [1]))
    assert not is_pure(BraidWord(3, [1])) and not is_cyclic(BraidWord(3, [1]))
    assert is_pure(half_twist(3) * half_twist(3))
    assert is_cyclic(BraidWord(3, [1, 2]))
    # the empty permutation is the rotation by 0
    assert Permutation(()).is_cyclic() and Permutation(()).is_identity()


def test_word_from_permutation():
    rng = seeded("perm-braid")
    for _ in range(100):
        n = rng.randint(1, 7)
        img = list(range(1, n + 1))
        rng.shuffle(img)
        p = Permutation(img)
        w = word_from_permutation(p)
        assert permutation_of(w) == p
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if img[i] > img[j])
        assert len(w) == inversions


def test_braid_equal_complete_on_two_strands():
    # B_2 is infinite cyclic, so equality there is exactly equality of
    # exponent sums; braid_equal must match on random word pairs
    rng = seeded("b2-complete")
    for _ in range(300):
        w1 = BraidWord(2, [rng.choice([1, -1]) for _ in range(rng.randint(0, 9))])
        w2 = BraidWord(2, [rng.choice([1, -1]) for _ in range(rng.randint(0, 9))])
        assert braid_equal(w1, w2) == (w1.exponent_sum() == w2.exponent_sum())


def _burau3(w):
    # reduced Burau matrices over Z[t, 1/t] as {exponent: coeff} dicts;
    # faithful on three strands, so exact matrix equality decides braid
    # equality there
    def add(p, q):
        out = dict(p)
        for e, c in q.items():
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
        return out

    def mulp(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def matmul(a, b):
        return [[add(mulp(a[i][0], b[0][j]), mulp(a[i][1], b[1][j]))
                 for j in range(2)] for i in range(2)]

    one, zero, t, mt = {0: 1}, {}, {1: 1}, {1: -1}
    tinv, mtinv = {-1: 1}, {-1: -1}
    gens = {
        1: [[mt, one], [zero, one]],
        2: [[one, zero], [t, mt]],
        -1: [[mtinv, tinv], [zero, one]],
        -2: [[one, zero], [one, mtinv]],
    }
    m = [[one, zero], [zero, one]]
    for a in w.letters:
        m = matmul(m, gens[a])
    return m


def test_braid_equal_matches_burau_on_three_strands():
    rng = seeded("burau")
    for _ in range(150):
        w1 = BraidWord(3, [rng.choice([1, -1]) * rng.randint(1, 2)
                           for _ in range(rng.randint(0, 8))])
        if rng.random() < 0.5:
            # engineered equal pair: insert relators
            ls = list(w1.letters)
            for _ in range(2):
                pos = rng.randint(0, len(ls))
                ls[pos:pos] = rng.choice([[1, 2, 1, -2, -1, -2], [2, -2], [-1, 1]])
            w2 = BraidWord(3, ls)
        else:
            w2 = BraidWord(3, [rng.choice([1, -1]) * rng.randint(1, 2)
                               for _ in range(rng.randint(0, 8))])
        assert braid_equal(w1, w2) == (_burau3(w1) == _burau3(w2))


def test_word_serialization():
    w = BraidWord.from_string(4, "1 -2 3")
    assert str(w) == "1 -2 3"
    assert BraidWord.from_string(4, str(w)) == w
    with pytest.raises(ValueError):
        BraidWord.from_string(2, "2")
    with pytest.raises(ValueError):
        BraidWord(2, [0])
    # a word's text is its letters alone: the strand count is always passed
    with pytest.raises(ValueError):
        BraidWord.from_string(4, "B4: 1")
    with pytest.raises(ValueError):
        BraidWord.from_string(None, "1 2")
    # a letter is an optional "-" and ASCII digits (leading zeros allowed),
    # not whatever int() reads
    assert BraidWord.from_string(11, "01 -02 10").letters == (1, -2, 10)
    for strands, text, bad in ((11, "1_0 +2 \u0663", "1_0"), (11, "1 +2", "+2"),
                               (11, "\u0663", "\u0663"), (2, "x", "x")):
        with pytest.raises(ValueError) as err:
            BraidWord.from_string(strands, text)
        assert str(err.value) == "letter %r is not an integer" % bad


# -- the normal form against its oracle ---------------------------------------

def _oracle_normal_form(n, letters):
    """The left greedy normal form the library computed before sign runs
    were packed: one factor per letter (a negative letter -k becomes
    Delta^-1 (Delta s_k^-1)), then a worklist left-weights adjacent pairs
    until none changes."""
    if n == 1:
        return (0, ())
    letters = _free_reduce(letters)
    ident = tuple(range(n))
    delta = tuple(range(n - 1, 0 - 1, -1))
    raw = []
    negs = 0
    for a in letters:
        if a > 0:
            p = list(ident)
            p[a - 1], p[a] = p[a], p[a - 1]
            raw.append((tuple(p), negs))
        else:
            negs += 1
            k = -a
            p = list(delta)
            for j in range(n):
                if p[j] == k - 1:
                    p[j] = k
                elif p[j] == k:
                    p[j] = k - 1
            raw.append((tuple(p), negs))
    power = -negs
    factors = []
    for p, c in raw:
        if (negs - c) % 2 == 1:
            p = _tau(p)
        if p != ident:
            factors.append(p)
    factors = _oracle_stabilize(factors, ident)
    lead = 0
    while lead < len(factors) and factors[lead] == delta:
        lead += 1
    return (power + lead, tuple(factors[lead:]))


def _oracle_stabilize(factors, ident):
    """Left-weight every adjacent pair, processing only pairs whose
    neighbours changed (worklist over a linked list of factors)."""
    fs = [f for f in factors if f != ident]
    size = len(fs)
    if size <= 1:
        return fs
    nxt = list(range(1, size)) + [-1]
    prv = [-1] + list(range(size - 1))
    alive = [True] * size
    pend = deque(range(size - 1))
    inq = set(pend)
    while pend:
        i = pend.popleft()
        inq.discard(i)
        if not alive[i]:
            continue
        j = nxt[i]
        if j == -1:
            continue
        res = _leftweight_pair(fs[i], fs[j])
        if res is None:
            continue
        a2, b2 = res
        fs[i] = a2
        recheck = [prv[i]]
        if b2 == ident:
            alive[j] = False
            nxt[i] = nxt[j]
            if nxt[j] != -1:
                prv[nxt[j]] = i
            recheck.append(i)
        else:
            fs[j] = b2
            recheck.append(j)
        for cand in recheck:
            if cand != -1 and alive[cand] and cand not in inq:
                pend.append(cand)
                inq.add(cand)
    return [fs[i] for i in range(size) if alive[i]]


def _is_left_weighted(factors):
    return all(_leftweight_pair(a, b) is None for a, b in zip(factors, factors[1:]))


def test_normal_form_matches_oracle_on_seeded_words():
    rng = seeded("nf-oracle")
    for t in range(10000):
        n = rng.randint(1, 12)
        length = rng.randint(0, 40)
        kind = t % 4
        if n == 1:
            w = BraidWord(1)
        elif kind == 0:  # mixed sign
            w = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                              for _ in range(length)])
        elif kind == 1:  # positive only
            w = BraidWord(n, [rng.randint(1, n - 1) for _ in range(length)])
        elif kind == 2:  # negative only
            w = BraidWord(n, [-rng.randint(1, n - 1) for _ in range(length)])
        else:  # cabled: crossings of whole bundles
            m = rng.randint(2, 4)
            base = BraidWord(m, [rng.choice([1, -1]) * rng.randint(1, m - 1)
                                 for _ in range(length // 8)])
            w = cable(base, [rng.randint(1, 3) for _ in range(m)])
        nf = w.normal_form()
        assert nf == _oracle_normal_form(w.strands, w.letters), w
        assert _is_left_weighted(nf[1])


def test_normal_form_of_delta_powers():
    for n in range(2, 10):
        delta = half_twist(n)
        for k in range(-5, 6):
            letters = list(delta.letters if k > 0 else delta.inverse().letters) * abs(k)
            assert BraidWord(n, letters).normal_form() == (k, ())


def test_normal_form_of_a_permutation_braid_is_one_factor():
    rng = seeded("nf-simple")
    for _ in range(200):
        n = rng.randint(2, 9)
        img = list(range(1, n + 1))
        rng.shuffle(img)
        p = Permutation(img)
        if p.is_identity() or img == list(range(n, 0, -1)):
            continue
        w = word_from_permutation(p)
        assert w.normal_form() == (0, (tuple(x - 1 for x in img),))


def _twisted_powers(count):
    """g, g^2, .., g^count for an x0-shaped g with three carets in the
    half-twist context."""
    ctx = context_half_twist(3, 1)
    labels = [Label.parse(t) for t in
              ("g1", "g1^-1", "g1^-1", "g1 g1", "e", "g1", "g1^-1 g1^-1")]
    g = Spraige(decode("(((...)..)..)", 3),
                LabeledBraid(BraidWord(7, [-5, 5, 5, 4, -6, -5, -5]), labels),
                decode("(..(..(...)))", 3))
    powers = [g]
    while len(powers) < count:
        powers.append(ctx.multiply(powers[-1], g))
    return ctx, powers


def test_twisted_power_product_in_half_twist_context():
    # g^6 carries a 1,632-letter braid
    ctx, powers = _twisted_powers(6)
    assert ctx.equal(ctx.multiply(powers[2], powers[2]), powers[5])


def test_twisted_power_equality_at_scale():
    # g^8 lives on 35 strands; equality reduces both sides and compares
    # their forests, braids and labels, and never forms the product
    # g^4 * g^4 * g^-8
    ctx, powers = _twisted_powers(8)
    lhs = ctx.multiply(powers[3], powers[3])
    start = time.perf_counter()
    assert ctx.equal(lhs, powers[7])
    assert time.perf_counter() - start < 1.5
    g8 = powers[7]
    labels = (g8.lb.labels[0] * Label.parse("g1"),) + g8.lb.labels[1:]
    changed = Spraige(g8.minus, LabeledBraid(g8.lb.braid, labels), g8.plus)
    assert not ctx.equal(lhs, changed)


def test_twisted_power_equality_at_24_builds_no_normal_form(monkeypatch):
    # g^24 lives on 99 strands with a 108,912-letter braid; reduction and
    # equality compare braids by their Dynnikov coordinates alone
    monkeypatch.setattr(BraidWord, "normal_form", forbidden)
    ctx, powers = _twisted_powers(24)
    lhs = ctx.multiply(powers[11], powers[11])
    g24 = powers[23]
    start = time.perf_counter()
    assert ctx.equal(lhs, g24)
    assert time.perf_counter() - start < 2
    labels = g24.lb.labels[:5] + (g24.lb.labels[5] * Label.parse("g1"),) + g24.lb.labels[6:]
    changed = Spraige(g24.minus, LabeledBraid(g24.lb.braid, labels), g24.plus)
    assert not ctx.equal(lhs, changed)


@st.composite
def _word_and_rewrite(draw, max_strands=9, max_letters=60):
    """A word on up to max_strands strands and max_letters letters, and
    the same word with a free cancellation, a braid relation or a far
    commutation inserted."""
    n = draw(st.integers(2, max_strands))
    letter = st.builds(lambda k, s: k * s, st.integers(1, n - 1), st.sampled_from((1, -1)))
    letters = draw(st.lists(letter, max_size=max_letters))
    kinds = ["free"] + (["braid"] if n >= 3 else []) + (["far"] if n >= 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        i = draw(letter)
        rel = [i, -i]
    elif kind == "braid":
        i = draw(st.integers(1, n - 2))
        rel = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    else:
        i = draw(st.integers(1, n - 3))
        j = draw(st.integers(i + 2, n - 1))
        rel = [i, j, -i, -j]
    if draw(st.booleans()):
        rel = [-a for a in reversed(rel)]
    pos = draw(st.integers(0, len(letters)))
    return BraidWord(n, letters), BraidWord(n, letters[:pos] + rel + letters[pos:])


@given(_word_and_rewrite())
def test_normal_form_is_invariant_under_relations(pair):
    w, v = pair
    nf = w.normal_form()
    assert v.normal_form() == nf
    assert nf == _oracle_normal_form(w.strands, w.letters)


# -- Dynnikov coordinates: the maps, and equality against normal forms --------

def _act(co, letters):
    co = list(co)
    _dynnikov_act(co, letters)
    return co


@st.composite
def _vector_and_generators(draw):
    """A random vector in Z^{2n}, n >= 4, with entries near zero (where
    the maps change piece) or large; a generator i < n - 1; signed far
    generators k, j with j >= k + 2."""
    n = draw(st.integers(4, 9))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 9, 10 ** 9))
    co = draw(st.lists(entry, min_size=2 * n, max_size=2 * n))
    i = draw(st.integers(1, n - 2))
    k = draw(st.integers(1, n - 3))
    j = draw(st.integers(k + 2, n - 1))
    sign = st.sampled_from((1, -1))
    return co, i, draw(sign) * k, draw(sign) * j


@given(_vector_and_generators())
def test_dynnikov_maps_satisfy_the_braid_group_relations(case):
    # the maps alone, on arbitrary integer vectors: no faithfulness assumed
    co, i, k, j = case
    for a in (i, i + 1, k, j):
        assert _act(co, (a, -a)) == co
        assert _act(co, (-a, a)) == co
    assert _act(co, (i, i + 1, i)) == _act(co, (i + 1, i, i + 1))
    assert _act(co, (-i, -i - 1, -i)) == _act(co, (-i - 1, -i, -i - 1))
    assert _act(co, (k, j)) == _act(co, (j, k))


def _flipped(w, *positions):
    letters = list(w.letters)
    for p in positions:
        letters[p] = -letters[p]
    return BraidWord(w.strands, letters)


def _normal_forms_equal(w, v):
    """Equality as braid_equal decided it before Dynnikov coordinates."""
    return w.normal_form() == v.normal_form()


@given(_word_and_rewrite(), st.data())
def test_braid_equal_agrees_with_normal_forms(pair, data):
    # a word against its rewrite, the rewrite with one letter flipped, and
    # the rewrite with a positive and a negative letter flipped, which keeps
    # the exponent sum and the permutation, so only the full test decides
    w, v = pair
    candidates = [v, _flipped(v, data.draw(st.integers(0, len(v) - 1)))]
    positive = [p for p, a in enumerate(v.letters) if a > 0]
    negative = [p for p, a in enumerate(v.letters) if a < 0]
    if positive and negative:
        candidates.append(_flipped(v, data.draw(st.sampled_from(positive)),
                                   data.draw(st.sampled_from(negative))))
    for u in candidates:
        assert braid_equal(w, u) == _normal_forms_equal(w, u)


def test_full_twist_is_central_and_not_trivial():
    rng = seeded("full-twist-centre")
    for n in range(3, 12):
        delta2 = half_twist(n) * half_twist(n)
        # pure, with the exponent sum of sigma_1^{n(n-1)}: only the full test
        # tells them apart
        assert not braid_equal(delta2, BraidWord(n, [1] * (n * (n - 1))))
        assert _dynnikov(delta2) != _dynnikov(BraidWord(n))
        for _ in range(5):
            w = _random_word(rng, n, rng.randint(1, 40))
            assert braid_equal(delta2 * w, w * delta2)
            assert not braid_equal(delta2 * w, w)


def test_pure_commutator_is_not_trivial():
    # sigma_1^2 sigma_2^2 sigma_1^-2 sigma_2^-2, the commutator the braided
    # session benchmark multiplies by: pure with exponent sum 0, so no cheap
    # invariant sees it
    c = BraidWord(3, (1, 1, 2, 2, -1, -1, -2, -2))
    assert is_pure(c) and c.exponent_sum() == 0
    assert not is_trivial(c) and not _normal_forms_equal(c, BraidWord(3))
    assert braid_equal(c * c.inverse(), BraidWord(3))


def test_braid_equal_builds_no_normal_form():
    pairs = [(BraidWord(3, [1, 2, 1]), BraidWord(3, [2, 1, 2])),
             (BraidWord(3, (1, 1, 2, 2, -1, -1, -2, -2)), BraidWord(3))]
    for w, v in pairs:
        braid_equal(w, v)
        assert w._dyn is not None and v._dyn is not None
        assert w._nf is None and v._nf is None


def test_pseudo_anosov_word_in_exact_integers():
    # (sigma_1 sigma_2^-1)^k stretches laminations by phi^2 per period, so
    # its coordinates gain log2(phi^2) = 1.39 bits per period
    w = BraidWord(3, (1, -2) * 20000)
    letters = list(w.letters)
    letters[20000:20000] = [1, 2, 1, -2, -1, -2]
    v = BraidWord(3, letters)
    assert braid_equal(w, v)
    assert not braid_equal(w, _flipped(v, 20000, 20004))
    bits = max(abs(x) for x in _dynnikov(w)).bit_length()
    half = max(abs(x) for x in _dynnikov(BraidWord(3, (1, -2) * 10000))).bit_length()
    assert bits > 27000 and abs(bits - 2 * half) <= 2


# -- Artin's representation: a faithful oracle on every strand count ----------

def _free_product(*words):
    """The freely reduced product of words in a free group (tuples of
    signed generator indices)."""
    out = []
    for w in words:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def _free_inverse(w):
    return tuple(-x for x in reversed(w))


def _artin(w):
    """The images of the free generators x_1 .. x_n under Artin's
    representation of w in Aut(F_n), freely reduced.  sigma_i sends x_i to
    x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; sigma_i^-1 sends x_i to x_{i+1}
    and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}.  The representation is faithful
    (Artin 1925), so two braids are equal exactly when their images are.
    The images grow exponentially with the length of w."""
    images = [(j,) for j in range(1, w.strands + 1)]
    for a in w.letters:
        i = abs(a) - 1
        xi, xj = images[i], images[i + 1]
        if a > 0:
            images[i:i + 2] = _free_product(xi, xj, _free_inverse(xi)), xi
        else:
            images[i:i + 2] = xj, _free_product(_free_inverse(xj), xi, xj)
    return tuple(images)


def test_artin_oracle_on_known_pairs():
    d3 = half_twist(3)
    assert _artin(d3 * d3) != _artin(BraidWord(3))
    assert _artin(BraidWord(3, [1, 2, 1])) == _artin(BraidWord(3, [2, 1, 2]))
    assert _artin(BraidWord(4, [1, 3])) == _artin(BraidWord(4, [3, 1]))
    assert _artin(BraidWord(3, [1, 2])) != _artin(BraidWord(3, [2, 1]))
    assert _artin(BraidWord(3, [1, -1, 2, -2])) == _artin(BraidWord(3))


@st.composite
def _short_pair(draw):
    """Two words on up to 7 strands and 24 letters, short enough for their
    Artin images: a word and its rewrite, the word with one letter
    changed, or an unrelated word."""
    w, v = draw(_word_and_rewrite(max_strands=7, max_letters=18))
    n = w.strands
    letter = st.builds(lambda k, s: k * s, st.integers(1, n - 1), st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("rewrite", "changed", "unrelated")))
    if kind == "changed" and w.letters:
        i = draw(st.integers(0, len(w.letters) - 1))
        v = BraidWord(n, w.letters[:i] + (draw(letter),) + w.letters[i + 1:])
    elif kind == "unrelated":
        v = BraidWord(n, draw(st.lists(letter, max_size=24)))
    return w, v


@given(_short_pair())
def test_braid_equal_matches_the_artin_representation(pair):
    w, v = pair
    assert braid_equal(w, v) == (_artin(w) == _artin(v))


def test_label_equality_matches_the_artin_representation_of_realizations():
    # H = <Delta, sigma_1> in B_d: Delta^2 is central, so g1 g1 g2 = g2 g1 g1,
    # and on two strands Delta = sigma_1; random words in H with these
    # relators inserted, or unrelated ones
    rng = seeded("artin-labels")
    outcomes = set()
    for d in (2, 3, 4):
        spec = LabelGroupSpec(d, (half_twist(d), BraidWord(d, [1])))
        relators = [[1, -1], [-2, 2], [1, 1, 2, -1, -1, -2]] + ([[1, -2]] if d == 2 else [])
        for _ in range(150):
            word = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.5:
                other = list(word)
                pos = rng.randint(0, len(other))
                other[pos:pos] = rng.choice(relators)
            else:
                other = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 5))]
            a, b = Label(word), Label(other)
            same = _artin(a.realize(spec)) == _artin(b.realize(spec))
            assert label_equal(spec, a, b) == same, (d, word, other)
            outcomes.add(same)
    assert outcomes == {True, False}


# -- strand bookkeeping against its oracles -------------------------------------

def _oracle_permutation_of(w):
    """permutation_of as the library computed it before the permutation
    was cached on the word: position and strand arrays traced together."""
    pos = list(range(w.strands))  # pos[strand] = current position, 0-based
    cur = list(range(w.strands))  # cur[position] = strand, 0-based
    for a in w.letters:
        k = abs(a) - 1
        u, v = cur[k], cur[k + 1]
        cur[k], cur[k + 1] = v, u
        pos[u], pos[v] = k + 1, k
    return Permutation(pos[i] + 1 for i in range(w.strands))


def _oracle_cable(w, widths):
    """cable as the library computed it before block starts were kept
    per position: the start of the crossing block is summed per letter."""
    widths = list(widths)
    total = sum(widths)
    order = list(range(w.strands))  # block ids by current position
    out = []
    for a in w.letters:
        k = abs(a) - 1
        left, right = order[k], order[k + 1]
        start = 1 + sum(widths[b] for b in order[:k])
        wa, wb = widths[left], widths[right]
        for t in range(wb):
            run = range(start + wa + t - 1, start + t - 1, -1)
            out.extend(run if a > 0 else (-j for j in run))
        order[k], order[k + 1] = right, left
    return BraidWord(total, out)


def _oracle_delete_strands(w, kill):
    """delete_strands as the library computed it before surviving-strand
    counts were kept per position: the killed strands left of the
    crossing are counted per letter."""
    kill = set(kill)
    occ = list(range(1, w.strands + 1))  # occ[position] = strand id at top
    out = []
    for a in w.letters:
        k = abs(a) - 1
        u, v = occ[k], occ[k + 1]
        if u not in kill and v not in kill:
            j = k + 1 - sum(1 for p in range(k) if occ[p] in kill)
            out.append(j if a > 0 else -j)
        occ[k], occ[k + 1] = v, u
    return BraidWord(w.strands - len(kill), out)


def _random_word(rng, n, length):
    return BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)])


def _assert_matches_oracles(w, widths, kill):
    c = cable(w, widths)
    assert c.letters == _oracle_cable(w, widths).letters
    assert c.strands == sum(widths)
    d = delete_strands(w, kill)
    assert d.letters == _oracle_delete_strands(w, kill).letters
    assert d.strands == w.strands - len(kill)
    for v in (w, c, d):
        assert permutation_of(v).image == _oracle_permutation_of(v).image
    # with w's permutation cached, as it is now, the deletion's is read off it
    read = delete_strands(w, kill)
    assert read._perm is not None and read.letters == d.letters
    assert read._perm.image == _oracle_permutation_of(d).image


def test_cable_delete_and_permutation_match_oracles_on_seeded_words():
    rng = seeded("strand-oracle")
    for _ in range(2000):
        n = rng.randint(2, 60)
        w = _random_word(rng, n, rng.randint(0, 40))
        widths = [rng.randint(1, 4) for _ in range(n)]
        kill = set(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        _assert_matches_oracles(w, widths, kill)


def test_cable_delete_and_permutation_match_oracles_at_scale():
    rng = seeded("strand-oracle-scale")
    w = _random_word(rng, 400, 20000)
    widths = [rng.randint(1, 4) for _ in range(400)]
    kill = set(rng.sample(range(1, 401), 200))
    _assert_matches_oracles(w, widths, kill)


@st.composite
def _built_word(draw):
    """A word built from a validated one by *, inverse, shifted, cable and
    delete_strands, each step drawn."""
    n = draw(st.integers(1, 6))
    letter = st.builds(lambda k, s: k * s, st.integers(1, max(n - 1, 1)),
                       st.sampled_from((1, -1)))
    w = BraidWord(n, draw(st.lists(letter, max_size=12)) if n > 1 else [])
    for step in draw(st.lists(st.sampled_from(("mul", "inverse", "shifted", "cable",
                                               "delete")), max_size=4)):
        n = w.strands
        if step == "mul":
            w = w * (w.inverse() if draw(st.booleans()) else w)
        elif step == "inverse":
            w = w.inverse()
        elif step == "shifted":
            total = n + draw(st.integers(0, 3))
            w = shifted(w, draw(st.integers(0, total - n)), total)
        elif step == "cable":
            w = cable(w, draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        elif n > 1:
            w = delete_strands(w, draw(st.sets(st.integers(1, n), max_size=n - 1)))
    return w


@given(_built_word())
def test_cached_permutation_and_exponent_sum_equal_a_fresh_computation(w):
    fresh = BraidWord(w.strands, w.letters)
    for _ in range(2):  # computed, then read from the cache
        assert permutation_of(w) == _oracle_permutation_of(fresh)
        assert w.exponent_sum() == sum(1 if a > 0 else -1 for a in fresh.letters)


def test_public_constructors_and_moves_still_validate():
    for args, message in (((3, [3]), "letter 3 out of range for B_3"),
                          ((3, [0]), "letter 0 out of range for B_3")):
        with pytest.raises(ValueError) as err:
            BraidWord(*args)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Permutation((1, 1, 3))
    assert str(err.value) == "not a bijection of 1..3: (1, 1, 3)"


def test_non_integer_entries_are_rejected_at_construction():
    # a float or a bool equal to a valid entry used to pass the range test
    # and fail later, inside permutation_of or inverse
    for letters, bad in (([1.5], "1.5"), ([1, 1.0], "1.0"), ([True], "True"),
                         ([-1, "1"], "'1'")):
        with pytest.raises(ValueError) as err:
            BraidWord(3, letters)
        assert str(err.value) == "letter %s is not an integer" % bad
    for image in ([2.0, 1.0], [2, 1, 3.0], [True, 2], [False]):
        with pytest.raises(ValueError) as err:
            Permutation(image)
        assert str(err.value) == "permutation entries must be integers: %r" % (tuple(image),)
    assert BraidWord(3, (1, -2)).inverse().letters == (2, -1)
    assert Permutation([2, 1]).inverse().image == (2, 1)
    w = BraidWord(3, [1, -2])
    for fn, arg, message in ((cable, [1, 2], "need one width per strand"),
                             (cable, [1, 0, 2], "width 0 must be >= 1"),
                             (delete_strands, {0}, "strand index 0 out of range 1..3"),
                             (delete_strands, {4}, "strand index 4 out of range 1..3"),
                             (delete_strands, {1, 2, 3}, "cannot delete every strand")):
        with pytest.raises(ValueError) as err:
            fn(w, arg)
        assert str(err.value) == message


def test_a_valid_word_checks_its_letters_in_bulk(monkeypatch):
    # one pass over the word for the common case; the letter-by-letter walk
    # that names the first bad letter runs only when that pass fails
    real, calls = braids.require_int, []

    def counting(value, what, low=None, high=None):
        calls.append(what)
        return real(value, what, low, high)

    monkeypatch.setattr(braids, "require_int", counting)
    assert len(BraidWord(6, [1, 2, -3, 4, -5] * 200)) == 1000
    assert calls == ["strand count"]
    for letters, message in (([1, 2, 1.0, 9], "letter 1.0 is not an integer"),
                             ([1, -6, 1.0], "letter -6 out of range for B_6"),
                             ([5, 0], "letter 0 out of range for B_6")):
        with pytest.raises(ValueError) as err:
            BraidWord(6, letters)
        assert str(err.value) == message
