import pytest
from hypothesis import given, settings, strategies as st

from braidedthompson import (BraidWord, Forest, GroupContext, Label,
                             LabeledBraid, LabelGroupSpec, PairedForestDiagram,
                             Permutation, Spraige, braid_equal, cable,
                             elementary_forest, half_twist, is_cyclic, is_pure,
                             is_trivial, permutation_of, v_equal, v_expand,
                             v_multiply, v_reduce, word_from_permutation)
from braidedthompson import braids, complexes, diagrams
from braidedthompson.complexes import HeightFunction
from braidedthompson.forests import (attach_caret, decode, matching_to_forest,
                                    remove_elementary_caret)
from braidedthompson.labeled import lb_equal
from conftest import (context_full_twist, context_half_twist, context_trivial,
                      forbidden, make_context, random_element,
                      random_elementary_braige, random_label, reduce_descending,
                      seeded, width_preserving_multiplier)


def test_identity_and_lambda_mu():
    ctx = context_trivial(2, 1)
    e = ctx.identity()
    assert ctx.is_identity(e)
    lam, mu = ctx.lambda_spraige(1, {1}), ctx.mu_spraige(1, {1})
    assert lam.heads == 1 and lam.feet == 2
    assert ctx.is_identity(ctx.multiply(lam, mu))
    assert ctx.lambda_spraige(4, set()).leaves == 4

    ctx3 = context_trivial(3, 2)
    l52 = ctx3.lambda_spraige(5, {2, 5})
    assert l52.heads == 5 and l52.feet == 9
    assert ctx3.is_identity(ctx3.multiply(l52, ctx3.mu_spraige(5, {2, 5})))


def test_expand_preserves_element_and_leaf_count():
    ctx = context_full_twist(2, 1)
    rng = seeded("expand")
    for _ in range(100):
        s = random_element(ctx, rng)
        i = rng.randint(1, s.leaves)
        t = ctx.expand(s, i)
        assert t.leaves == s.leaves + ctx.d - 1
        assert ctx.equal(s, t)


def test_expand_identity_gives_matched_carets():
    ctx = context_trivial(3, 2)
    e = ctx.identity()
    t = ctx.expand(e, 2)
    assert t.minus == elementary_forest(2, {2}, 3)
    assert t.minus == t.plus
    assert is_trivial(t.lb.braid)


def test_expand_then_reduce_roundtrip():
    ctx = context_half_twist(2, 1)
    rng = seeded("roundtrip")
    for _ in range(200):
        s = random_element(ctx, rng, 2)
        i = rng.randint(1, s.leaves)
        t = ctx.expand(s, i)
        back = ctx.try_reduce_at(t, i)
        assert back is not None
        assert back.minus == s.minus and back.plus == s.plus
        assert braid_equal(back.lb.braid, s.lb.braid)
        assert ctx.equal(back, s)


def _caret_element():
    """A trivial-context element with one caret on each side, and its context."""
    ctx = context_trivial(2, 1)
    return ctx, ctx.expand(ctx.identity(), 1)


def _flat_heights(k):
    return HeightFunction({v: 2 for v in range(k.vertices)})


_PATH5 = complexes.d_matching_linear(2, 5)
_RISING = HeightFunction(range(_PATH5.vertices))  # valid: no edge is level


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: BraidWord(2.5, [1]), "strand count 2.5 is not an integer",
                 id="strands-float"),
    pytest.param(lambda: BraidWord(True, []), "strand count True is not an integer",
                 id="strands-bool"),
    pytest.param(lambda: LabelGroupSpec(2.0), "label group degree 2.0 is not an integer",
                 id="label-degree"),
    pytest.param(lambda: GroupContext(2, 1.5, LabelGroupSpec(2)),
                 "root count 1.5 is not an integer", id="roots"),
    pytest.param(lambda: GroupContext(True, 1, LabelGroupSpec(2)),
                 "arity True is not an integer", id="arity"),
    pytest.param(lambda: braids.shifted(BraidWord(2, [1]), 0.5, 3),
                 "offset 0.5 and strand count 3 must be integers", id="shift-offset"),
    pytest.param(lambda: braids.shifted(BraidWord(2, [1]), 1, 3.0),
                 "offset 1 and strand count 3.0 must be integers", id="shift-strands"),
    pytest.param(lambda: attach_caret(decode("(..)", 2), 1.0),
                 "leaf index 1.0 is not an integer", id="leaf-index"),
    # forests: every way in checks its sizes
    pytest.param(lambda: decode("(..)", 2.0), "arity 2.0 is not an integer", id="decode-arity"),
    pytest.param(lambda: Forest.trivial(2.0, 2), "arity 2.0 is not an integer",
                 id="trivial-arity"),
    pytest.param(lambda: Forest.trivial(2, 1.5), "root count 1.5 is not an integer",
                 id="trivial-roots"),
    pytest.param(lambda: Forest.trivial(2, True), "root count True is not an integer",
                 id="trivial-roots-bool"),
    pytest.param(lambda: elementary_forest(3, {1.0}, 2), "J must be a subset of 1..3, got {1.0}",
                 id="elementary-J"),
    pytest.param(lambda: elementary_forest(2.0, {1}, 2), "root count 2.0 is not an integer",
                 id="elementary-roots"),
    pytest.param(lambda: elementary_forest(3, {1}, 2.0), "arity 2.0 is not an integer",
                 id="elementary-arity"),
    pytest.param(lambda: matching_to_forest({(1.0, 2.0)}, 4, 2),
                 "bad interval (1.0, 2.0) for d=2, m=4", id="matching-interval"),
    pytest.param(lambda: matching_to_forest({(1, 2)}, 4.0, 2),
                 "leaf count 4.0 is not an integer", id="matching-leaves"),
    pytest.param(lambda: matching_to_forest({(1, 2)}, 4, 2.0), "arity 2.0 is not an integer",
                 id="matching-arity"),
    pytest.param(lambda: remove_elementary_caret(decode("(..)", 2), 1.0),
                 "leaf index 1.0 is not an integer", id="remove-caret"),
    # leaf indices of a group context
    pytest.param(lambda: GroupContext.expand(*_caret_element(), 1.0),
                 "leaf index 1.0 is not an integer", id="expand-float"),
    pytest.param(lambda: GroupContext.expand(*_caret_element(), True),
                 "leaf index True is not an integer", id="expand-bool"),
    pytest.param(lambda: GroupContext.try_reduce_at(*_caret_element(), 1.0),
                 "leaf index 1.0 is not an integer", id="try-reduce-float"),
    pytest.param(lambda: GroupContext.try_reduce_at(*_caret_element(), True),
                 "leaf index True is not an integer", id="try-reduce-bool"),
    pytest.param(lambda: context_trivial(2, 1).identity(1.0), "root count 1.0 is not an integer",
                 id="identity"),
    pytest.param(lambda: context_trivial(2, 1).lambda_spraige(1, {True}),
                 "J must be a subset of 1..1, got {True}", id="lambda"),
    pytest.param(lambda: context_trivial(2, 1).mu_spraige(1.5, {1}),
                 "root count 1.5 is not an integer", id="mu"),
    # the braid layer
    pytest.param(lambda: cable(BraidWord(2, [1]), [1.5, 1]), "width 1.5 is not an integer",
                 id="cable-width"),
    pytest.param(lambda: half_twist(3.0), "strand count 3.0 is not an integer", id="half-twist"),
    pytest.param(lambda: braids.delete_strands(BraidWord(2, [1]), [1.0]),
                 "strand index 1.0 is not an integer", id="delete-strands"),
    # the complex lab
    pytest.param(lambda: complexes.d_matching_linear(2, 5.0),
                 "length 5.0 is not an integer", id="matching-linear"),
    pytest.param(lambda: complexes.d_matching_cyclic(2.0, 5),
                 "arity 2.0 is not an integer", id="matching-cyclic"),
    pytest.param(lambda: complexes.SimplicialComplex.simplex(2.5),
                 "vertex count 2.5 is not an integer", id="simplex"),
    pytest.param(lambda: complexes.SimplicialComplex.sphere(1.5),
                 "sphere dimension 1.5 is not an integer", id="sphere"),
    pytest.param(lambda: complexes.wcm_violation(_PATH5, 1.5), "dimension 1.5 is not an integer",
                 id="wcm"),
    pytest.param(lambda: complexes.reduced_homology(_PATH5, 0.5), "degree 0.5 is not an integer",
                 id="homology-through"),
    pytest.param(lambda: complexes.reduced_homology(_PATH5, True),
                 "degree True is not an integer", id="homology-through-bool"),
    pytest.param(lambda: complexes.morse_sweep(_PATH5, _flat_heights(_PATH5), [2], 1.5),
                 "degree 1.5 is not an integer", id="morse-sweep"),
    pytest.param(lambda: complexes.morse_check(_PATH5, _flat_heights(_PATH5), 2, 1.5),
                 "degree 1.5 is not an integer", id="morse-check"),
    # degrees asked of a homology report
    pytest.param(lambda: complexes.reduced_homology(_PATH5).betti_number(1.0),
                 "degree 1.0 is not an integer", id="betti"),
    pytest.param(lambda: complexes.reduced_homology(_PATH5).betti_number("x"),
                 "degree 'x' is not an integer", id="betti-str"),
    pytest.param(lambda: complexes.reduced_homology(_PATH5).torsion_coefficients(1.5),
                 "degree 1.5 is not an integer", id="torsion"),
    pytest.param(lambda: complexes.reduced_homology(_PATH5).is_zero_through(1.5),
                 "degree 1.5 is not an integer", id="zero-through"),
    pytest.param(lambda: complexes.reduced_homology(_PATH5).is_zero_through("a"),
                 "degree 'a' is not an integer", id="zero-through-str"),
    # vertices, dimensions, heights and levels in the lab
    pytest.param(lambda: complexes.link(_PATH5, (1.0,)), "vertex 1.0 is not an integer",
                 id="link-float"),
    pytest.param(lambda: complexes.link(_PATH5, (True,)), "vertex True is not an integer",
                 id="link-bool"),
    pytest.param(lambda: complexes.star(_PATH5, (1.0,)), "vertex 1.0 is not an integer",
                 id="star"),
    pytest.param(lambda: complexes.mutual_link(_PATH5, 1.0, 2), "vertex 1.0 is not an integer",
                 id="mutual-link"),
    pytest.param(lambda: _PATH5.full_subcomplex({1.0, 2}), "vertex 1.0 is not an integer",
                 id="full-subcomplex"),
    pytest.param(lambda: complexes.morse_descending_link(_PATH5, _RISING, 1.0),
                 "vertex 1.0 is not an integer", id="descending-link"),
    pytest.param(lambda: _PATH5.faces_of_dim(1.0), "dimension 1.0 is not an integer",
                 id="faces-of-dim"),
    pytest.param(lambda: HeightFunction({0: 1.5, 1: 2}), "height 1.5 is not an integer",
                 id="height"),
    pytest.param(lambda: HeightFunction({0.5: 1}), "vertex 0.5 is not an integer",
                 id="height-vertex"),
    pytest.param(lambda: _RISING(1.0), "vertex 1.0 is not an integer", id="height-of-float"),
    pytest.param(lambda: _RISING(True), "vertex True is not an integer", id="height-of-bool"),
    pytest.param(lambda: complexes.morse_sweep(_PATH5, _RISING, [1.5]),
                 "level 1.5 is not an integer", id="sweep-level"),
    pytest.param(lambda: complexes.sublevel(_PATH5, _RISING, 1.5),
                 "level 1.5 is not an integer", id="sublevel"),
    # permutation indices, and integers out of range at two of these ways in
    pytest.param(lambda: Permutation((2, 1))(1.0), "permutation index 1.0 is not an integer",
                 id="perm-index-float"),
    pytest.param(lambda: Permutation((2, 1))(True), "permutation index True is not an integer",
                 id="perm-index-bool"),
    pytest.param(lambda: Permutation((2, 1))(0), "permutation index 0 out of range 1..2",
                 id="perm-index-zero"),
    pytest.param(lambda: Permutation((2, 1))(-1), "permutation index -1 out of range 1..2",
                 id="perm-index-negative"),
    pytest.param(lambda: Permutation((2, 1))(3), "permutation index 3 out of range 1..2",
                 id="perm-index-past-end"),
    pytest.param(lambda: complexes.SimplicialComplex.sphere(-2),
                 "sphere dimension -2 must be >= -1", id="sphere-below"),
    # every size and index below its bound, in the one wording of _checks
    pytest.param(lambda: BraidWord(0), "strand count 0 must be >= 1", id="strands-below"),
    pytest.param(lambda: half_twist(1), "strand count 1 must be >= 2", id="half-twist-below"),
    pytest.param(lambda: cable(BraidWord(2, [1]), [1, 0]), "width 0 must be >= 1",
                 id="cable-width-below"),
    pytest.param(lambda: braids.delete_strands(BraidWord(2, [1]), [0]),
                 "strand index 0 out of range 1..2", id="delete-strands-below"),
    pytest.param(lambda: decode("(..)", 1), "arity 1 must be >= 2", id="decode-arity-below"),
    pytest.param(lambda: Forest.trivial(2, 0), "root count 0 must be >= 1",
                 id="trivial-roots-below"),
    pytest.param(lambda: attach_caret(decode("(..)", 2), 0), "leaf index 0 out of range 1..2",
                 id="leaf-index-below"),
    pytest.param(lambda: LabelGroupSpec(1), "label group degree 1 must be >= 2",
                 id="label-degree-below"),
    pytest.param(lambda: GroupContext(1, 1, LabelGroupSpec(2)), "arity 1 must be >= 2",
                 id="arity-below"),
    pytest.param(lambda: GroupContext(2, 0, LabelGroupSpec(2)), "root count 0 must be >= 1",
                 id="roots-below"),
    pytest.param(lambda: complexes.SimplicialComplex(-1), "vertex count -1 must be >= 0",
                 id="vertex-count-below"),
    pytest.param(lambda: complexes.d_matching_linear(1, 5), "arity 1 must be >= 2",
                 id="matching-linear-arity-below"),
    pytest.param(lambda: complexes.d_matching_cyclic(2, 0), "length 0 must be >= 1",
                 id="matching-cyclic-length-below"),
])
def test_non_integer_sizes_and_indices_are_rejected_where_they_enter(call, message):
    # each of these calls used to return an object or answer holding the
    # non-integer (or a wrapped-round index), or to fail later with a
    # TypeError or an IndexError
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_try_reduce_rejects_trivial_diagram():
    ctx = context_trivial(2, 1)
    with pytest.raises(ValueError):
        ctx.try_reduce_at(ctx.identity(), 1)


def test_try_reduce_blocked_by_labels():
    # caret over both sides but the two strand labels differ: irreducible
    ctx = context_half_twist(2, 1)
    caret = decode("(..)", 2)
    s = Spraige(caret, LabeledBraid(BraidWord(2), (Label((1,)), Label())), caret)
    assert ctx.try_reduce_at(s, 1) is None


def test_try_reduce_blocked_by_braid():
    # pure braid inside the block that is not a cable of the merged strand
    ctx = context_trivial(2, 1)
    caret = decode("(..)", 2)
    s = Spraige(caret, LabeledBraid(BraidWord(2, [1, 1]), (Label(), Label())), caret)
    assert ctx.try_reduce_at(s, 1) is None
    assert not ctx.is_identity(s)


def test_reduce_is_scan_order_independent():
    ctx = context_full_twist(2, 1)
    rng = seeded("orders")
    for _ in range(150):
        s = random_element(ctx, rng, 2)
        t = s
        for _ in range(rng.randint(1, 4)):
            t = ctx.expand(t, rng.randint(1, t.leaves))
        r_asc = ctx.reduce(t)
        r_desc = reduce_descending(ctx, t)
        r_orig = ctx.reduce(s)
        for a, b in ((r_asc, r_desc), (r_asc, r_orig)):
            assert a.minus == b.minus and a.plus == b.plus
            assert braid_equal(a.lb.braid, b.lb.braid)
            for la, lb_ in zip(a.lb.labels, b.lb.labels):
                assert la == lb_ or braid_equal(la.realize(ctx.spec),
                                                lb_.realize(ctx.spec))


def test_reduce_reads_the_splitting_forest_once_per_scan(monkeypatch):
    # reduce takes each start from one reading of minus's elementary carets
    # and does not check it again: a scan reads minus once, and only a
    # block landing on consecutive positions reads plus
    spans = diagrams.elementary_caret_spans
    step = GroupContext._reduce_at
    read, scanned = [], []

    def reduce_at(ctx, s, start):
        t = step(ctx, s, start)
        if t is not None:
            scanned.append(t)
        return t

    monkeypatch.setattr(diagrams, "elementary_caret_spans",
                        lambda forest: read.append(forest) or spans(forest))
    monkeypatch.setattr(GroupContext, "_reduce_at", reduce_at)
    rng = seeded("reduce-reads")
    steps = 0
    for ctx in (context_full_twist(2, 1), context_half_twist(3, 1), context_trivial(3, 2)):
        for _ in range(30):
            t = random_element(ctx, rng, 2)
            for _ in range(rng.randint(1, 4)):
                t = ctx.expand(t, rng.randint(1, t.leaves))
            read.clear()
            scanned[:] = [t]
            r = ctx.reduce(t)
            assert r is scanned[-1]
            for x in scanned:
                assert x.minus is not x.plus
                assert sum(f is x.minus for f in read) == 1
            steps += len(scanned) - 1
    assert steps > 100


def test_reduce_is_idempotent():
    ctx = context_half_twist(3, 1)
    rng = seeded("idem")
    for _ in range(50):
        s = ctx.reduce(random_element(ctx, rng, 2))
        assert ctx.reduce(s) == s


def test_group_axioms_per_context():
    rng = seeded("axioms")
    for ctx in (context_trivial(2, 1), context_trivial(3, 2),
                context_full_twist(2, 1), context_half_twist(3, 1)):
        for _ in range(40):
            a = random_element(ctx, rng, 2)
            b = random_element(ctx, rng, 2)
            c = random_element(ctx, rng, 2)
            assert ctx.equal(ctx.multiply(ctx.multiply(a, b), c),
                             ctx.multiply(a, ctx.multiply(b, c)))
            assert ctx.is_identity(ctx.multiply(a, ctx.invert(a)))
            assert ctx.is_identity(ctx.multiply(ctx.invert(a), a))
            assert ctx.equal(ctx.multiply(a, ctx.identity()), a)
            assert ctx.equal(ctx.multiply(ctx.identity(), a), a)


def test_half_twist_multiply_then_cancel():
    # (a*b)*b^-1 reduces to the reduced form of a: same forests, and a
    # braid with the same permutation and exponent sum.  This pins how
    # multiply moves the half-twist labels along with the strands.
    for d in (2, 3):
        ctx = context_half_twist(d, 1)
        rng = seeded("half-twist-cancel-%d" % d)
        for _ in range(25):
            a = random_element(ctx, rng, steps=4)
            b = random_element(ctx, rng, steps=4)
            back = ctx.multiply(ctx.multiply(a, b), ctx.invert(b))
            got, want = ctx.reduce(back), ctx.reduce(a)
            assert (got.minus, got.plus) == (want.minus, want.plus)
            assert permutation_of(got.lb.braid) == permutation_of(want.lb.braid)
            assert got.lb.braid.exponent_sum() == want.lb.braid.exponent_sum()
            assert ctx.equal(back, a)


def test_invert_swaps_heads_and_feet():
    ctx = context_trivial(2, 1)
    lam = ctx.lambda_spraige(3, {1, 3})
    inv = ctx.invert(lam)
    assert (inv.heads, inv.feet) == (lam.feet, lam.heads)
    assert ctx.invert(ctx.invert(lam)) == lam


def test_is_identity_requires_square_shape():
    ctx = context_trivial(2, 1)
    with pytest.raises(ValueError):
        ctx.is_identity(ctx.lambda_spraige(1, {1}))
    assert ctx.is_identity(Spraige(Forest.trivial(2, 1),
                                   LabeledBraid.trivial(1),
                                   Forest.trivial(2, 1)))


def test_is_identity_rejects_braid_insertion():
    ctx = context_trivial(2, 2)
    t = Forest.trivial(2, 2)
    ins = Spraige(t, LabeledBraid(BraidWord(2, [1]), (Label(), Label())), t)
    assert not ctx.is_identity(ins)
    # ... and any (F, trivial, F) with trivial labels is the identity
    f = elementary_forest(2, {1, 2}, 2)
    assert ctx.is_identity(Spraige(f, LabeledBraid.trivial(4), f))


def test_identity_criterion_matches_reduction_route():
    ctx = context_full_twist(2, 1)
    rng = seeded("idcross")
    for _ in range(150):
        s = random_element(ctx, rng, 2)
        if rng.random() < 0.5:
            s = ctx.multiply(s, ctx.invert(s))  # identity instance
        direct = ctx.is_identity(s)
        red = ctx.reduce(s)
        via = (red.minus.is_trivial() and red.plus.is_trivial()
               and is_trivial(red.lb.braid)
               and all(not l.word or is_trivial(l.realize(ctx.spec))
                       for l in red.lb.labels))
        assert direct == via


def test_equal_detects_unreduced_representatives():
    ctx = context_trivial(2, 1)
    rng = seeded("equal-unred")
    for _ in range(50):
        s = random_element(ctx, rng, 2)
        t = s
        for _ in range(rng.randint(1, 3)):
            t = ctx.expand(t, rng.randint(1, t.leaves))
        assert ctx.equal(s, t)
    with pytest.raises(ValueError):
        ctx.equal(ctx.lambda_spraige(1, {1}), ctx.identity())


def _oracle_equal(ctx, g, h):
    """Equality as the library decided it before canonical keys: reduce
    g * h^-1 and test it against the identity."""
    if g.heads != h.heads or g.feet != h.feet:
        raise ValueError("shape mismatch")
    return ctx.is_identity(ctx.multiply(g, ctx.invert(h)))


def _scrambled(ctx, rng, s):
    """s expanded 0-3 times at random leaves: an unreduced representative."""
    for _ in range(rng.randint(0, 3)):
        s = ctx.expand(s, rng.randint(1, s.leaves))
    return s


def _pure_commutator(ctx):
    """An (r,r)-element whose braid is [s1^2, s2^2] on its first three
    leaves, with the same forest above and below and trivial labels."""
    forest = Forest.trivial(ctx.d, ctx.r)
    while forest.leaves < 3:
        forest = attach_caret(forest, 1)
    braid = BraidWord(forest.leaves, [1, 1, 2, 2, -1, -1, -2, -2])
    return Spraige(forest, LabeledBraid(braid, [Label()] * forest.leaves), forest)


KEY_CONTEXTS = {"trivial-2-1": context_trivial(2, 1),
                "trivial-3-2": context_trivial(3, 2),
                "full-twist": context_full_twist(2, 1),
                "full-twist-F": context_full_twist(2, 1, flavor="F"),
                "half-twist": context_half_twist(3, 1)}


@pytest.mark.parametrize("name", sorted(KEY_CONTEXTS))
def test_equal_agrees_with_the_product_oracle(name):
    ctx = KEY_CONTEXTS[name]
    rng = seeded("key-oracle-" + name)
    c = _pure_commutator(ctx)
    assert not ctx.is_identity(c)
    for _ in range(40):
        g = random_element(ctx, rng, 3)
        x = random_element(ctx, rng, 2)
        i = rng.randint(1, g.leaves)
        cases = [(g, ctx.expand(g, i), True),
                 (g, ctx.multiply(ctx.multiply(g, x), ctx.invert(x)), True),
                 (g, ctx.multiply(g, c), False),
                 (g, x, None)]
        for a, b, expected in cases:
            a, b = _scrambled(ctx, rng, a), _scrambled(ctx, rng, b)
            answer = ctx.equal(a, b)
            assert answer == _oracle_equal(ctx, a, b)
            assert answer == (ctx.key(a) == ctx.key(b))
            assert answer == ctx.equal(b, a)
            if expected is not None:
                assert answer == expected
        s = _scrambled(ctx, rng, g)
        k = ctx.key(s)
        hash(k)
        assert k == ctx.key(g)
        for leaf in range(1, s.leaves + 1):
            assert ctx.key(ctx.expand(s, leaf)) == k


@pytest.mark.parametrize("name", sorted(KEY_CONTEXTS))
def test_equal_needs_no_normal_form_when_a_cheap_test_decides(name, monkeypatch):
    # Reduced forests that differ decide False, and reduced braids and labels
    # spelled letter for letter alike decide True, before any Dynnikov
    # coordinates or normal form is computed.  x is x0-shaped with a pure braid and one label word
    # on every strand, so reducing it or its expansions compares no labels
    # or braids that are spelled differently.
    ctx = KEY_CONTEXTS[name]
    forest = attach_caret(Forest.trivial(ctx.d, ctx.r), 1)
    minus, plus = attach_caret(forest, 1), attach_caret(forest, ctx.d)
    label = Label((1,)) if ctx.spec.generators else Label()
    x = Spraige(minus, LabeledBraid(BraidWord(minus.leaves, [1, 1]), [label] * minus.leaves),
                plus)
    false_pairs = [(x, ctx.invert(x)), (x, ctx.identity())]
    for a, b in false_pairs:
        assert ctx.reduce(a).minus != ctx.reduce(b).minus
    true_pairs = [(x, ctx.expand(x, i)) for i in range(1, x.leaves + 1)]
    for g, h in true_pairs:
        assert ctx.reduce(h).lb.braid.letters == g.lb.braid.letters

    monkeypatch.setattr(BraidWord, "normal_form", forbidden)
    monkeypatch.setattr(braids, "_dynnikov", forbidden)
    assert not any(ctx.equal(a, b) for a, b in false_pairs)
    assert all(ctx.equal(g, h) for g, h in true_pairs)


@pytest.mark.parametrize("name", sorted(KEY_CONTEXTS))
def test_equality_paths_build_no_normal_form(name, monkeypatch):
    # When the cheap tests leave the answer open, reduction, equal and
    # is_identity (through labeled_uncable, lb_equal and label_equal)
    # compare braids by their Dynnikov coordinates; only key builds normal
    # forms.
    ctx = KEY_CONTEXTS[name]
    rng = seeded("no-normal-form-" + name)
    monkeypatch.setattr(BraidWord, "normal_form", forbidden)
    for _ in range(10):
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        ab = ctx.multiply(a, b)
        assert ctx.is_identity(ctx.multiply(a, ctx.invert(a)))
        assert ctx.equal(ab, ctx.expand(ab, rng.randint(1, ab.leaves)))
        assert ctx.equal(ctx.multiply(ab, ctx.invert(b)), a)


def test_reduce_checks_the_arity_of_every_element():
    ctx = context_trivial(2, 1)
    bare = Spraige(Forest.trivial(3, 1), LabeledBraid.trivial(1), Forest.trivial(3, 1))
    caret = decode("(...)", 3)
    one_caret = Spraige(caret, LabeledBraid.trivial(3), caret)
    for s in (bare, one_caret):
        with pytest.raises(ValueError, match="element has arity 3, context 2"):
            ctx.reduce(s)
        with pytest.raises(ValueError, match="element has arity 3, context 2"):
            ctx.key(s)
        with pytest.raises(ValueError, match="element has arity 3, context 2"):
            ctx.equal(s, s)
        for op in (ctx.in_bF, ctx.in_bT, ctx.invert, ctx.project_to_v, ctx.r_label):
            with pytest.raises(ValueError, match="element has arity 3, context 2"):
                op(s)


def test_left_cancellation():
    ctx = context_full_twist(2, 1)
    rng = seeded("cancel")
    for _ in range(60):
        a = random_element(ctx, rng, 2)
        x = random_element(ctx, rng, 2)
        y = random_element(ctx, rng, 2)
        assert ctx.equal(ctx.multiply(a, x), ctx.multiply(a, x))
        if ctx.equal(ctx.multiply(a, x), ctx.multiply(a, y)):
            assert ctx.equal(x, y)


def test_membership_basics():
    ctx = context_full_twist(2, 1)
    e = ctx.identity()
    assert ctx.in_bF(e) and ctx.in_bT(e)
    caret = decode("(..)", 2)
    el = Spraige(caret, LabeledBraid(BraidWord(2, [1]), (Label(), Label())), caret)
    assert ctx.in_bT(el)
    assert not ctx.in_bF(el)
    bad = context_half_twist(2, 1)
    with pytest.raises(ValueError):
        bad.in_bF(e)


def oracle_in_bF(ctx, s):
    """Membership as decided before contexts checked their flavor: the
    braid of the reduced representative is pure."""
    return is_pure(ctx.reduce(s).lb.braid)


def oracle_in_bT(ctx, s):
    """The reduced representative's braid is a cyclic rotation."""
    return is_cyclic(ctx.reduce(s).lb.braid)


def braided_caret(ctx, n, rotate):
    """An element over one forest with at least n >= 3 leaves: with
    `rotate`, the braid s1 s2 ... rotates the leaves by one place, an
    element of bT; otherwise the braid s1 crosses the first two leaves,
    which lies in neither bF nor bT."""
    f = elementary_forest(ctx.r, {1}, ctx.d)
    while f.leaves < n:
        f = attach_caret(f, f.leaves)
    braid = BraidWord(f.leaves, range(1, f.leaves) if rotate else [1])
    return Spraige(f, LabeledBraid(braid, (Label(),) * f.leaves), f)


@pytest.mark.parametrize("ctx", [context_trivial(2, 1), context_full_twist(2, 1),
                                 context_trivial(3, 2), context_full_twist(2, 1, "F"),
                                 context_trivial(3, 1, "F"), context_full_twist(2, 1, "T"),
                                 context_trivial(3, 2, "T")],
                         ids=["V-trivial-2-1", "V-full-twist", "V-trivial-3-2", "F-full-twist",
                              "F-trivial-3-1", "T-full-twist", "T-trivial-3-2"])
def test_membership_reads_any_representative(ctx):
    # in_bF and in_bT read the braid of the representative they are given;
    # the oracles reduce first.  Both must agree on every expansion.
    rng = seeded("membership-%d-%d-%s" % (ctx.d, ctx.r, ctx.flavor))
    seen = set()
    for k in range(60):
        s = random_element(ctx, rng, 3)
        if ctx.flavor != "F" and k % 3:
            # V takes both kinds of braided caret, T only the rotations
            rotate = ctx.flavor == "T" or k % 3 == 1
            s = ctx.multiply(s, braided_caret(ctx, rng.randint(3, 5), rotate))
        for _ in range(3):
            expected = oracle_in_bF(ctx, s), oracle_in_bT(ctx, s)
            assert (ctx.in_bF(s), ctx.in_bT(s)) == expected
            seen.add(expected)
            s = ctx.expand(s, rng.randint(1, s.leaves))
    if ctx.flavor == "F":
        assert seen == {(True, True)}
    else:
        assert (True, True) in seen and (False, True) in seen
    if ctx.flavor == "V":
        assert (False, False) in seen


def test_flavor_contexts_reject_nonmembers():
    caret = decode("(..)", 2)
    swap = Spraige(caret, LabeledBraid(BraidWord(2, [1]), (Label(), Label())), caret)
    tri = decode("((..).)", 2)
    crossing = Spraige(tri, LabeledBraid(BraidWord(3, [1]), (Label(),) * 3), tri)
    braige = Spraige(Forest.trivial(2, 4), LabeledBraid.trivial(4), decode("(..)|(..)", 2))
    for flavor, bad in (("F", swap), ("T", crossing)):
        ctx = context_trivial(2, 1, flavor)
        e = ctx.identity()
        message = "not an element of b%s" % flavor
        for op in (lambda: ctx.multiply(bad, e), lambda: ctx.multiply(e, bad),
                   lambda: ctx.expand(bad, 1), lambda: ctx.reduce(bad),
                   lambda: ctx.equal(bad, bad), lambda: ctx.equal(e, bad),
                   lambda: ctx.in_bF(bad), lambda: ctx.in_bT(bad),
                   lambda: ctx.invert(bad), lambda: ctx.project_to_v(bad),
                   lambda: ctx.r_label(bad)):
            with pytest.raises(ValueError, match=message):
                op()
        # mu is the inverse of a lambda, which is a member, so it builds
        lam, mu = ctx.lambda_spraige(3, {1, 3}), ctx.mu_spraige(3, {1, 3})
        assert ctx.is_identity(ctx.multiply(lam, mu)) and ctx.in_bF(mu)
    ctx_f = context_trivial(2, 1, "F")
    with pytest.raises(ValueError, match="not an element of bF"):
        ctx_f.cable_on_feet(braige, BraidWord(2, [1]), (Label(), Label()))
    # the swap is a rotation of two leaves, so T takes it
    ctx_t = context_trivial(2, 1, "T")
    assert ctx_t.in_bT(swap) and not ctx_t.in_bF(swap)
    assert ctx_t.in_bF(ctx_t.multiply(swap, swap))


def test_a_spec_of_pure_generators_makes_flavor_contexts():
    full = half_twist(2) * half_twist(2)
    found = LabelGroupSpec(2, (full,))
    declared = LabelGroupSpec(2, (full,), require_pure=True)
    assert found.require_pure and found == declared and hash(found) == hash(declared)
    for flavor in ("F", "T"):
        assert GroupContext(2, 1, found, flavor).spec == declared
    assert LabelGroupSpec.trivial(3) == LabelGroupSpec(3, (), require_pure=True)
    impure = LabelGroupSpec(2, (half_twist(2),))
    assert not impure.require_pure
    with pytest.raises(ValueError, match="^flavor F needs a pure label group; "
                                         "generator '1' is not pure$"):
        GroupContext(2, 1, impure, "F")


def test_bF_closed_under_products():
    ctx = context_full_twist(2, 1)
    rng = seeded("closure")
    found = 0
    for _ in range(200):
        a = random_element(ctx, rng, 2)
        b = random_element(ctx, rng, 2)
        if ctx.in_bF(a) and ctx.in_bF(b):
            found += 1
            assert ctx.in_bF(ctx.multiply(a, b))
    assert found >= 20


def nested_ternary_pair():
    """The nested ternary pair of 8-leaf forests with the rotated leaf
    pairing whose reduction drops to 6 leaves."""
    minus = decode("((...)..)|(...)", 3)
    plus = decode("(.(...).)|(...)", 3)
    rho = Permutation((2, 3, 4, 1, 8, 5, 6, 7))
    return minus, rho, plus


def test_v_reduction_of_nested_example():
    minus, rho, plus = nested_ternary_pair()
    red = v_reduce(PairedForestDiagram(minus, rho, plus))
    assert red.minus.leaves == 6
    assert red.minus == decode("(...)|(...)", 3)
    assert red.plus == decode("(...)|(...)", 3)
    assert red.perm == Permutation((2, 1, 6, 3, 4, 5))


def test_braided_reduction_of_nested_example():
    ctx = context_trivial(3, 2)
    minus, rho, plus = nested_ternary_pair()
    s = Spraige(minus, LabeledBraid(word_from_permutation(rho), (Label(),) * 8), plus)
    red = ctx.reduce(s)
    assert s.leaves == 8 and red.leaves == 6


def test_projection_is_a_homomorphism():
    rng = seeded("projection")
    for ctx in (context_trivial(3, 2), context_full_twist(2, 1)):
        for _ in range(60):
            g = random_element(ctx, rng, 2)
            h = random_element(ctx, rng, 2)
            lhs = ctx.project_to_v(ctx.multiply(g, h))
            rhs = v_multiply(ctx.project_to_v(g), ctx.project_to_v(h))
            assert v_equal(lhs, rhs)
    with pytest.raises(ValueError):
        context_half_twist(2, 1).project_to_v(context_half_twist(2, 1).identity())


def test_v_expand_matches_expansion_before_projection():
    rng = seeded("v-expand")
    for ctx in (context_trivial(3, 2), context_full_twist(2, 1)):
        for _ in range(60):
            s = random_element(ctx, rng, 2)
            i = rng.randint(1, s.leaves)
            pfd = v_expand(ctx.project_to_v(s), i)
            assert pfd == ctx.project_to_v(ctx.expand(s, i))
            assert v_reduce(pfd) == v_reduce(ctx.project_to_v(s))


def test_projection_identity():
    ctx = context_trivial(2, 1)
    pfd = ctx.project_to_v(ctx.identity())
    assert pfd.perm.is_identity() and pfd.minus == pfd.plus


def test_retraction_identities():
    ctx = context_full_twist(2, 2)
    rng = seeded("retract")
    for _ in range(100):
        h = random_label(rng, ctx, max_len=3)
        assert braid_equal(ctx.r_label(ctx.iota_label(h)), h.realize(ctx.spec))
    for _ in range(100):
        h1, h2 = random_label(rng, ctx, 3), random_label(rng, ctx, 3)
        prod = ctx.multiply(ctx.iota_label(h1), ctx.iota_label(h2))
        assert braid_equal(ctx.r_label(prod), (h1 * h2).realize(ctx.spec))
    # r(g g') = r(g) for unlabeled g'
    for _ in range(100):
        g = random_element(ctx, rng, 2)
        gp = random_element(ctx, rng, 2)
        gp = Spraige(gp.minus, LabeledBraid(gp.lb.braid, (Label(),) * gp.leaves), gp.plus)
        assert braid_equal(ctx.r_label(ctx.multiply(g, gp)), ctx.r_label(g))


def test_retraction_is_representative_invariant():
    ctx = context_full_twist(2, 2)
    rng = seeded("retract-inv")
    for _ in range(60):
        g = random_element(ctx, rng, 2)
        t = g
        for _ in range(3):
            t = ctx.expand(t, rng.randint(1, t.leaves))
        assert braid_equal(ctx.r_label(t), ctx.r_label(g))


def test_iota_prime():
    ctx = context_full_twist(2, 2)
    h = Label((1,))
    assert ctx.is_identity(ctx.iota_prime(Label()))
    assert ctx.is_identity(ctx.multiply(ctx.iota_prime(h), ctx.iota_prime(h.inverse())))
    # commutes with an element supported away from the first caret
    f2 = elementary_forest(2, {2}, 2)
    other = Spraige(f2, LabeledBraid(BraidWord(3, [2, 2]), (Label(),) * 3), f2)
    ip = ctx.iota_prime(h)
    assert ctx.equal(ctx.multiply(ip, other), ctx.multiply(other, ip))


def test_label_maps_agree_with_a_fresh_spec_and_reject_undeclared_generators():
    # r_label realizes through the spec's memo; a fresh context has none
    for build, d, h, letters in (
            (context_full_twist, 2, Label((1, -1, 1)), (1, 1, -1, -1, 1, 1)),
            (context_half_twist, 3, Label((-1, 1, 1)), (-1, -2, -1, 1, 2, 1, 1, 2, 1))):
        ctx = build(d, 2)
        for _ in range(2):  # cold memo, then warm
            fresh = build(d, 2)
            assert ctx.r_label(ctx.iota_label(h)).letters == letters
            assert ctx.r_label(ctx.iota_prime(h)) == fresh.r_label(fresh.iota_prime(h))
            prod = ctx.multiply(ctx.iota_label(h), ctx.iota_label(h.inverse()))
            assert ctx.r_label(prod) == fresh.r_label(fresh.multiply(
                fresh.iota_label(h), fresh.iota_label(h.inverse())))
            assert ctx.iota_label(h) == fresh.iota_label(h)
            assert ctx.iota_prime(h) == fresh.iota_prime(h)
            for fn in (ctx.iota_label, ctx.iota_prime):
                with pytest.raises(ValueError) as err:
                    fn(Label((2,)))
                assert str(err.value) == "label references undeclared generator g2"


def test_factorization_into_unlabeled_and_label_parts():
    ctx = context_full_twist(2, 2)
    rng = seeded("factor")
    for _ in range(60):
        g = random_element(ctx, rng, 2)
        lb = g.lb
        rho_inv = permutation_of(lb.braid).inverse()
        unlabeled = Spraige(g.minus, LabeledBraid(lb.braid, (Label(),) * lb.strands),
                            g.plus)
        labs = tuple(lb.labels[rho_inv(j + 1) - 1] for j in range(lb.strands))
        labelpart = Spraige(g.plus, LabeledBraid(BraidWord(lb.strands), labs), g.plus)
        assert ctx.equal(g, ctx.multiply(unlabeled, labelpart))


def test_dangling_equal_under_cabled_multipliers(monkeypatch):
    # the cable test compares braids without any normal form
    monkeypatch.setattr(BraidWord, "normal_form", forbidden)
    ctx = make_context(2, 1, (BraidWord(2, [1, 1]),))
    rng = seeded("dangling")
    for _ in range(100):
        m = rng.randint(2, 6)
        x = random_elementary_braige(ctx, rng, m)
        c = width_preserving_multiplier(rng, x)
        mus = tuple(random_label(rng, ctx) for _ in range(x.feet))
        y = ctx.cable_on_feet(x, c, mus)
        assert ctx.dangling_equal(x, y)
        assert ctx.dangling_equal(y, x)
        assert ctx.dangling_equal(x, x)
        assert ctx.arc_support(x) == ctx.arc_support(y)


def test_dangling_rejects_distinct_forests():
    ctx = context_trivial(2, 1)
    x = Spraige(Forest.trivial(2, 3), LabeledBraid.trivial(3), decode("(..)|.", 2))
    y = Spraige(Forest.trivial(2, 3), LabeledBraid.trivial(3), decode(".|(..)", 2))
    assert not ctx.dangling_equal(x, y)


def test_dangling_rejects_forest_moving_cable():
    # a block crossing that sends the caret slot to a leaf slot is not a
    # legal dangling move within the same forest
    ctx = context_trivial(2, 1)
    f = decode("(..)|.", 2)
    x = Spraige(Forest.trivial(2, 3), LabeledBraid.trivial(3), f)
    z = Spraige(Forest.trivial(2, 3),
                LabeledBraid(cable(BraidWord(2, [1]), (2, 1)), (Label(),) * 3), f)
    assert not ctx.dangling_equal(x, z)


def test_dangling_flavor_restriction():
    # the block swap of two carets is a cyclic rotation of the four feet:
    # a dangling move in T but not in F, where only pure multipliers exist
    f = decode("(..)|(..)", 2)
    x = Spraige(Forest.trivial(2, 4), LabeledBraid.trivial(4), f)
    swap, square = BraidWord(2, [1]), BraidWord(2, [1, 1])
    ctx_f = context_trivial(2, 1, flavor="F")
    with pytest.raises(ValueError, match="not an element of bF"):
        ctx_f.cable_on_feet(x, swap, (Label(), Label()))
    assert ctx_f.dangling_equal(x, ctx_f.cable_on_feet(x, square, (Label(), Label())))
    ctx_t = context_trivial(2, 1, flavor="T")
    assert ctx_t.dangling_equal(x, ctx_t.cable_on_feet(x, swap, (Label(), Label())))


def test_value_classes_hash_with_their_equality():
    rng = seeded("hash")
    for ctx in (context_half_twist(3, 1), context_full_twist(2, 2)):
        elements = [ctx.reduce(random_element(ctx, rng)) for _ in range(12)]
        # a copy built from fresh objects is equal and hashes equal
        copies = [Spraige(decode(str(s.minus), ctx.d),
                          LabeledBraid(BraidWord(s.lb.strands, list(s.lb.braid.letters)),
                                       [Label(l.word) for l in s.lb.labels]),
                          decode(str(s.plus), ctx.d)) for s in elements]
        for s, c in zip(elements, copies):
            assert s == c and hash(s) == hash(c) and hash(s.lb) == hash(c.lb)
        assert set(copies) == set(elements)
        assert len(set(elements)) == len({(str(s.minus), s.lb.braid, s.lb.labels, str(s.plus))
                                          for s in elements})
        spec = make_context(ctx.d, ctx.r, ctx.spec.generators, pure=ctx.spec.require_pure).spec
        assert spec == ctx.spec and hash(spec) == hash(ctx.spec)
        assert {spec, ctx.spec} == {ctx.spec}
        if ctx.spec.require_pure:
            pfds = [ctx.project_to_v(s) for s in elements]
            again = [ctx.project_to_v(c) for c in copies]
            assert [hash(p) for p in pfds] == [hash(p) for p in again]
            assert set(pfds) == set(again)


def test_arc_support_trivial_braid():
    ctx = context_trivial(3, 1)
    f = decode("(...)|.|(...)", 3)
    x = Spraige(Forest.trivial(3, 7), LabeledBraid.trivial(7), f)
    assert ctx.arc_support(x) == frozenset({frozenset({1, 2, 3}),
                                            frozenset({5, 6, 7})})
    sup = ctx.arc_support(x)
    flat = [v for block in sup for v in block]
    assert len(flat) == len(set(flat))


def test_generated_by_splittings_braids_and_labels():
    # random elements stay expressible through the generators used by the
    # random builder itself; close the loop by checking a representative
    # rebuilt from its own factorization
    ctx = context_half_twist(3, 1)
    rng = seeded("generate")
    for _ in range(30):
        g = random_element(ctx, rng, 3)
        rebuilt = ctx.multiply(ctx.multiply(g, ctx.invert(g)), g)
        assert ctx.equal(rebuilt, g)


# -- group laws as properties, on elements with 4-5 carets -----------------------

PROPERTY_CONTEXTS = {"half-twist": context_half_twist(3, 1),
                     "full-twist": context_full_twist(2, 1)}


@st.composite
def _tree(draw, ctx, carets):
    forest = Forest.trivial(ctx.d, ctx.r)
    for _ in range(carets):
        forest = attach_caret(forest, draw(st.integers(1, forest.leaves)))
    return forest


@st.composite
def _element(draw, ctx):
    """A (1,1)-element: two random trees with the same number (4 or 5) of
    carets, a signed braid word of up to one letter per leaf and label
    words of up to two letters."""
    carets = draw(st.integers(4, 5))
    minus, plus = draw(_tree(ctx, carets)), draw(_tree(ctx, carets))
    n = minus.leaves
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    braid = BraidWord(n, draw(st.lists(letter, max_size=n)))
    gens = len(ctx.spec.generators)
    label = st.lists(st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i))),
                     max_size=2).map(Label)
    labels = draw(st.lists(label, min_size=n, max_size=n))
    return Spraige(minus, LabeledBraid(braid, labels), plus)


def _same_representative(ctx, x, y):
    return x.minus == y.minus and x.plus == y.plus and lb_equal(ctx.spec, x.lb, y.lb)


@pytest.mark.parametrize("name", sorted(PROPERTY_CONTEXTS))
def test_reduce_is_idempotent_and_undoes_expansion(name):
    ctx = PROPERTY_CONTEXTS[name]

    @settings(max_examples=40)
    @given(_element(ctx), st.integers(1, 20))
    def check(a, i):
        r = ctx.reduce(a)
        again = ctx.reduce(r)
        assert (again.minus, again.plus, again.lb) == (r.minus, r.plus, r.lb)
        assert _same_representative(ctx, ctx.reduce(ctx.expand(a, (i - 1) % a.leaves + 1)), r)

    check()


@pytest.mark.parametrize("name", sorted(PROPERTY_CONTEXTS))
def test_product_is_associative_and_has_inverses(name):
    ctx = PROPERTY_CONTEXTS[name]

    @settings(max_examples=20)
    @given(_element(ctx), _element(ctx), _element(ctx))
    def check(a, b, c):
        assert ctx.equal(ctx.multiply(a, ctx.multiply(b, c)), ctx.multiply(ctx.multiply(a, b), c))
        assert ctx.is_identity(ctx.multiply(a, ctx.invert(a)))

    check()
