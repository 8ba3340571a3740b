import pytest

from braidedthompson import (BraidWord, Label, LabeledBraid, LabelGroupSpec,
                             braid_equal, cable, delete_strands, half_twist,
                             is_pure, is_trivial, lb_equal, lb_invert,
                             lb_multiply, permutation_of, ribbon_spec, shifted)
from braidedthompson.labeled import label_equal, labeled_cable, labeled_uncable
from conftest import seeded


def spec_full_twist_b2():
    return LabelGroupSpec(2, (BraidWord(2, [1, 1]),), require_pure=True)


def spec_half_twist_b3():
    return LabelGroupSpec(3, (half_twist(3),))


def random_lb(rng, n, spec, max_braid=5, max_label=2):
    letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
               for _ in range(rng.randint(0, max_braid))] if n > 1 else []
    ngen = len(spec.generators)
    labels = tuple(Label(tuple(rng.choice([1, -1]) * rng.randint(1, ngen)
                               for _ in range(rng.randint(0, max_label))))
                   if ngen else Label() for _ in range(n))
    return LabeledBraid(BraidWord(n, letters), labels)


def test_spec_validation():
    with pytest.raises(ValueError):
        LabelGroupSpec(2, (BraidWord(3, [1]),))
    with pytest.raises(ValueError):
        LabelGroupSpec(2, (BraidWord(2, [1]),), require_pure=True)
    spec = LabelGroupSpec(2, (BraidWord(2, [1]),))
    assert not spec.require_pure


def test_multiply_trivials():
    spec = spec_full_twist_b2()
    t = LabeledBraid.trivial(3)
    assert lb_equal(spec, lb_multiply(t, t), t)
    lam = LabeledBraid(BraidWord(3), (Label((1,)), Label(), Label((-1,))))
    b = LabeledBraid(BraidWord(3, [1, 2]), (Label(),) * 3)
    prod = lb_multiply(lam, b)
    assert prod.braid == b.braid and prod.labels == lam.labels


def test_identity_factors_give_an_equal_word():
    # an empty label or braid factor leaves the other operand's word as it
    # was: nothing is reduced or respelled
    rng = seeded("identity-factors")
    spec = spec_half_twist_b3()
    for _ in range(50):
        x = random_lb(rng, 4, spec)
        for a, b in zip(x.labels, x.labels[1:] + x.labels[:1]):
            assert (a * Label()).word == (Label() * a).word == a.word
            assert (a * b).word == a.word + b.word
        t = LabeledBraid.trivial(4)
        y = LabeledBraid(BraidWord(4), x.labels)
        for prod in (lb_multiply(x, t), lb_multiply(t, x)):
            assert prod == x and prod.braid.letters == x.braid.letters
        assert lb_multiply(y, x).braid.letters == x.braid.letters
        assert lb_multiply(x, y).braid.letters == x.braid.letters


def test_invert_solves_for_labels():
    # (sigma_1, (g, e)) inverts to (sigma_1^-1, (e, g^-1))
    spec = spec_full_twist_b2()
    g = Label((1,))
    x = LabeledBraid(BraidWord(2, [1]), (g, Label()))
    xi = lb_invert(x)
    assert str(xi.braid) == "-1"
    assert xi.labels == (Label(), g.inverse())
    assert lb_equal(spec, lb_multiply(x, xi), LabeledBraid.trivial(2))
    assert lb_equal(spec, lb_invert(lb_invert(x)), x)


def test_conjugation_permutes_labels():
    spec = spec_half_twist_b3()
    rng = seeded("lb-conj")
    e = Label()
    for _ in range(100):
        n = rng.randint(2, 6)
        bw = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                           for _ in range(rng.randint(0, 6))])
        labs = tuple(Label(tuple(rng.choice([1, -1])
                                 for _ in range(rng.randint(0, 2)))) for _ in range(n))
        conj = lb_multiply(
            lb_multiply(LabeledBraid(bw, (e,) * n), LabeledBraid(BraidWord(n), labs)),
            lb_invert(LabeledBraid(bw, (e,) * n)))
        rho = permutation_of(bw)
        expect = LabeledBraid(BraidWord(n), tuple(labs[rho(i + 1) - 1] for i in range(n)))
        assert lb_equal(spec, conj, expect)


def test_group_axioms_random():
    spec = spec_half_twist_b3()
    rng = seeded("lb-axioms")
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b, c = (random_lb(rng, n, spec) for _ in range(3))
        assert lb_equal(spec, lb_multiply(lb_multiply(a, b), c),
                        lb_multiply(a, lb_multiply(b, c)))
        prod = lb_multiply(a, lb_invert(a))
        assert is_trivial(prod.braid)
        assert all(not l.word or is_trivial(l.realize(spec))
                   for l in prod.labels)


def test_forgetting_labels_is_a_homomorphism():
    spec = spec_half_twist_b3()
    rng = seeded("lb-forget")
    for _ in range(100):
        n = rng.randint(2, 5)
        a, b = (random_lb(rng, n, spec) for _ in range(2))
        assert lb_multiply(a, b).braid == a.braid * b.braid


def test_pure_braid_commutes_with_label_tuple():
    spec = spec_full_twist_b2()
    rng = seeded("lb-pure")
    e = Label()
    for _ in range(100):
        n = rng.randint(2, 5)
        sq = []
        for _ in range(rng.randint(0, 2)):
            i = rng.randint(1, n - 1)
            sq.extend([i, i])
        pure = LabeledBraid(BraidWord(n, sq), (e,) * n)
        lam = LabeledBraid(BraidWord(n),
                           tuple(Label((rng.choice([1, -1]),)) for _ in range(n)))
        assert lb_equal(spec, lb_multiply(pure, lam), lb_multiply(lam, pure))


def test_lb_equal_decides_after_realization():
    spec = spec_full_twist_b2()
    x = LabeledBraid(BraidWord(1), (Label((1, -1)),))
    y = LabeledBraid(BraidWord(1), (Label(),))
    assert lb_equal(spec, x, y)
    z = LabeledBraid(BraidWord(3, [1, 2, 1]), (Label(),) * 3)
    w = LabeledBraid(BraidWord(3, [2, 1, 2]), (Label(),) * 3)
    assert lb_equal(LabelGroupSpec(3), z, w)
    with pytest.raises(ValueError):
        lb_equal(spec, x, LabeledBraid.trivial(2))


def test_ribbon_specs():
    rs = ribbon_spec(2, oriented=False)
    assert str(rs.generators[0]) == "1" and not rs.require_pure
    rs3 = ribbon_spec(3, oriented=True)
    assert str(rs3.generators[0]) == "1 2 1 1 2 1"
    assert rs3.require_pure
    for d in range(2, 6):
        assert is_pure(ribbon_spec(d, oriented=True).generators[0])
    with pytest.raises(ValueError):
        ribbon_spec(1, oriented=False)


def test_label_parsing_and_realization():
    spec = spec_half_twist_b3()
    assert Label.parse("e") == Label()
    assert Label.parse("g1 g1^-1").word == (1, -1)
    # an "e" among the tokens stands for nothing, as in a session's label run
    assert Label.parse("g1 e g2^-1") == Label.parse("g1 g2^-1")
    assert Label.parse("e e") == Label() == Label.parse(" e ")
    assert str(Label((1, -1))) == "g1 g1^-1"
    assert is_trivial(Label((1, -1)).realize(spec))
    assert braid_equal(Label((1,)).realize(spec), half_twist(3))
    with pytest.raises(ValueError):
        Label.parse("h2")
    with pytest.raises(ValueError):
        Label((2,)).realize(spec)


def test_long_label_realizes_to_concatenated_generator_words():
    spec = LabelGroupSpec(3, (BraidWord(3, [1, -2]), BraidWord(3, [2, 2, 1])))
    rng = seeded("long-label")
    word = [rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(200)]
    expected = BraidWord(3)
    for x in word:
        g = spec.generators[abs(x) - 1]
        expected = expected * (g if x > 0 else g.inverse())
    assert Label(word).realize(spec) == expected
    with pytest.raises(ValueError) as err:
        Label(word + [-3]).realize(spec)
    assert str(err.value) == "label references undeclared generator g3"


def test_label_indices_are_ascii_decimal_digits():
    # int() would read these as g10, g1, g3 and g-1
    for tok in ("g1_0", "g+1", "g\u0663", "g-1", "g1_0^-1", "g 1"):
        with pytest.raises(ValueError) as err:
            Label.parse("g2 " + tok)
        assert str(err.value) == "bad label token %r" % tok.split()[0]
    with pytest.raises(ValueError, match="^generator index must be positive in 'g00'$"):
        Label.parse("g00")
    assert Label.parse("g10 g01^-1").word == (10, -1)


def test_non_integer_generator_indices_are_rejected_at_construction():
    # Label([1.5]).realize(spec) used to report "undeclared generator g1"
    for word in ([1.5], [1, 2.0], [True], [-1, None]):
        with pytest.raises(ValueError) as err:
            Label(word)
        assert str(err.value) == "generator indices must be integers: %r" % (tuple(word),)
    with pytest.raises(ValueError, match="^generator indices are signed and nonzero$"):
        Label([1, 0])
    spec = LabelGroupSpec(3, (BraidWord(3, [1]), BraidWord(3, [2, -1])))
    assert Label([2, -1]).realize(spec).letters == (2, -1, -1)


def test_realizations_are_memoized_per_spec():
    spec = LabelGroupSpec(3, (BraidWord(3, [1]), BraidWord(3, [2, -1])))
    other = LabelGroupSpec(3, (BraidWord(3, [2]), BraidWord(3, [2, -1])))
    twin = LabelGroupSpec(3, spec.generators)
    before = hash(spec)
    h = Label((1, -2))
    real = h.realize(spec)
    assert real.letters == (1, 1, -2)
    # one BraidWord per distinct word, and none shared with other generators
    assert h.realize(spec) is real and Label((1, -2)).realize(spec) is real
    assert h.realize(other).letters == (2, 1, -2)
    assert h.realize(spec).letters == (1, 1, -2)
    assert h.realize(twin) == real
    assert label_equal(spec, h, Label((1, 1, -1, -2)))
    # the memo is not part of the spec's value
    assert spec == twin and hash(spec) == hash(twin) == before and spec != other
    for _ in range(2):  # an undeclared generator raises every time
        with pytest.raises(ValueError) as err:
            Label((1, 3)).realize(spec)
        assert str(err.value) == "label references undeclared generator g3"


# -- the labeled cable -----------------------------------------------------------

def random_widths(rng, n, d):
    return [d if rng.random() < 0.5 else 1 for _ in range(n)]


def test_uncable_inverts_cable_word_for_word():
    rng = seeded("labeled-cable")
    for spec in (spec_half_twist_b3(), spec_full_twist_b2()):
        d = spec.degree
        for _ in range(60):
            x = random_lb(rng, rng.randint(1, 5), spec)
            widths = random_widths(rng, x.strands, d)
            y = labeled_cable(spec, x, widths)
            assert y.strands == sum(widths)
            assert labeled_uncable(spec, y, widths) == x
    # all widths 1: cabling changes nothing
    x = random_lb(rng, 4, spec_half_twist_b3())
    assert labeled_cable(spec_half_twist_b3(), x, [1] * 4) == x


def test_cable_copies_labels_and_inserts_label_braid():
    spec = spec_full_twist_b2()
    g = Label((1,))
    y = labeled_cable(spec, LabeledBraid(BraidWord(2, [1]), (Label(), g)), [1, 2])
    assert y.labels == (Label(), g, g)
    # the full twist of the second bundle sits on top of the cabled crossing
    assert y.braid == BraidWord(3, [2, 2, 1, 2])


def test_cable_and_labeled_cable_and_uncable_read_one_width_rule():
    # a bad width is the same ValueError at the three ways in, never a
    # TypeError, and its message names the width, not the bundle rule
    spec = spec_full_twist_b2()
    x = LabeledBraid(BraidWord(2, [1]), (Label(), Label((1,))))
    for w, message in (("a", "width 'a' is not an integer"),
                       (None, "width None is not an integer"),
                       (1.5, "width 1.5 is not an integer"),
                       (True, "width True is not an integer"),
                       (0, "width 0 must be >= 1")):
        for call in (lambda: cable(x.braid, [1, w]), lambda: labeled_cable(spec, x, [1, w]),
                     lambda: labeled_uncable(spec, x, [1, w])):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message, (w, call)
    # an integer width >= 1 that is neither 1 nor d names d
    for spec, w in ((spec, 3), (spec_half_twist_b3(), 2)):
        for call in (lambda: labeled_cable(spec, x, [1, w]),
                     lambda: labeled_uncable(spec, x, [1, w])):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "a cabled strand must become %d strands" % spec.degree


def test_uncable_accepts_labels_equal_after_realization():
    spec = spec_full_twist_b2()
    g = Label((1,))
    y = LabeledBraid(BraidWord(3, [2, 2, 1, 2]), (Label(), g, Label((1, 1, -1))))
    x = labeled_uncable(spec, y, [1, 2])
    assert x == LabeledBraid(BraidWord(2, [1]), (Label(), g))


def test_uncable_rejects_a_bundle_label_of_another_element():
    rng = seeded("labeled-uncable-label")
    for spec in (spec_half_twist_b3(), spec_full_twist_b2()):
        d = spec.degree
        for _ in range(30):
            x = random_lb(rng, rng.randint(1, 4), spec)
            widths = random_widths(rng, x.strands, d)
            k = rng.randrange(x.strands)
            widths[k] = d
            y = labeled_cable(spec, x, widths)
            # g1 has infinite order, so h and h*g1 realize different braids
            labels = list(y.labels)
            j = sum(widths[:k]) + rng.randint(1, d - 1)
            labels[j] = labels[j] * Label((1,))
            assert labeled_uncable(spec, LabeledBraid(y.braid, labels), widths) is None


def test_uncable_rejects_a_crossing_inside_a_bundle():
    rng = seeded("labeled-uncable-crossing")
    for spec in (spec_half_twist_b3(), spec_full_twist_b2()):
        d = spec.degree
        for _ in range(30):
            x = random_lb(rng, rng.randint(1, 4), spec)
            widths = random_widths(rng, x.strands, d)
            k = rng.randrange(x.strands)
            widths[k] = d
            y = labeled_cable(spec, x, widths)
            first = sum(widths[:k]) + 1
            crossing = BraidWord(y.strands, [rng.choice([1, -1]) * rng.randint(first, first + d - 2)])
            extra = LabeledBraid(crossing * y.braid, y.labels)
            assert labeled_uncable(spec, extra, widths) is None


# -- differential oracles: the cable move and the identity tests as they were
# before uncabling went through labeled_cable and identity through the
# equality routines

def oracle_bundles(spec, widths):
    d = spec.degree
    wide = [j for j, w in enumerate(widths) if w > 1]
    if any(widths[j] != d for j in wide):
        raise ValueError("a cabled strand must become %d strands" % d)
    return [(j, j + k * (d - 1)) for k, j in enumerate(wide)]


def oracle_cable_with_tops(braid, widths, tops):
    out = cable(braid, widths)
    top = []
    for pos, real in reversed(tops):
        top.extend(shifted(real, pos, out.strands).letters)
    return BraidWord(out.strands, top + list(out.letters)) if top else out


def oracle_labeled_cable(spec, x, widths):
    widths = list(widths)
    bundles = oracle_bundles(spec, widths)
    labels = list(x.labels)
    for j, _ in reversed(bundles):
        labels[j:j + 1] = (x.labels[j],) * widths[j]
    tops = [(pos, x.labels[j].realize(spec)) for j, pos in bundles if x.labels[j].word]
    return LabeledBraid(oracle_cable_with_tops(x.braid, widths, tops), labels)


def oracle_labeled_uncable(spec, x, widths):
    widths = list(widths)
    d = spec.degree
    labels = []
    killed = []
    tops = []
    done = 0
    for _, pos in oracle_bundles(spec, widths):
        lead = x.labels[pos]
        real = lead.realize(spec)
        if any(lab != lead and not braid_equal(lab.realize(spec), real)
               for lab in x.labels[pos + 1:pos + d]):
            return None
        labels.extend(x.labels[done:pos + 1])
        killed.extend(range(pos + 2, pos + d + 1))
        tops.append((pos, real))
        done = pos + d
    labels.extend(x.labels[done:])
    braid = delete_strands(x.braid, killed) if killed else x.braid
    if not braid_equal(x.braid, oracle_cable_with_tops(braid, widths, tops)):
        return None
    return LabeledBraid(braid, labels)


def oracle_is_trivial(w):
    if not w.letters:
        return True
    if w.exponent_sum() != 0:
        return False
    return w.normal_form() == (0, ())


def oracle_lb_is_identity(spec, x):
    if not oracle_is_trivial(x.braid):
        return False
    return all(not lab.word or oracle_is_trivial(lab.realize(spec))
               for lab in x.labels)


def oracle_specs():
    """The trivial, full-twist and half-twist label groups in B_2 and B_3."""
    for d in (2, 3):
        delta = half_twist(d)
        yield LabelGroupSpec(d, (), require_pure=True)
        yield LabelGroupSpec(d, (delta * delta,), require_pure=True)
        yield LabelGroupSpec(d, (delta,))


def cable_cases(rng, spec):
    """(x, widths): a true labeled cable next to perturbed copies of it."""
    d = spec.degree
    y = random_lb(rng, rng.randint(1, 4), spec)
    widths = random_widths(rng, y.strands, d)
    wide = [k for k, w in enumerate(widths) if w > 1]
    x = labeled_cable(spec, y, widths)
    n = x.strands
    yield x, widths
    # a random labeled braid with the right strand count
    yield random_lb(rng, n, spec, max_braid=8), widths
    # an extra letter anywhere
    if n > 1:
        letter = rng.choice([1, -1]) * rng.randint(1, n - 1)
        at = rng.randint(0, len(x.braid))
        letters = list(x.braid.letters)
        letters.insert(at, letter)
        yield LabeledBraid(BraidWord(n, letters), x.labels), widths
    if not wide:
        return
    first = sum(widths[:rng.choice(wide)])  # 0-based first strand of a bundle
    # a crossing inside that bundle, on top or at the bottom
    crossing = BraidWord(n, [rng.choice([1, -1]) * rng.randint(first + 1, first + d - 1)])
    braid = crossing * x.braid if rng.random() < 0.5 else x.braid * crossing
    yield LabeledBraid(braid, x.labels), widths
    # a non-leader label of another element, and one equal in H
    j = first + rng.randint(1, d - 1)
    for extra in ((1,), (1, -1)) if spec.generators else ((),):
        labels = list(x.labels)
        labels[j] = labels[j] * Label(extra)
        yield LabeledBraid(x.braid, labels), widths
    # the leader's label changed instead
    if spec.generators:
        labels = list(x.labels)
        labels[first] = Label((-1,)) * labels[first]
        yield LabeledBraid(x.braid, labels), widths


def same_lb(a, b):
    if a is None or b is None:
        return a is b
    return a.braid.letters == b.braid.letters and a.labels == b.labels


def test_labeled_cable_and_uncable_agree_with_the_oracles():
    rng = seeded("labeled-uncable-oracle")
    counts = {"cases": 0, "cables": 0}
    for spec in oracle_specs():
        for _ in range(180):
            for x, widths in cable_cases(rng, spec):
                counts["cases"] += 1
                got = labeled_uncable(spec, x, widths)
                assert same_lb(got, oracle_labeled_uncable(spec, x, widths)), (spec, x, widths)
                if got is not None:
                    counts["cables"] += 1
                    assert same_lb(labeled_cable(spec, got, widths),
                                   oracle_labeled_cable(spec, got, widths))
    assert counts["cases"] >= 5000
    # both answers are well represented
    assert 0.2 < counts["cables"] / counts["cases"] < 0.8, counts


def test_identity_tests_agree_with_the_oracles():
    rng = seeded("identity-oracle")
    verdicts = set()
    for spec in oracle_specs():
        for _ in range(300):
            y = random_lb(rng, rng.randint(1, 5), spec)
            ident = lb_multiply(y, lb_invert(y))
            near = random_lb(rng, y.strands, spec, max_braid=1, max_label=1)
            for x in (ident, y, lb_multiply(ident, near), lb_multiply(ident, lb_multiply(y, y))):
                expected = oracle_lb_is_identity(spec, x)
                verdicts.add(expected)
                assert lb_equal(spec, x, LabeledBraid.trivial(x.strands)) == expected
                assert is_trivial(x.braid) == oracle_is_trivial(x.braid)
                for lab in x.labels:
                    real = lab.realize(spec)
                    assert is_trivial(real) == oracle_is_trivial(real)
    assert verdicts == {True, False}
