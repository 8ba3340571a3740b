import pytest

from braidedthompson import (BraidWord, Label, LabeledBraid, LabelGroupSpec,
                             braid_equal, half_twist, is_pure, is_trivial,
                             lb_equal, lb_invert, lb_multiply, permutation_of,
                             ribbon_spec)
from braidedthompson.labeled import labeled_cable, labeled_uncable
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
        assert all(l.is_identity_word() or is_trivial(l.realize(spec))
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
