"""Acceptance suite: every criterion is one test that prints its own
pass line (run with -v or -s for the per-criterion report).  All checks
are exact; the only tolerances are the stated wall-clock targets."""

import json
import math
import pathlib
import time

import jsonschema

from braidedthompson import (BraidWord, Forest, Label, LabeledBraid,
                             Permutation, SimplicialComplex, Spraige,
                             braid_equal, cable, complete_join_check,
                             d_matching_linear, delete_strands,
                             duplicated_cover, forest_to_matching,
                             format_element, format_header, format_session,
                             HeightFunction, is_homology_wcm, is_trivial,
                             join, matching_to_forest, morse_check,
                             morse_sweep, parse_session,
                             permutation_of, reduced_homology, simplex_counts,
                             v_equal, v_multiply, v_reduce)
from braidedthompson.cli import RESULT_SCHEMA, main as cli_main
from braidedthompson.forests import decode
from conftest import (complex_library, context_full_twist, context_half_twist,
                      context_trivial, random_complex, random_element,
                      random_elementary_braige, random_label,
                      reduce_by_restarts, seeded, width_preserving_multiplier,
                      make_context)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def report(n, text):
    print("ACCEPTANCE %2d PASS: %s" % (n, text))


def test_criterion_01_group_laws():
    contexts = [("(2,1,trivial)", context_trivial(2, 1)),
                ("(3,2,trivial)", context_trivial(3, 2)),
                ("(2,1,<full twist>)", context_full_twist(2, 1)),
                ("(3,1,<half twist>)", context_half_twist(3, 1))]
    rng = seeded("acceptance-1")
    timings = []
    for name, ctx in contexts:
        t0 = time.time()
        for _ in range(200):
            a = random_element(ctx, rng, 2)
            b = random_element(ctx, rng, 2)
            c = random_element(ctx, rng, 2)
            assert ctx.equal(ctx.multiply(ctx.multiply(a, b), c),
                             ctx.multiply(a, ctx.multiply(b, c)))
            assert ctx.is_identity(ctx.multiply(a, ctx.invert(a)))
            assert ctx.equal(ctx.multiply(a, ctx.identity()), a)
            assert ctx.equal(ctx.multiply(ctx.identity(), a), a)
        took = time.time() - t0
        timings.append((name, took))
        assert took < 60.0, "context %s exceeded the 60 s target: %.1f s" % (name, took)
    report(1, "group laws on 200 triples per context; " +
           ", ".join("%s %.1fs" % pair for pair in timings))


def test_criterion_02_unique_normal_form():
    rng = seeded("acceptance-2")
    contexts = [context_trivial(2, 1), context_trivial(3, 2),
                context_full_twist(2, 1), context_half_twist(3, 1)]
    for trial in range(500):
        ctx = contexts[trial % len(contexts)]
        s = random_element(ctx, rng, 2)
        t = s
        for _ in range(rng.randint(1, 5)):
            t = ctx.expand(t, rng.randint(1, t.leaves))
        r_asc = ctx.reduce(t)
        r_desc = reduce_by_restarts(ctx, t, descending=True)
        r_orig = ctx.reduce(s)
        for a, b in ((r_asc, r_desc), (r_asc, r_orig)):
            assert a.minus == b.minus and a.plus == b.plus
            assert braid_equal(a.lb.braid, b.lb.braid)
            for la, lb_ in zip(a.lb.labels, b.lb.labels):
                assert la == lb_ or braid_equal(la.realize(ctx.spec),
                                                lb_.realize(ctx.spec))
    report(2, "500 expansion/reduction cases, both scan orders agree componentwise")


def test_criterion_03_identity_criterion_cross_check():
    rng = seeded("acceptance-3")
    contexts = [context_trivial(2, 1), context_full_twist(2, 1),
                context_half_twist(3, 1)]
    identities = 0
    for trial in range(500):
        ctx = contexts[trial % len(contexts)]
        s = random_element(ctx, rng, 2)
        if trial % 2 == 0:
            s = ctx.multiply(s, ctx.invert(s))
        for _ in range(rng.randint(0, 3)):
            s = ctx.expand(s, rng.randint(1, s.leaves))
        direct = ctx.is_identity(s)
        red = ctx.reduce(s)
        via_reduction = (red.minus.is_trivial() and red.plus.is_trivial()
                         and is_trivial(red.lb.braid)
                         and all(not l.word or is_trivial(l.realize(ctx.spec))
                                 for l in red.lb.labels))
        assert direct == via_reduction
        identities += direct
    assert identities >= 200
    report(3, "direct identity test agrees with the reduction route on 500 cases "
              "(%d identities)" % identities)


def test_criterion_04_projection_homomorphism():
    rng = seeded("acceptance-4")
    for ctx in (context_trivial(3, 2), context_full_twist(2, 1)):
        for _ in range(100):
            g = random_element(ctx, rng, 2)
            h = random_element(ctx, rng, 2)
            lhs = ctx.project_to_v(ctx.multiply(g, h))
            rhs = v_multiply(ctx.project_to_v(g), ctx.project_to_v(h))
            assert v_equal(lhs, rhs)
    # the nested ternary reduction: 8 leaves down to 6
    from braidedthompson import PairedForestDiagram
    minus = decode("((...)..)|(...)", 3)
    plus = decode("(.(...).)|(...)", 3)
    rho = Permutation((2, 3, 4, 1, 8, 5, 6, 7))
    red = v_reduce(PairedForestDiagram(minus, rho, plus))
    assert minus.leaves == 8 and red.minus.leaves == 6
    assert red.perm == Permutation((2, 1, 6, 3, 4, 5))
    report(4, "projection commutes with multiplication on 200 pairs; "
              "nested reduction drops 8 to 6 leaves")


def test_criterion_05_retraction_identities():
    ctx = context_full_twist(2, 2)
    rng = seeded("acceptance-5")
    for _ in range(100):
        h = random_label(rng, ctx, max_len=3)
        assert braid_equal(ctx.r_label(ctx.iota_label(h)), h.realize(ctx.spec))
    for _ in range(100):
        h1, h2 = random_label(rng, ctx, 3), random_label(rng, ctx, 3)
        prod = ctx.multiply(ctx.iota_label(h1), ctx.iota_label(h2))
        assert braid_equal(ctx.r_label(prod), (h1 * h2).realize(ctx.spec))
    for _ in range(100):
        g = random_element(ctx, rng, 2)
        gp = random_element(ctx, rng, 2)
        gp = Spraige(gp.minus, LabeledBraid(gp.lb.braid, (Label(),) * gp.leaves),
                     gp.plus)
        assert braid_equal(ctx.r_label(ctx.multiply(g, gp)), ctx.r_label(g))
    report(5, "r(iota(h)) = h, multiplicativity on labeled-only products, "
              "r(g g') = r(g) for unlabeled g'; 100 cases each")


def test_criterion_06_cabling_deletion_roundtrip():
    rng = seeded("acceptance-6")
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
        # block-expanded permutation
        p = permutation_of(w)
        pinv = p.inverse()
        bot, accb = {}, 1
        for q in range(1, n + 1):
            bot[q] = accb
            accb += widths[pinv(q) - 1]
        expected = []
        for j in range(1, n + 1):
            expected.extend(bot[p(j)] + t for t in range(widths[j - 1]))
        assert permutation_of(c) == Permutation(expected)
    report(6, "delete after cable recovers 200 random braids; "
              "cable permutations match block expansion")


def test_criterion_07_matching_complex_combinatorics():
    checked = 0
    for d in (2, 3):
        for m in range(1, 13):
            counts = simplex_counts(d, m)
            for c, cnt in enumerate(counts, start=1):
                assert cnt == math.comb(m - c * (d - 1), c)
            if m >= d:
                k = d_matching_linear(d, m)
                total = 0
                for f in k.faces:
                    intervals = frozenset((v + 1, v + d) for v in f)
                    forest = matching_to_forest(intervals, m, d)
                    assert forest.is_elementary() and forest.leaves == m
                    assert forest_to_matching(forest) == intervals
                    total += 1
                assert total == sum(counts)
                checked += total
    report(7, "face counts match binomials and %d faces biject with "
              "elementary forests (d in {2,3}, m <= 12)" % checked)


M2_TABLE = {2: {}, 3: {0: 1}, 4: {0: 1}, 5: {}, 6: {1: 1}, 7: {1: 1},
            8: {}, 9: {2: 1}, 10: {2: 1}, 11: {}, 12: {3: 1}}


def test_criterion_08_homology_engine():
    t0 = time.time()
    produced = []
    # boundaries of simplices up to the 5-simplex
    for nn in range(0, 5):
        s = SimplicialComplex.sphere(nn)
        produced.append(s)
        h = reduced_homology(s)
        for p in range(-1, nn + 1):
            assert h.betti_number(p) == (1 if p == nn else 0)
        assert not h.torsion
    # cones
    pt = SimplicialComplex(1, [(0,)])
    for base in complex_library().values():
        cone = join(base, pt)
        produced.append(cone)
        assert reduced_homology(cone).is_zero_through(cone.dim + 1)
    # disjoint unions
    u = SimplicialComplex(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    produced.append(u)
    h = reduced_homology(u)
    assert h.betti_number(0) == 1 and h.betti_number(1) == 1
    # frozen regression table for the linear 2-matching complexes
    for m, expected in M2_TABLE.items():
        k = d_matching_linear(2, m)
        produced.append(k)
        h = reduced_homology(k)
        got = {p: b for p, b in h.betti.items() if b}
        assert got == expected and not h.torsion
    # Euler characteristic consistency on everything produced above
    for k in produced:
        assert reduced_homology(k).euler_consistent()
    took = time.time() - t0
    assert took < 120.0
    report(8, "sphere/cone/union goldens, frozen 2-matching table m <= 12, "
              "Euler consistency on %d complexes (%.1f s)" % (len(produced), took))


def test_criterion_09_complete_join_desk_check():
    transfers = 0
    for name, k in complex_library().items():
        cover, vmap = duplicated_cover(k)
        assert complete_join_check(cover, k, vmap), name
        for n in range(0, k.dim + 2):
            if is_homology_wcm(k, n):
                assert is_homology_wcm(cover, n), (name, n)
                transfers += 1
    report(9, "duplicated-vertex covers are complete joins; wCM transferred "
              "in %d instances" % transfers)


def test_criterion_10_morse_desk_check():
    rng = seeded("acceptance-10")

    cases = 0
    for k in (d_matching_linear(2, 6), d_matching_linear(3, 9)):
        h = HeightFunction({v: v + 1 for v in range(k.vertices)})
        assert h.is_valid_for(k)
        for t in h.levels(k):
            kk = morse_sweep(k, h, [t])[0][1]
            assert morse_check(k, h, t, kk)
            for smaller in range(0, kk):
                assert morse_check(k, h, t, smaller)
            cases += 1
    for _ in range(20):
        k = random_complex(rng)
        heights = list(range(k.vertices))
        rng.shuffle(heights)
        h = HeightFunction({v: heights[v] for v in range(k.vertices)})
        for t in h.levels(k):
            assert morse_check(k, h, t, morse_sweep(k, h, [t])[0][1])
            cases += 1
    report(10, "Morse implication verified at %d filtration levels" % cases)


def test_criterion_11_dangling():
    ctx = make_context(2, 1, (BraidWord(2, [1, 1]),))
    ctx3 = make_context(3, 1, (BraidWord(3, [1, 2, 1]),))
    rng = seeded("acceptance-11")
    for trial in range(100):
        c2 = ctx if trial % 2 == 0 else ctx3
        m = rng.randint(c2.d, c2.d + 4)
        x = random_elementary_braige(c2, rng, m)
        c = width_preserving_multiplier(rng, x)
        mus = tuple(random_label(rng, c2) for _ in range(x.feet))
        y = c2.cable_on_feet(x, c, mus)
        assert c2.dangling_equal(x, y)
        assert c2.arc_support(x) == c2.arc_support(y)
    # distinct forests rejected
    x = Spraige(Forest.trivial(2, 3), LabeledBraid.trivial(3), decode("(..)|.", 2))
    y = Spraige(Forest.trivial(2, 3), LabeledBraid.trivial(3), decode(".|(..)", 2))
    assert not ctx.dangling_equal(x, y)
    report(11, "dangling equality under 100 cabled multipliers, supports "
               "invariant, distinct forests rejected")


def test_criterion_12_cli(tmp_path, capsys):
    # byte-exact round trip over the golden corpus
    golden = sorted(GOLDEN_DIR.glob("case_*.dsl"))
    assert len(golden) == 50
    for path in golden:
        text = path.read_text(encoding="utf-8")
        ctx, elements = parse_session(text)
        assert format_session(ctx, elements) == text

    # the cabled-block reduction scenario, scripted end to end:
    # expand a six-leaf element at the strand labeled g1, emit the
    # unreduced eight-leaf diagram, and let the CLI reduce it back
    ctx = context_half_twist(3, 2)
    minus = decode("(...)|(...)", 3)
    labels = (Label(), Label((1,)), Label(), Label(), Label((-1,)), Label())
    base = Spraige(minus, LabeledBraid(BraidWord(6, [1, -4]), labels), minus)
    expanded = ctx.expand(base, 2)
    assert expanded.leaves == 8
    session = format_header(ctx) + "\n\n" + format_element("cabled", expanded) + "\n"
    path = tmp_path / "cabled.dsl"
    path.write_text(session, encoding="utf-8")
    code = cli_main(["reduce", "--input", str(path), "cabled"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, RESULT_SCHEMA)
    assert data["leaves_before"] == 8 and data["leaves_after"] == 6
    report(12, "50 golden files round-trip byte-exact; CLI reduces the "
               "cabled-block scenario from 8 to 6 leaves; schema valid")
