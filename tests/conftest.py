"""Shared builders for the test suite: contexts, random group elements,
random braiges, and a small library of complexes."""

import random

from hypothesis import settings

from braidedthompson import (BraidWord, Forest, GroupContext, Label,
                             LabeledBraid, LabelGroupSpec, SimplicialComplex,
                             Spraige, d_matching_cyclic, d_matching_linear,
                             half_twist, leaf_counts, matching_to_forest,
                             permutation_of)
from braidedthompson.forests import elementary_caret_spans


# Property tests draw the same examples on every run.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def make_context(d, r, gens=(), flavor="V", pure=False):
    return GroupContext(d, r, LabelGroupSpec(d, gens, require_pure=pure), flavor)


def context_trivial(d, r, flavor="V"):
    return make_context(d, r, (), flavor=flavor, pure=True)


def context_full_twist(d, r, flavor="V"):
    delta = half_twist(d)
    return make_context(d, r, (delta * delta,), flavor=flavor, pure=True)


def context_half_twist(d, r):
    return make_context(d, r, (half_twist(d),), flavor="V", pure=False)


def random_label(rng, ctx, max_len=2):
    n = len(ctx.spec.generators)
    if n == 0:
        return Label()
    return Label(tuple(rng.choice([1, -1]) * rng.randint(1, n)
                       for _ in range(rng.randint(0, max_len))))


def random_braid_word(rng, n, max_len=4, pure_squares=False):
    if n <= 1:
        return BraidWord(n)
    if pure_squares:
        letters = []
        for _ in range(rng.randint(0, max_len // 2)):
            i = rng.randint(1, n - 1)
            letters.extend([i, i])
        return BraidWord(n, letters)
    return BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                         for _ in range(rng.randint(0, max_len))])


def random_element(ctx, rng, steps=3):
    """A random (r,r) group element: products of elementary splittings,
    elementary mergings, and labeled braid insertions."""
    s = ctx.identity()
    for _ in range(steps):
        n = s.feet
        op = rng.randint(0, 2)
        if op == 0:
            J = {j for j in range(1, n + 1) if rng.random() < 0.5}
            s = ctx.multiply(s, ctx.lambda_spraige(n, J))
        elif op == 1 and n - (ctx.d - 1) >= ctx.r:
            k = n - (ctx.d - 1)
            s = ctx.multiply(s, ctx.mu_spraige(k, {rng.randint(1, k)}))
        else:
            braid = random_braid_word(rng, n, pure_squares=ctx.flavor in ("F", "T"))
            labels = tuple(random_label(rng, ctx) for _ in range(n))
            ins = Spraige(Forest.trivial(ctx.d, n),
                          LabeledBraid(braid, labels),
                          Forest.trivial(ctx.d, n))
            s = ctx.multiply(s, ins)
    while s.feet > ctx.r:
        k = s.feet - (ctx.d - 1)
        s = ctx.multiply(s, ctx.mu_spraige(k, {rng.randint(1, k)}))
    return s


def reduce_by_restarts(ctx, s, descending=False):
    """ctx.reduce as a restart scan: try the elementary carets of minus
    lowest first (or highest first), and after each success scan again
    from the start.  Lowest first, it is the oracle of the work-list scan,
    letter for letter; highest first, the other order, it is an oracle for
    the uniqueness of the reduced representative."""
    while True:
        spans = elementary_caret_spans(s.minus)
        for start in reversed(spans) if descending else spans:
            t = ctx.try_reduce_at(s, start)
            if t is not None:
                s = t
                break
        else:
            return s


def random_elementary_braige(ctx, rng, m):
    """A braige (trivial splitting forest) with m heads and a random
    nonempty elementary merge forest."""
    braid = random_braid_word(rng, m, max_len=5)
    labels = tuple(random_label(rng, ctx) for _ in range(m))
    while True:
        intervals = []
        p = 1
        while p <= m:
            if p + ctx.d - 1 <= m and rng.random() < 0.5:
                intervals.append((p, p + ctx.d - 1))
                p += ctx.d
            else:
                p += 1
        if intervals:
            return Spraige(Forest.trivial(ctx.d, m), LabeledBraid(braid, labels),
                           matching_to_forest(intervals, m, ctx.d))


def width_preserving_multiplier(rng, x, max_len=4, tries=200):
    """A random braid on the feet of x whose permutation maps caret slots
    to caret slots (so cabling it along the merge forest keeps the forest)."""
    k = x.feet
    widths = leaf_counts(x.plus)
    for _ in range(tries):
        c = random_braid_word(rng, k, max_len=max_len)
        rho = permutation_of(c)
        if all(widths[j - 1] == widths[rho(j) - 1] for j in range(1, k + 1)):
            return c
    return BraidWord(k)


def complex_library():
    """Small complexes exercised by the join/wcm/morse style checks."""
    return {
        "hollow-triangle": SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)]),
        "solid-triangle": SimplicialComplex.simplex(3),
        "two-points": SimplicialComplex(2, [(0,), (1,)]),
        "path3": SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)]),
        "sphere1": SimplicialComplex.sphere(1),
        "sphere2": SimplicialComplex.sphere(2),
        "two-edges": SimplicialComplex(4, [(0, 1), (2, 3)]),
        "m2l5": d_matching_linear(2, 6),
        "m3l8": d_matching_linear(3, 9),
        "c2m5": d_matching_cyclic(2, 5),
        "rp2": SimplicialComplex(6, [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5),
                                     (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 5),
                                     (2, 4, 5), (3, 4, 5)]),
    }


def random_complex(rng, max_vertices=7, max_faces=6, max_size=4):
    nv = rng.randint(3, max_vertices)
    faces = [tuple(rng.sample(range(nv), rng.randint(1, min(max_size, nv))))
             for _ in range(rng.randint(2, max_faces))]
    return SimplicialComplex(nv, faces)


def random_non_cone(rng, **sizes):
    """A `random_complex` whose maximal faces share no vertex, so that its
    homology is not answered by the cone rule but by elimination: draws
    are repeated until one is not a cone (about one in three is not)."""
    while True:
        k = random_complex(rng, **sizes)
        if not set.intersection(*map(set, k.maximal_faces)):
            return k


def forbidden(word):
    """Stands in, through monkeypatch, for a computation on a braid word
    (`BraidWord.normal_form`, say) that a test forbids."""
    raise AssertionError("forbidden computation on a word in B_%d" % word.strands)


def seeded(name):
    """A generator seeded from the name alone (string seeds go through
    SHA-512, not the per-process salted hash), so every run draws the same
    inputs."""
    return random.Random(name)
