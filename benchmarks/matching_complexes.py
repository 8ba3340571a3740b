"""matching-complexes: the simplicial complex lab on d-matching complexes.

Only ``complexes`` runs here.  A round builds the linear and cyclic
d-matching complexes for d in {2, 3} over a range of m and computes their
reduced homology (a few large dense Smith normal forms), restricts linear
complexes to seeded sets of initial positions, tests weak Cohen-Macaulay
dimension on the restricted 2-matching complexes, sweeps the levels of a
seeded height function with the largest-k Morse check (many small link
homologies), and checks the duplicated cover as a complete join.

Answers are checked against closed forms: face counts are binomial, and
the 2-matching complex of a path is a sphere or contractible by Kozlov's
theorem, which with joins predicts the homology of every restriction and
link of it, hence the wCM verdict.
"""

from __future__ import annotations

import json
import random
from math import comb

from common import Op

NAME = "matching-complexes"
# Input sets per run (see run.py): three draws of restrictions and height
# functions, so that the percentiles of a run do not hang on one draw.
VARIANTS = 3
SIZES = {
    "full": {"linear": [[2, m] for m in range(8, 15)] + [[3, m] for m in range(10, 18)],
             "cyclic": [[2, m] for m in range(8, 13)] + [[3, m] for m in range(10, 16)],
             "restrict": [[2, m] for m in range(10, 14)] + [[3, m] for m in range(13, 17)],
             "dropped": 2, "wcm_n": 3,
             "morse": [[2, 10], [2, 12], [3, 13]],
             "cover": [[2, 8], [3, 12]]},
    "tiny": {"linear": [[2, 5], [2, 6], [3, 7]], "cyclic": [[2, 5], [3, 7]],
             "restrict": [[2, 6], [3, 7]], "dropped": 1, "wcm_n": 2,
             "morse": [[2, 6]], "cover": [[2, 5]]},
}


def linear_counts(d, m):
    """Faces with c arcs: C(m - c(d-1), c)."""
    out, c = [], 1
    while m - c * (d - 1) >= c:
        out.append(comb(m - c * (d - 1), c))
        c += 1
    return out


def cyclic_counts(d, m):
    """Faces with c arcs on the m-cycle: m/n * C(n, c), n = m - c(d-1)."""
    out, c = [], 1
    while m >= d and m - c * (d - 1) >= c:
        n = m - c * (d - 1)
        out.append(m * comb(n, c) // n)
        c += 1
    return out


def sphere_dim(starts):
    """The 2-matching complex on a set of arc starts is the join of the
    complexes of its runs of consecutive starts.  A run of L arcs is
    S^(k-1) for L in {3k-1, 3k} and contractible for L = 3k+1 (Kozlov).
    Returns the sphere's dimension (-1 for the empty complex) or None
    when contractible."""
    s = sorted(starts)
    dim, i = -1, 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[j] + 1:
            j += 1
        k, rest = divmod(j - i + 1, 3)
        if rest == 1:
            return None
        dim += (k if rest == 0 else k + 1)
        i = j + 1
    return dim


def zero_through(dim, n):
    return dim is None or dim > n


def predicted_wcm(starts, n):
    """wCM of dimension n for the 2-matching complex on `starts`: the
    complex is (n-1)-connected and each p-face link (n-p-2)-connected."""
    if not zero_through(sphere_dim(starts), n - 1):
        return False
    starts = sorted(starts)

    def faces(avail, size):
        # independent sets of the path on `avail`, with their free starts
        for i, a in enumerate(avail):
            rest = [q for q in avail[i + 1:] if q > a + 1]
            yield [a], rest
            if size > 1:
                for more, free in faces(rest, size - 1):
                    yield [a] + more, free

    for face, _ in faces(starts, n):
        p = len(face) - 1
        if n - p - 2 < -1:
            continue
        free = [q for q in starts if all(abs(q - a) > 1 for a in face)]
        if not zero_through(sphere_dim(free), n - p - 2):
            return False
    return True


def _homology_check(starts):
    """Euler consistency always; for a 2-matching complex on the arc
    starts `starts` also Kozlov's sphere (d = 3 passes None)."""
    def check(rep):
        if not rep.euler_consistent():
            return "homology report is not Euler-consistent"
        if starts is not None:
            dim = sphere_dim(starts)
            want = {} if dim is None else {dim: 1}
            got = {p: b for p, b in rep.betti.items() if b}
            if got != want or rep.torsion:
                return "homology %r, expected Betti numbers %r" % (rep, want)
        return None
    return check


def generate(lib, seed, variant, size, workdir):
    rng = random.Random("%s:%d:%d" % (NAME, seed, variant))
    cx = lib.complexes
    state = {}
    ops = []

    def build(key, make, counts):
        def run():
            state[key] = make()
            return state[key]

        def check(k):
            got = k.face_counts()
            return None if got == counts else "face counts %r, expected %r" % (got, counts)

        ops.append(Op("build", run, check))

    def homology(key, starts):
        ops.append(Op("homology", lambda: cx.reduced_homology(state[key]),
                      _homology_check(starts)))

    for d, m in size["linear"]:
        build(("linear", d, m), lambda d=d, m=m: cx.d_matching_linear(d, m), linear_counts(d, m))
        homology(("linear", d, m), range(1, m) if d == 2 else None)
    for d, m in size["cyclic"]:
        build(("cyclic", d, m), lambda d=d, m=m: cx.d_matching_cyclic(d, m), cyclic_counts(d, m))
        homology(("cyclic", d, m), None)

    for d, m in size["restrict"]:
        positions = list(range(1, m - d + 2))
        dropped = set(rng.sample(positions, size["dropped"]))
        z = [p for p in positions if p not in dropped]
        key = ("restrict", d, m)

        def run(d=d, m=m, z=z, key=key):
            state[key] = cx.restrict_initial(state[("linear", d, m)], z)
            return state[key]

        def check(k, z=z):
            want = {p - 1 for p in z}
            return None if k.vertex_set() == want else "vertices %r, expected %r" % (
                sorted(k.vertex_set()), sorted(want))

        ops.append(Op("restrict", run, check))
        homology(key, z if d == 2 else None)
        if d == 2:
            n = size["wcm_n"]
            want = predicted_wcm(z, n)
            ops.append(Op("wcm", lambda key=key, n=n: cx.wcm_violation(state[key], n),
                          lambda v, want=want, n=n: None if (v is None) == want else
                          "wcm(%d) said %r, expected wCM %s" % (n, v, want)))

    for d, m in size["morse"]:
        key = ("linear", d, m)
        vertices = m - d + 1
        order = list(range(1, vertices + 1))
        rng.shuffle(order)
        h = cx.HeightFunction(dict(enumerate(order)))
        for t in range(1, vertices + 1):
            ops.append(Op("morse_level", lambda key=key, h=h, t=t: morse_level(cx, state[key], h, t),
                          lambda answer: None if answer[1] is True else
                          "Morse implication fails at level with k=%d" % answer[0]))

    for d, m in size["cover"]:
        key = ("linear", d, m)

        def run(key=key):
            cover, vmap = cx.duplicated_cover(state[key])
            return cx.complete_join_check(cover, state[key], vmap)

        ops.append(Op("cover", run, lambda ok: None if ok is True else
                      "duplicated cover is not a complete join"))
    return ops


def morse_level(cx, k, h, t):
    """The largest k whose hypothesis holds at level t, and the Morse
    implication there (the sweep `bht morse` makes without --k)."""
    links = [cx.morse_descending_link(k, h, v) for v in k.vertex_set() if h(v) == t]
    kk = -1
    while kk <= k.dim + 1 and all(cx.reduced_homology(L).is_zero_through(kk) for L in links):
        kk += 1
    return kk, cx.morse_check(k, h, t, kk)


def fingerprint(answer):
    if hasattr(answer, "to_json_dict"):
        return json.dumps(answer.to_json_dict(), sort_keys=True)
    return answer
