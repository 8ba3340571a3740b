import math
import random
from itertools import combinations, permutations, product
import tracemalloc

import pytest

from braidedthompson import (HeightFunction, SimplicialComplex,
                             complete_join_check, d_matching_cyclic,
                             d_matching_linear, duplicated_cover,
                             forest_to_matching, is_homology_wcm, join, link,
                             matching_to_forest, morse_check,
                             morse_descending_link, morse_sweep, mutual_link,
                             reduced_homology, relative_homology,
                             restrict_initial, simplex_counts,
                             smith_invariants, star, sublevel, wcm_violation)
from braidedthompson import complexes
from braidedthompson.complexes import _sparse_invariants
from conftest import complex_library, random_complex, random_non_cone, seeded

HOLLOW = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])


# -- homology engine -----------------------------------------------------------

def test_smith_invariants_basics():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[1, 0], [0, 0]]) == [1]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


@pytest.mark.parametrize("rows,message", [
    ([[2, 4], [6]], "matrix row 1 has length 1, row 0 has 2"),
    ([[1, 2], [3, 4, 5]], "matrix row 1 has length 3, row 0 has 2"),
    ([[1.5]], "matrix entry 1.5 is not an integer"),
    ([[True, 0], [0, 2]], "matrix entry True is not an integer"),
    ([[1, 0], [0, 2.0], [0]], "matrix entry 2.0 is not an integer"),
])
def test_smith_invariants_rejects_ragged_and_non_integer_matrices(rows, message):
    # a short row must not be read as cut short, nor a long one as cut to the
    # first row's length; the first fault in row order is the one named
    with pytest.raises(ValueError) as err:
        smith_invariants(rows)
    assert str(err.value) == message


def test_homology_golden_values():
    h = reduced_homology(HOLLOW)
    assert h.betti_number(1) == 1 and h.betti_number(0) == 0

    h = reduced_homology(SimplicialComplex.simplex(5))
    assert all(h.betti_number(p) == 0 for p in range(-1, 5)) and not h.torsion

    h = reduced_homology(SimplicialComplex(2, [(0,), (1,)]))
    assert h.betti_number(0) == 1

    h = reduced_homology(SimplicialComplex(0))
    assert h.betti_number(-1) == 1
    assert h.euler_characteristic() == 0


def test_homology_spheres():
    # boundaries of the n-simplex for n <= 5, i.e. spheres S^0 .. S^4
    for n in range(0, 5):
        h = reduced_homology(SimplicialComplex.sphere(n))
        for p in range(-1, n + 1):
            assert h.betti_number(p) == (1 if p == n else 0)
        assert not h.torsion
        assert h.euler_consistent()


def test_homology_cones_and_disjoint_unions():
    pt = SimplicialComplex(1, [(0,)])
    for base in (HOLLOW, SimplicialComplex.sphere(2), SimplicialComplex(2, [(0,), (1,)])):
        assert reduced_homology(join(base, pt)).is_zero_through(6)
    # disjoint union of a hollow triangle and an edge
    u = SimplicialComplex(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    h = reduced_homology(u)
    assert h.betti_number(0) == 1 and h.betti_number(1) == 1


def test_homology_projective_plane_torsion():
    rp2 = complex_library()["rp2"]
    h = reduced_homology(rp2)
    assert h.betti_number(1) == 0 and h.torsion_coefficients(1) == (2,)
    assert h.betti_number(2) == 0
    assert h.euler_consistent()


def test_homology_report_text_names_only_nonzero_parts():
    rp2 = complex_library()["rp2"]
    assert repr(reduced_homology(rp2)) == "HomologyReport(H~_1 = Z/2)"
    assert repr(reduced_homology(SimplicialComplex.sphere(2))) == "HomologyReport(H~_2 = Z^1)"
    assert repr(reduced_homology(SimplicialComplex.simplex(3))) == "HomologyReport(trivial)"
    # RP^2 beside a hollow triangle: free and torsion parts in one degree
    both = SimplicialComplex(9, list(rp2.maximal_faces) + [(6, 7), (7, 8), (6, 8)])
    assert (repr(reduced_homology(both))
            == "HomologyReport(H~_0 = Z^1; H~_1 = Z^1 + Z/2)")


def test_join_with_s0_suspends():
    s0 = SimplicialComplex(2, [(0,), (1,)])
    for k in complex_library().values():
        hb = reduced_homology(k)
        hs = reduced_homology(join(k, s0))
        for p in range(-1, k.dim + 2):
            assert hs.betti_number(p + 1) == hb.betti_number(p)
            assert hs.torsion_coefficients(p + 1) == hb.torsion_coefficients(p)


def test_euler_consistency_across_library():
    for k in complex_library().values():
        assert reduced_homology(k).euler_consistent()
    rng = seeded("euler")
    for _ in range(30):
        assert reduced_homology(random_complex(rng)).euler_consistent()


def test_relative_homology_disk_boundary():
    rel = relative_homology(SimplicialComplex.simplex(3), HOLLOW)
    assert rel.betti_number(2) == 1
    assert rel.betti_number(1) == 0 and rel.betti_number(0) == 0
    with pytest.raises(ValueError):
        relative_homology(HOLLOW, SimplicialComplex(3, [(0, 1, 2)]))


def test_relative_homology_of_cone_pair_shifts_reduced_homology():
    # the cone is contractible, so H_{p+1}(CK, K) = H~_p(K), torsion included
    point = SimplicialComplex(1, [(0,)])
    rng = seeded("cone-pair")
    rp2 = complex_library()["rp2"]
    cases = [SimplicialComplex(0), rp2] + [random_complex(rng) for _ in range(25)]
    for k in cases:
        red = reduced_homology(k)
        rel = relative_homology(join(k, point), k)
        for p in range(-1, k.dim + 2):
            assert rel.betti_number(p + 1) == red.betti_number(p), (k, p)
            assert rel.torsion_coefficients(p + 1) == red.torsion_coefficients(p), (k, p)
    # the cases that pin the torsion and the augmentation degree
    assert relative_homology(join(rp2, point), rp2).torsion_coefficients(2) == (2,)
    assert relative_homology(point, SimplicialComplex(0)).betti_number(0) == 1


# -- sparse elimination against the dense Smith form ---------------------------

def _oracle_smith(rows):
    """Invariant factors as the library computed them before its one-loop
    diagonalization: pivot on a least nonzero entry, promote remainders
    until the pivot's row and column are clear, and add a row holding an
    entry the pivot does not divide before moving on.  The dense
    reference for the sparse elimination and for `smith_invariants`."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    res = []
    t = 0
    while t < m and t < n:
        # smallest nonzero entry as pivot
        piv = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # clear the pivot column
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if any(a[i][t] for i in range(t + 1, m)):
                # a smaller remainder appeared; promote it
                for i in range(t + 1, m):
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        break
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
            if any(a[t][j] for j in range(t + 1, n)):
                for j in range(t + 1, n):
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        break
                continue
            break
        # enforce divisibility of the remaining block by the pivot
        d = abs(a[t][t])
        culprit = None
        for i in range(t + 1, m):
            row = a[i]
            for j in range(t + 1, n):
                if row[j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            continue
        res.append(d)
        t += 1
    return res


# entries with small, composite and large absolute values
SMITH_POOLS = ((0, 1, -1, 2, -2, 3, -3), (4, -6, 9, 12, -15, 35), tuple(range(-50, 51)))


def random_matrices(rng, count, largest):
    """`count` integer matrices as row lists, each with 0..largest rows and
    columns and entries from one of SMITH_POOLS."""
    out = []
    for _ in range(count):
        m, n = rng.randint(0, largest), rng.randint(0, largest)
        pool = rng.choice(SMITH_POOLS)
        out.append([[rng.choice(pool) for _ in range(n)] for _ in range(m)])
    return out


def test_smith_invariants_match_the_oracle():
    rng = random.Random("smith-vs-oracle")
    chains = 0
    for rows in random_matrices(rng, 5000, 8):
        invs = smith_invariants(rows)
        assert invs == _oracle_smith(rows), rows
        chains += len({d for d in invs if d > 1}) >= 2
    # the gcd/lcm pass has chains of distinct factors to build
    assert chains > 100


def leibniz_determinant(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def determinantal_invariants(rows):
    """s_k = d_k / d_(k-1), where d_k is the gcd of the k x k minors, for
    every k with d_k nonzero: the invariant factors by their definition."""
    m, n = len(rows), (len(rows[0]) if rows else 0)
    out, previous = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for chosen_rows in combinations(range(m), k):
            for chosen_cols in combinations(range(n), k):
                d = math.gcd(d, leibniz_determinant(
                    [[rows[i][j] for j in chosen_cols] for i in chosen_rows]))
        if not d:
            break
        out.append(d // previous)
        previous = d
    return out


def test_smith_invariants_match_determinantal_divisors():
    rng = random.Random("smith-vs-minors")
    torsion = 0
    for rows in random_matrices(rng, 1500, 4):
        invs = smith_invariants(rows)
        assert invs == determinantal_invariants(rows), rows
        torsion += any(d > 1 for d in invs)
    assert torsion > 300


def test_sparse_invariants_match_dense_smith_form():
    # small entries in -3..3 leave non-unit pivots, so the dense leftover
    # block and torsion are exercised, not only the unit pivots
    rng = random.Random("sparse-vs-dense")
    with_torsion = 0
    for _ in range(400):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(n)]
                for _ in range(m)]
        columns = [{i: rows[i][j] for i in range(m) if rows[i][j]} for j in range(n)]
        dense = _oracle_smith(rows)
        assert _sparse_invariants(columns)[0] == dense, rows
        with_torsion += any(d > 1 for d in dense)
    assert with_torsion > 50
    assert _sparse_invariants([{0: 2}, {0: 3}])[0] == [1]
    assert _sparse_invariants([{0: 2, 1: 2}, {0: 2, 1: -2}])[0] == [2, 4]


def dense_homology(chains, low):
    """Betti numbers, torsion and face counts of the chain complex with
    basis `chains` (degree -> faces), from dense boundary matrices and
    _oracle_smith; faces missing from the degree below are projected
    away.  The reference for the library's sparse elimination."""
    top = max(chains, default=-1)
    invs = {}
    for p in range(low, top + 2):
        lower, upper = sorted(chains.get(p - 1, ())), sorted(chains.get(p, ()))
        index = {f: i for i, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for j, f in enumerate(upper):
            for drop in range(len(f)):
                i = index.get(f[:drop] + f[drop + 1:])
                if i is not None:
                    rows[i][j] = (-1) ** drop
        invs[p] = _oracle_smith(rows) if lower and upper else []
    degrees = range(low, top + 1)
    betti = {p: len(chains.get(p, ())) - len(invs[p]) - len(invs[p + 1]) for p in degrees}
    torsion = {p: tuple(d for d in invs[p + 1] if d > 1) for p in degrees}
    counts = [len(chains.get(p, ())) for p in range(0, top + 1)]
    return betti, {p: t for p, t in torsion.items() if t}, counts


def oracle_faces(k):
    """Every nonempty face of k: the downward closure of its maximal faces,
    built in one pass over all sizes, apart from the library's face source."""
    out = set()
    for f in k.maximal_faces:
        for size in range(1, len(f) + 1):
            out.update(combinations(f, size))
    return frozenset(out)


def chains_of(faces, low):
    chains = {-1: [()]} if low == -1 else {}
    for f in faces:
        chains.setdefault(len(f) - 1, []).append(f)
    return chains


def report_of(h):
    return h.betti, h.torsion, h.face_counts


def test_homology_matches_dense_reference():
    rng = random.Random("homology-vs-dense")
    rp2 = complex_library()["rp2"]
    s0 = SimplicialComplex(2, [(0,), (1,)])
    cases = ([SimplicialComplex(0), rp2, join(rp2, s0)]
             + list(complex_library().values())
             + [random_complex(rng, max_vertices=9, max_faces=8, max_size=5)
                for _ in range(150)])
    # about two random draws in three are cones, which the cone rule answers
    # without elimination; these draws reach it
    non_cones = seeded("homology-vs-dense-non-cones")
    cases += [random_non_cone(non_cones, max_vertices=9, max_faces=8, max_size=5)
              for _ in range(100)]
    for k in cases:
        closure = oracle_faces(k)
        assert report_of(reduced_homology(k)) == dense_homology(chains_of(closure, -1), -1), k
        for _ in range(3):
            sub = k.full_subcomplex(v for v in range(k.vertices) if rng.random() < 0.6)
            assert (report_of(relative_homology(k, sub))
                    == dense_homology(chains_of(closure - oracle_faces(sub), 0), 0)), (k, sub)
    assert reduced_homology(rp2).torsion == {1: (2,)}
    assert reduced_homology(join(rp2, s0)).torsion == {2: (2,)}
    # Kuenneth for joins: Z/2 (x) Z/2 in degree 3 and Tor(Z/2, Z/2) in degree 4
    h = reduced_homology(join(rp2, rp2))
    assert h.torsion == {3: (2,), 4: (2,)} and not any(h.betti.values())


# -- clearing and truncation against full elimination -------------------------

def boundary_columns(chains, p):
    """Every column of the boundary map from degree p to p - 1, as the
    library builds them: sparse {row: +-1} over the sorted faces."""
    lower, upper = sorted(chains.get(p - 1, ())), sorted(chains.get(p, ()))
    index = {f: i for i, f in enumerate(lower)}
    return [{index[f[:d] + f[d + 1:]]: (-1) ** d for d in range(len(f))
             if f[:d] + f[d + 1:] in index} for f in upper]


def clearing_cases():
    rng, non_cones = seeded("clearing"), seeded("clearing-non-cones")
    rp2 = complex_library()["rp2"]
    s0 = SimplicialComplex(2, [(0,), (1,)])
    return ([SimplicialComplex(0), join(rp2, s0), join(rp2, rp2),
             d_matching_linear(3, 12), d_matching_cyclic(2, 10)]
            + list(complex_library().values())
            + [random_complex(rng, max_vertices=9, max_faces=8, max_size=5) for _ in range(150)]
            + [random_non_cone(non_cones, max_vertices=9, max_faces=8, max_size=5)
               for _ in range(100)])


def test_cleared_columns_keep_the_invariant_factors():
    # dropping the columns of d_p whose faces are unit pivot rows of
    # d_{p+1} leaves the invariant factors of d_p as full elimination
    # finds them (the reports as a whole meet the dense reference above)
    cases = clearing_cases()
    cleared_any = torsion = 0
    for k in cases:
        chains = chains_of(oracle_faces(k), -1)
        for p in range(-1, k.dim + 1):
            columns = boundary_columns(chains, p)
            rows = _sparse_invariants(boundary_columns(chains, p + 1))[1]
            kept = [c for j, c in enumerate(columns) if j not in rows]
            full = _sparse_invariants(columns)[0]
            assert _sparse_invariants(kept)[0] == full, (k, p)
            cleared_any += len(kept) < len(columns)
            torsion += any(d > 1 for d in full)
    assert cleared_any > 100 and torsion >= 3


def test_truncated_homology_agrees_through_its_degree_and_raises_past_it():
    cases = clearing_cases()
    truncated = 0
    for k in cases:
        full = reduced_homology(k)
        for q in range(-3, k.dim + 2):
            part = reduced_homology(k, through=q)
            for p in range(-1, q + 1):
                assert part.betti_number(p) == full.betti_number(p), (k, q, p)
                assert part.torsion_coefficients(p) == full.torsion_coefficients(p), (k, q, p)
                assert part.is_zero_through(p) == full.is_zero_through(p), (k, q, p)
            if q >= k.dim:
                assert part.through is None and report_of(part) == report_of(full)
                continue
            truncated += 1
            assert part.through == q
            for ask in (part.is_zero_through, part.betti_number, part.torsion_coefficients):
                with pytest.raises(ValueError, match="through degree %d" % q):
                    ask(q + 1)
            with pytest.raises(ValueError):
                part.euler_consistent()
    assert truncated > 300
    # the truncated path builds no face of more than q + 2 vertices
    k = d_matching_linear(2, 14)
    reduced_homology(k, through=1)
    assert sorted(k._faces) == [1, 2, 3] and k.dim == 6


def test_faces_by_size_match_the_closure_oracle():
    _, cases = oracle_cases()
    for k in clearing_cases() + cases:
        closure = oracle_faces(k)
        # has_face first, so sizes outside 1..dim+1 are asked of a fresh cache
        assert not k.has_face(()) and not k.has_face(tuple(range(k.dim + 2)))
        probes = [(k.vertices,), (-1,), (0, k.vertices)]
        probes += [p for f in closure for p in (f, f[::-1], f + f[:1])]
        for f in probes:
            assert k.has_face(f) == (tuple(sorted(set(f))) in closure), (k, f)
        assert k.faces == closure, k
        by_size = [sorted(f for f in closure if len(f) == p + 1) for p in range(k.dim + 1)]
        assert k.face_counts() == [len(fs) for fs in by_size], k
        assert [k.faces_of_dim(p) for p in range(-2, k.dim + 2)] == [[], []] + by_size + [[]]
        assert k.euler_characteristic() == sum((-1) ** (len(f) - 1) for f in closure)


def test_constructor_checks_the_vertex_range():
    for faces in ([(0,)], [(), (2, 1)], [(-1,)]):
        with pytest.raises(ValueError, match="^the complex has no vertices, so it has no "
                                             "nonempty face$"):
            SimplicialComplex(0, faces)
    for faces in ([(0, 3)], [(-1, 1)]):
        with pytest.raises(ValueError, match="out of vertex range 0..2"):
            SimplicialComplex(3, faces)
    # empty faces are dropped, so this is the empty complex on no vertices
    assert SimplicialComplex(0, [()]) == SimplicialComplex(0)


# -- links, stars, joins -------------------------------------------------------

def test_link_star_basics():
    lk = link(HOLLOW, (0,))
    assert sorted(lk.faces) == [(1,), (2,)]
    assert reduced_homology(star(HOLLOW, (0,))).is_zero_through(4)
    with pytest.raises(ValueError):
        link(HOLLOW, (0, 1, 2))


def test_join_of_two_s0_is_a_circle():
    s0 = SimplicialComplex(2, [(0,), (1,)])
    circle = join(s0, s0)
    h = reduced_homology(circle)
    assert h.betti_number(1) == 1 and h.betti_number(0) == 0


def test_mutual_link():
    k = d_matching_linear(2, 6)
    assert mutual_link(k, 0, 0) == link(k, (0,))
    # arcs starting at 1 and 2 overlap everything below 4
    assert mutual_link(k, 0, 1).faces == restrict_initial(k, {4, 5}).faces
    # vertices with disjoint stars in a two-edge complex
    two = SimplicialComplex(4, [(0, 1), (2, 3)])
    assert not mutual_link(two, 0, 2).maximal_faces
    with pytest.raises(ValueError):
        mutual_link(k, 0, 99)


# -- matching complexes --------------------------------------------------------

def test_linear_matching_shape():
    k = d_matching_linear(3, 9)
    assert k.vertices == 7
    assert len(k.faces_of_dim(0)) == 7
    assert k.has_face((0, 3, 6))          # arcs starting at 1, 4, 7
    assert not k.has_face((0, 1))
    assert d_matching_linear(2, 2).vertices == 1
    assert not d_matching_linear(3, 2).maximal_faces


def test_cyclic_matching_shape():
    k = d_matching_cyclic(2, 4)
    assert k.vertices == 4
    assert k.has_face((0, 2)) and k.has_face((1, 3))
    assert not k.has_face((0, 1))
    # wrap-around disjointness
    k5 = d_matching_cyclic(2, 5)
    assert k5.has_face((0, 2)) and not k5.has_face((0, 4))
    assert not d_matching_cyclic(3, 2).maximal_faces
    assert d_matching_cyclic(3, 3).dim == 0


def test_restrict_initial():
    k = d_matching_linear(2, 6)
    assert restrict_initial(k, set(range(1, 6))) == k
    assert not restrict_initial(k, set()).maximal_faces
    r = restrict_initial(k, {1, 4})
    assert r.has_face((0, 3))
    with pytest.raises(ValueError):
        restrict_initial(k, {99})


def test_simplex_counts_match_binomials():
    assert simplex_counts(2, 4) == [3, 1]
    assert simplex_counts(3, 9) == [7, 10, 1]
    for d in (2, 3):
        for m in range(1, 13):
            counts = simplex_counts(d, m)
            for c, cnt in enumerate(counts, start=1):
                assert cnt == math.comb(m - c * (d - 1), c)
            assert len(counts) == (m // d if m >= d else 0)
    assert simplex_counts(3, 2) == []


def test_faces_biject_with_elementary_forests():
    for d in (2, 3):
        for m in range(d, 13):
            k = d_matching_linear(d, m)
            for f in k.faces:
                intervals = frozenset((v + 1, v + d) for v in f)
                forest = matching_to_forest(intervals, m, d)
                assert forest_to_matching(forest) == intervals


# frozen by the boundary-matrix oracle; the linear 2-matching complexes
# follow the 3-periodic contractible/sphere pattern of path independence
# complexes
M2_TABLE = {
    2: {}, 3: {0: 1}, 4: {0: 1}, 5: {}, 6: {1: 1}, 7: {1: 1},
    8: {}, 9: {2: 1}, 10: {2: 1}, 11: {}, 12: {3: 1},
}


def test_m2_homology_regression_table():
    for m, expected in M2_TABLE.items():
        h = reduced_homology(d_matching_linear(2, m))
        got = {p: h.betti_number(p) for p in h.betti if h.betti_number(p)}
        assert got == expected, (m, got)
        assert not h.torsion


def test_m2_homology_follows_kozlov_at_scale():
    # M_2(P_m) is the independence complex of the path on n = m - 1
    # vertices: S^{k-1} for n = 3k - 1 or 3k, contractible for n = 3k + 1
    # (Kozlov, "Complexes of directed trees", JCTA 1999)
    for m in range(13, 18):
        k, rest = divmod(m, 3)  # m = n + 1
        expected = {} if rest == 2 else {k - 1: 1}
        h = reduced_homology(d_matching_linear(2, m))
        assert {p: b for p, b in h.betti.items() if b} == expected, m
        assert not h.torsion


# frozen from the dense Smith-form homology; no torsion occurs
M3_LINEAR_TABLE = {
    3: {}, 4: {0: 1}, 5: {0: 2}, 6: {0: 2}, 7: {0: 1}, 8: {1: 1}, 9: {1: 3},
    10: {1: 4}, 11: {1: 3}, 12: {1: 1, 2: 1}, 13: {2: 4}, 14: {2: 7},
    15: {2: 7}, 16: {2: 4, 3: 1}, 17: {2: 1, 3: 5},
}
M2_CYCLIC_TABLE = {
    2: {0: 1}, 3: {0: 2}, 4: {0: 1}, 5: {1: 1}, 6: {1: 2}, 7: {1: 1},
    8: {2: 1}, 9: {2: 2}, 10: {2: 1}, 11: {3: 1}, 12: {3: 2}, 13: {3: 1},
    14: {4: 1}, 15: {4: 2},
}
M3_CYCLIC_TABLE = {
    3: {0: 2}, 4: {0: 3}, 5: {0: 4}, 6: {0: 2}, 7: {1: 1}, 8: {1: 5},
    9: {1: 7}, 10: {1: 6}, 11: {1: 1}, 12: {2: 6}, 13: {2: 12}, 14: {2: 13},
    15: {2: 7},
}


def test_matching_homology_regression_tables():
    for build, d, table in ((d_matching_linear, 3, M3_LINEAR_TABLE),
                            (d_matching_cyclic, 2, M2_CYCLIC_TABLE),
                            (d_matching_cyclic, 3, M3_CYCLIC_TABLE)):
        for m, expected in table.items():
            h = reduced_homology(build(d, m))
            assert {p: b for p, b in h.betti.items() if b} == expected, (d, m)
            assert not h.torsion, (d, m)


# -- weak Cohen-Macaulay and complete joins -----------------------------------

def test_wcm_examples():
    assert is_homology_wcm(SimplicialComplex.simplex(4), 3)
    assert not is_homology_wcm(SimplicialComplex(4, [(0, 1), (2, 3)]), 1)
    assert wcm_violation(SimplicialComplex(4, [(0, 1), (2, 3)]), 1) is not None
    # the 2-matching complex of the 6-path is connected with nonempty links
    assert is_homology_wcm(d_matching_linear(2, 6), 1)


def test_complete_join_identity_and_collapse():
    assert complete_join_check(HOLLOW, HOLLOW, [0, 1, 2])
    edge = SimplicialComplex(2, [(0, 1)])
    point = SimplicialComplex(1, [(0,)])
    assert not complete_join_check(edge, point, [0, 0])
    with pytest.raises(ValueError):
        complete_join_check(edge, SimplicialComplex(2, [(0,), (1,)]), [0, 1])


def test_duplicated_cover_is_complete_join_and_wcm_transfers():
    for k in complex_library().values():
        cover, vmap = duplicated_cover(k)
        assert complete_join_check(cover, k, vmap)
        for n in range(0, k.dim + 2):
            if is_homology_wcm(k, n):
                assert is_homology_wcm(cover, n)


# -- Morse machinery -----------------------------------------------------------

def test_descending_link_of_top_of_simplex():
    full = SimplicialComplex.simplex(5)
    h = HeightFunction({v: v for v in range(5)})
    assert h.is_valid_for(full)
    dl = morse_descending_link(full, h, 4)
    assert reduced_homology(dl).is_zero_through(5)
    assert dl.vertex_set() == {0, 1, 2, 3}


def test_constant_heights_are_invalid():
    edge = SimplicialComplex(2, [(0, 1)])
    h = HeightFunction({0: 1, 1: 1})
    assert not h.is_valid_for(edge)
    with pytest.raises(ValueError):
        morse_descending_link(edge, h, 0)
    with pytest.raises(ValueError):
        morse_check(edge, h, 1, 0)


def test_sublevel_complexes():
    h = HeightFunction({v: v + 1 for v in range(5)})
    k = d_matching_linear(2, 6)
    assert sublevel(k, h, 5) == k
    assert not sublevel(k, h, 0).maximal_faces
    strict = sublevel(k, h, 3 - 1)
    assert strict.vertex_set() == {0, 1}


def test_cost_follows_the_faces_not_the_declared_vertex_count():
    # a 3-vertex path inside a million declared vertices
    big = SimplicialComplex(10 ** 6, [(0, 1), (1, 2)])
    small = SimplicialComplex(3, [(0, 1), (1, 2)])

    class Asked(dict):
        count = 0

        def __getitem__(self, v):
            Asked.count += 1
            return dict.__getitem__(self, v)

    h = HeightFunction({})
    h.heights = Asked({0: 1, 1: 3, 2: 2})
    tracemalloc.start()
    try:
        got = [sublevel(big, h, 2), restrict_initial(big, {1, 3}), duplicated_cover(big)]
        faces = [big.has_face((1, 0)), big.has_face((0, 2)), big.face_counts(),
                 reduced_homology(big)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Asked.count <= 3 and peak < 2 ** 20
    assert faces[:3] == [True, False, [3, 2]]
    assert report_of(faces[3]) == report_of(reduced_homology(small))
    assert faces[3].is_zero_through(1)
    assert [c.maximal_faces for c in got[:2]] == [
        sublevel(small, h, 2).maximal_faces, restrict_initial(small, {1, 3}).maximal_faces]
    assert got[2][0].maximal_faces == duplicated_cover(small)[0].maximal_faces
    assert got[2][1] == duplicated_cover(small)[1]
    with pytest.raises(ValueError, match=r"^initial position 0 out of range 1\.\.1000000$"):
        restrict_initial(big, {0, 1})
    with pytest.raises(ValueError, match=r"^initial position 1000001 out of range 1\.\.1000000$"):
        restrict_initial(big, {10 ** 6 + 1})


def matching_filtrations():
    """Matching complexes filtered by initial position."""
    for k in (d_matching_linear(2, 6), d_matching_linear(3, 9)):
        yield k, HeightFunction({v: v + 1 for v in range(k.vertices)})


def random_filtrations():
    """Seeded random complexes with shuffled distinct heights."""
    rng = seeded("morse")
    for _ in range(20):
        k = random_complex(rng)
        heights = list(range(k.vertices))
        rng.shuffle(heights)
        yield k, HeightFunction({v: heights[v] for v in range(k.vertices)})


def test_morse_on_matching_filtrations():
    for k, h in matching_filtrations():
        assert h.is_valid_for(k)
        for t in h.levels(k):
            kk = morse_sweep(k, h, [t])[0][1]
            assert morse_check(k, h, t, kk)
            for smaller in range(0, kk):
                assert morse_check(k, h, t, smaller)


def test_morse_on_random_complexes():
    for k, h in random_filtrations():
        assert h.is_valid_for(k)
        for t in h.levels(k):
            assert morse_check(k, h, t, morse_sweep(k, h, [t])[0][1])


def test_morse_sweep_reports_a_failed_conclusion(monkeypatch):
    # At a derived degree kk the hypothesis holds, so `holds` is the
    # conclusion itself.  With a pair homology stubbed to H_0 = Z the
    # conclusion fails at every level with kk >= 0: a sweep that let the
    # implication hold vacuously there would pass the two tests above.
    filtrations = list(matching_filtrations()) + list(random_filtrations())
    for k, h in filtrations:
        assert all(holds for _, _, holds in morse_sweep(k, h, h.levels(k)))
    h0 = complexes.HomologyReport({0: 1}, {}, [1])
    monkeypatch.setattr(complexes, "_level_pair_homology", lambda links, through: h0)
    failed = 0
    for k, h in filtrations:
        for t, kk, holds in morse_sweep(k, h, h.levels(k)):
            if kk >= 0:
                assert holds is False, (k.maximal_faces, t, kk)
                failed += 1
    assert failed > 0


def test_morse_max_degree_matches_its_definition():
    # the largest kk <= dim + 2 such that every descending link at level t
    # has vanishing reduced homology through degree kk - 1
    rng = seeded("morse-max-degree")
    for trial in range(30):
        k = random_complex(rng) if trial else d_matching_linear(3, 9)
        heights = list(range(k.vertices))
        rng.shuffle(heights)
        h = HeightFunction({v: heights[v] for v in range(k.vertices)})
        for t in h.levels(k) + [k.vertices + 5]:
            kk = morse_sweep(k, h, [t])[0][1]
            links = [reduced_homology(morse_descending_link(k, h, v))
                     for v in k.vertex_set() if h(v) == t]
            assert -1 <= kk <= k.dim + 2
            assert all(r.is_zero_through(kk - 1) for r in links)
            if kk <= k.dim + 1:
                assert not all(r.is_zero_through(kk) for r in links)
            if not links:
                assert kk == k.dim + 2


def tied_filtrations():
    """Valid height functions with ties: two vertices a level on matching
    complexes, and seeded random heights in 0..3 that happen to be valid."""
    for d, m in ((2, 8), (2, 12), (3, 11)):
        k = d_matching_linear(d, m)
        yield k, HeightFunction({v: v // 2 for v in range(k.vertices)})
    rng = seeded("tied-heights")
    found = 0
    while found < 20:
        k = random_complex(rng)
        h = HeightFunction([rng.randint(0, 3) for _ in range(k.vertices)])
        if h.is_valid_for(k):
            found += 1
            yield k, h


def level_links(k, h, t):
    """The descending links of the height-t vertices, as morse_sweep
    hands them to the level pair helper."""
    return {v: complexes._descending_link(k, h, v) for v in k.vertex_set() if h(v) == t}


def test_level_pair_homology_matches_the_sublevel_pair():
    filtrations = list(matching_filtrations()) + list(random_filtrations()) + list(tied_filtrations())
    nonzero = ties = 0
    for k, h in filtrations:
        levels = h.levels(k)
        for t in levels + [levels[0] - 1]:
            want = relative_homology(sublevel(k, h, t), sublevel(k, h, t - 1))
            got = complexes._level_pair_homology(level_links(k, h, t), k.dim + 1)
            assert report_of(got) == report_of(want), (k, t)
            for through in range(-1, k.dim + 1):
                part = complexes._level_pair_homology(level_links(k, h, t), through)
                for p in range(0, through + 1):
                    assert part.betti_number(p) == want.betti_number(p), (k, t, through)
                    assert part.torsion_coefficients(p) == want.torsion_coefficients(p)
                assert part.is_zero_through(through) == want.is_zero_through(through)
            nonzero += not want.is_zero_through(k.dim)
            ties += sum(1 for v in k.vertex_set() if h(v) == t) > 1
    assert nonzero > 10 and ties > 10


def test_level_pair_chains_are_the_cones_over_the_descending_links(monkeypatch):
    # with a valid h, the faces of K^{<=t} that meet level t are exactly
    # the cones c + v over the faces c of the descending links D_v; the
    # pair helper's chains are caught on their way into _homology
    monkeypatch.setattr(complexes, "_homology", lambda chains, low, through: chains)
    filtrations = list(matching_filtrations()) + list(random_filtrations()) + list(tied_filtrations())
    for k, h in filtrations:
        levels = h.levels(k)
        for t in levels + [levels[0] - 1]:
            upper, lower = sublevel(k, h, t), sublevel(k, h, t - 1)
            want = {size - 1: upper._faces_of_size(size) - lower._faces_of_size(size)
                    for size in range(1, k.dim + 2)}
            for through in range(-1, k.dim + 1):
                chains = complexes._level_pair_homology(level_links(k, h, t), through)
                assert all(len(set(fs)) == len(fs) for fs in chains.values())
                got = {p: frozenset(chains.get(p, ())) for p in range(0, k.dim + 1)}
                cut = {p: fs if p <= through + 1 else frozenset() for p, fs in want.items()}
                assert got == cut, (k.maximal_faces, h.heights, t, through)


def test_json_roundtrip():
    for k in complex_library().values():
        assert SimplicialComplex.from_json_dict(k.to_json_dict()) == k


def test_non_integer_vertices_are_rejected():
    # each of these used to build a complex that kept the non-integer
    for args, message in (((3, [(0, 1.5)]), "face (0, 1.5) has a vertex that is not an integer"),
                          ((3, [(0, True)]), "face (0, True) has a vertex that is not an integer"),
                          ((3, [[1], ["0"]]), "face ('0',) has a vertex that is not an integer"),
                          ((2.5, [(0, 1)]), "vertex count 2.5 is not an integer"),
                          ((False, ()), "vertex count False is not an integer")):
        with pytest.raises(ValueError) as err:
            SimplicialComplex(*args)
        assert str(err.value) == message
    # a position 1.5 used to give an empty complex
    k = d_matching_linear(2, 5)
    for z, message in (([1.5], "initial position 1.5 is not an integer"),
                       ([2, True], "initial position True is not an integer"),
                       ([0], "initial position 0 out of range 1..4")):
        with pytest.raises(ValueError) as err:
            restrict_initial(k, z)
        assert str(err.value) == message
    assert restrict_initial(k, [1, 3]) == k.full_subcomplex({0, 2})
    # the JSON reader checks the shape; the constructor, the vertex count
    # and the face vertices
    for data, message in (({"vertices": 2.5, "maximal_faces": []},
                           "vertex count 2.5 is not an integer"),
                          ({"vertices": 3, "maximal_faces": [[0, 1.5]]},
                           "face (0, 1.5) has a vertex that is not an integer"),
                          ({"vertices": 3, "maximal_faces": [0, 1]},
                           "maximal_faces must be a list of lists"),
                          ({"vertices": 3}, 'a complex is an object with "vertices" and '
                                            '"maximal_faces"')):
        with pytest.raises(ValueError) as err:
            SimplicialComplex.from_json_dict(data)
        assert str(err.value) == message


# -- closure-based oracles for the maximal-face constructions -----------------
# The earlier library code, which scanned the face closure for links,
# stars, descending links, vertex sets and validity, checked transversals
# over every target face, and grew linear and cyclic matchings with two
# separate recursions.  Kept here as differential oracles.

def oracle_link(k, sigma):
    sigma = tuple(sorted(set(sigma)))
    if not k.has_face(sigma):
        raise ValueError("%r is not a face" % (sigma,))
    s = set(sigma)
    faces = set()
    for f in k.faces:
        if s & set(f):
            continue
        if k.has_face(tuple(sorted(set(f) | s))):
            faces.add(f)
    return SimplicialComplex(k.vertices, faces)


def oracle_star(k, sigma):
    sigma = tuple(sorted(set(sigma)))
    if not k.has_face(sigma):
        raise ValueError("%r is not a face" % (sigma,))
    s = set(sigma)
    return SimplicialComplex(k.vertices, {f for f in k.maximal_faces if s <= set(f)})


def oracle_mutual_link(k, x, y):
    for v in (x, y):
        if not k.has_face((v,)):
            raise ValueError("%d is not a vertex" % v)
    if x == y:
        return oracle_link(k, (x,))
    lx, ly = oracle_link(k, (x,)), oracle_link(k, (y,))
    return SimplicialComplex(k.vertices, lx.faces & ly.faces)


def oracle_vertex_set(k):
    return {f[0] for f in k.faces if len(f) == 1}


def oracle_is_valid(h, k):
    for f in k.faces:
        if len(f) == 2 and h.heights[f[0]] == h.heights[f[1]]:
            return False
    return True


def oracle_descending_link(k, h, v):
    if not oracle_is_valid(h, k):
        raise ValueError("invalid height function: some cell has no unique maximum")
    if not k.has_face((v,)):
        raise ValueError("%d is not a vertex" % v)
    return oracle_link(sublevel(k, h, h(v)), (v,))


def oracle_complete_join_check(source, target, vertex_map):
    vmap = dict(enumerate(vertex_map)) if not isinstance(vertex_map, dict) else dict(vertex_map)
    for v in oracle_vertex_set(source):
        if v not in vmap:
            raise ValueError("vertex %d has no image" % v)
        if not target.has_face((vmap[v],)):
            raise ValueError("image of vertex %d is not a vertex of the target" % v)
    for f in source.maximal_faces:
        img = tuple(sorted({vmap[v] for v in f}))
        if not target.has_face(img):
            raise ValueError("map is not simplicial: %r -> %r" % (f, img))
    for f in source.maximal_faces:
        if len({vmap[v] for v in f}) != len(f):
            return False
    fibers = {}
    for v in oracle_vertex_set(source):
        fibers.setdefault(vmap[v], []).append(v)
    if set(fibers) != oracle_vertex_set(target):
        return False
    for f in target.faces:
        for combo in product(*[fibers[w] for w in f]):
            if not source.has_face(combo):
                return False
    return True


def oracle_linear(d, m):
    nv = max(0, m - d + 1)
    faces = []

    def grow(chosen, next_start):
        if chosen:
            faces.append(tuple(v - 1 for v in chosen))
        for p in range(next_start, m - d + 2):
            grow(chosen + [p], p + d)

    grow([], 1)
    return SimplicialComplex(nv, faces)


def oracle_cyclic(d, m):
    if m < d:
        return SimplicialComplex(0)
    supports = {}
    for p in range(1, m + 1):
        supports[p] = frozenset((p - 1 + t) % m for t in range(d))
    faces = []
    starts = list(range(1, m + 1))

    def grow(chosen, used, idx):
        if chosen:
            faces.append(tuple(v - 1 for v in chosen))
        for i in range(idx, len(starts)):
            p = starts[i]
            if used & supports[p]:
                continue
            grow(chosen + [p], used | supports[p], i + 1)

    grow([], frozenset(), 0)
    return SimplicialComplex(m, faces)


def oracle_wcm_violation(k, n):
    if not reduced_homology(k).is_zero_through(n - 1):
        return "complex is not homology %d-connected" % (n - 1)
    for f in sorted(k.faces, key=lambda f: (len(f), f)):
        p = len(f) - 1
        if n - p - 2 < -1:
            continue
        if not reduced_homology(oracle_link(k, f)).is_zero_through(n - p - 2):
            return "link of %r is not homology %d-connected" % (f, n - p - 2)
    return None


def oracle_morse_max_degree(k, h, t):
    reports = [reduced_homology(oracle_descending_link(k, h, v))
               for v in oracle_vertex_set(k) if h(v) == t]
    kk = -1
    while kk <= k.dim + 1 and all(r.is_zero_through(kk) for r in reports):
        kk += 1
    return kk


def oracle_morse_sweep(k, h, levels, kk=None):
    """morse_sweep before truncation and the level pair: the full homology
    of every descending link, and the relative homology of the two
    sublevel complexes."""
    if not oracle_is_valid(h, k):
        raise ValueError("invalid height function: some cell has no unique maximum")
    sweep = []
    for t in levels:
        reports = [reduced_homology(oracle_descending_link(k, h, v))
                   for v in oracle_vertex_set(k) if h(v) == t]
        deg = kk
        if deg is None:
            deg = -1
            while deg <= k.dim + 1 and all(r.is_zero_through(deg) for r in reports):
                deg += 1
        holds = (not all(r.is_zero_through(deg - 1) for r in reports)
                 or relative_homology(sublevel(k, h, t),
                                      sublevel(k, h, t - 1)).is_zero_through(deg))
        sweep.append((t, deg, holds))
    return sweep


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception is the answer being compared
        return "raised", type(exc), str(exc)


def oracle_cases():
    """The complex library, 150 random complexes and restricted linear
    matching complexes (full subcomplexes on random initial sets)."""
    rng = random.Random("maximal-face-oracles")
    cases = list(complex_library().values()) + [SimplicialComplex(3)]
    cases += [random_complex(rng) for _ in range(150)]
    for d, m in ((2, 7), (2, 9), (3, 9), (3, 11), (2, 11)):
        k = d_matching_linear(d, m)
        for _ in range(4):
            cases.append(restrict_initial(k, {p for p in range(1, k.vertices + 1)
                                              if rng.random() < 0.7}))
    return rng, cases


def test_links_and_stars_match_closure_oracles():
    _, cases = oracle_cases()
    raised = 0
    for k in cases:
        assert k.vertex_set() == oracle_vertex_set(k), k
        non_faces = [(), (k.vertices,), (-1,), tuple(range(k.vertices))]
        for sigma in sorted(k.faces) + non_faces:
            for build, oracle in ((link, oracle_link), (star, oracle_star)):
                got = outcome(build, k, sigma)
                assert got == outcome(oracle, k, sigma), (k, sigma)
                raised += got[0] == "raised"
        for x in range(-1, k.vertices + 1):
            for y in range(-1, k.vertices + 1):
                got = outcome(mutual_link, k, x, y)
                assert got == outcome(oracle_mutual_link, k, x, y), (k, x, y)
    assert raised > 300


def test_descending_links_and_validity_match_closure_oracles():
    rng, cases = oracle_cases()
    verdicts = set()
    for k in cases:
        for ties in (False, True):
            heights = ([rng.randint(0, 3) for _ in range(k.vertices)] if ties
                       else rng.sample(range(k.vertices), k.vertices))
            h = HeightFunction(heights)
            verdicts.add(h.is_valid_for(k))
            assert h.is_valid_for(k) == oracle_is_valid(h, k), (k, heights)
            for v in range(-1, k.vertices + 1):
                got = outcome(morse_descending_link, k, h, v)
                assert got == outcome(oracle_descending_link, k, h, v), (k, heights, v)
            if h.is_valid_for(k):
                for t in h.levels(k):
                    assert morse_sweep(k, h, [t])[0][1] == oracle_morse_max_degree(k, h, t)
    assert verdicts == {True, False}
    # a vertex in no edge needs no height, and one without a height has
    # no descending link; the oracle's sublevel would read vertex 2, so it
    # runs on the full subcomplex without it, where 1 has the same link
    k = SimplicialComplex(3, [(0, 1), (2,)])
    h = HeightFunction({0: 0, 1: 1})
    assert h.is_valid_for(k) and oracle_is_valid(h, k)
    assert morse_descending_link(k, h, 1) == oracle_descending_link(
        k.full_subcomplex({0, 1}), h, 1)
    with pytest.raises(ValueError, match="^vertex 2 has no height$"):
        morse_descending_link(k, h, 2)
    with pytest.raises(ValueError, match="^vertex 1 has no height$"):
        HeightFunction({0: 0}).is_valid_for(k)


def test_a_missing_height_is_a_value_error_naming_its_vertex():
    """Each library complex and 200 random ones, with distinct heights
    minus the height of one vertex u: every question that reads u's height
    raises ValueError naming u, never KeyError; a descending link that
    reads no height of u (u in no edge, v != u) is the one of full heights."""
    rng = seeded("missing-height")
    cases = list(complex_library().values()) + [random_complex(rng) for _ in range(200)]
    kinds = []
    for k in cases:
        full = HeightFunction(rng.sample(range(k.vertices), k.vertices))
        vertices = sorted(k.vertex_set())
        u = rng.choice(vertices)
        h = HeightFunction({v: t for v, t in full.heights.items() if v != u})
        missing = ("raised", ValueError, "vertex %d has no height" % u)
        levels = full.levels(k)
        in_edge = any(u in f for f in k.maximal_faces if len(f) > 1)
        kinds.append(in_edge)
        # validity reads only the vertices of edges
        assert outcome(h.is_valid_for, k) == (missing if in_edge else ("value", True))
        asked = [(h.levels, k), (morse_sweep, k, h, levels), (morse_sweep, k, h, levels, 1)]
        for t in levels:
            asked += [(sublevel, k, h, t), (sublevel, k, h, t - 1),
                      (morse_check, k, h, t, 0), (morse_check, k, h, t, 2)]
        for fn, *args in asked:
            assert outcome(fn, *args) == missing, (k, u, fn, args)
        for v in vertices:
            got = outcome(morse_descending_link, k, h, v)
            if in_edge or v == u:
                assert got == missing, (k, u, v)
            else:
                assert got == ("value", morse_descending_link(k, full, v)), (k, u, v)
    assert 5 <= kinds.count(False) <= len(kinds) - 5


def test_complete_join_check_matches_closure_oracle():
    rng, cases = oracle_cases()
    answers = []
    for k in cases:
        cover, vmap = duplicated_cover(k)
        pairs = [(cover, k, vmap), (k, k, list(range(k.vertices)))]
        # a random map onto three points, into its image complex and into k
        images = [rng.randrange(3) for _ in range(k.vertices)]
        image = SimplicialComplex(3, [{images[v] for v in f} for f in k.maximal_faces])
        pairs += [(k, image, images), (k, k, images), (k, image, images[:-1])]
        for source, target, vertex_map in pairs:
            got = outcome(complete_join_check, source, target, vertex_map)
            assert got == outcome(oracle_complete_join_check, source, target, vertex_map)
            answers.append(got[:2])
    assert {("value", True), ("value", False)} <= set(answers)
    assert any(a[0] == "raised" for a in answers)


def test_matching_enumerator_matches_both_recursions():
    for d in (2, 3, 4):
        for m in range(1, 16):
            assert d_matching_linear(d, m) == oracle_linear(d, m), (d, m)
            assert d_matching_cyclic(d, m) == oracle_cyclic(d, m), (d, m)


def test_wcm_and_morse_sweep_match_oracles_at_m2_p16():
    k = d_matching_linear(2, 16)
    dropped = restrict_initial(k, set(range(1, 16)) - {4, 9})
    verdicts = []
    # a full link sweep, a failure of the complex, a failure of a link
    for cx, n in ((k, 4), (k, 5), (dropped, 5)):
        verdict = wcm_violation(cx, n)
        assert verdict == oracle_wcm_violation(cx, n), n
        verdicts.append(verdict)
    assert verdicts == [None, "complex is not homology 4-connected",
                        "link of (4,) is not homology 3-connected"]
    for cx in (k, dropped):
        h = HeightFunction({v: v + 1 for v in range(cx.vertices)})
        for t in h.levels(cx):
            kk = morse_sweep(cx, h, [t])[0][1]
            assert kk == oracle_morse_max_degree(cx, h, t), t
            assert morse_check(cx, h, t, kk)


def test_wcm_and_morse_sweep_match_oracles_on_many_complexes():
    rng, cases = oracle_cases()
    verdicts, sweeps = set(), 0
    for k in cases:
        for n in range(0, 5):
            verdict = wcm_violation(k, n)
            assert verdict == oracle_wcm_violation(k, n), (k, n)
            verdicts.add(verdict is None)
        for ties in (False, True):
            h = HeightFunction([rng.randint(0, 3) for _ in range(k.vertices)] if ties
                               else rng.sample(range(k.vertices), k.vertices))
            if not h.is_valid_for(k):
                continue
            levels = h.levels(k)
            for kk in (None, -1, 0, 1, 2, 3):
                assert morse_sweep(k, h, levels, kk) == oracle_morse_sweep(k, h, levels, kk)
                sweeps += len(levels)
    assert verdicts == {True, False} and sweeps > 2000


def test_morse_functions_validate_once_and_build_each_link_once(monkeypatch):
    k = d_matching_linear(2, 12)
    h = HeightFunction({v: v // 2 for v in range(k.vertices)})  # two vertices a level
    levels = h.levels(k)
    checks = [morse_check(k, h, t, 1) for t in levels]
    derived = [(t, kk, morse_check(k, h, t, kk)) for t in levels
               for kk in [oracle_morse_max_degree(k, h, t)]]
    calls = []
    for name in ("reduced_homology", "_descending_link"):
        fn = getattr(complexes, name)
        monkeypatch.setattr(complexes, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    valid = HeightFunction.is_valid_for
    monkeypatch.setattr(HeightFunction, "is_valid_for",
                        lambda self, kk: calls.append("valid") or valid(self, kk))
    cases = [(morse_sweep, (levels,), derived, levels),
             (morse_sweep, (levels, 1), [(t, 1, c) for t, c in zip(levels, checks)], levels)]
    for t, check, (_, kk, holds) in zip(levels, checks, derived):
        cases += [(morse_check, (t, 1), check, [t]), (morse_check, (t, kk), holds, [t])]
    for fn, args, want, swept in cases:
        calls.clear()
        assert fn(k, h, *args) == want
        vertices = sum(1 for v in k.vertex_set() if h(v) in swept)
        assert calls.count("valid") == 1
        assert calls.count("_descending_link") == calls.count("reduced_homology") == vertices


# -- trusted constructions and the cone rule -----------------------------------
# link, star, join and duplicated_cover store faces they know are maximal, and a
# cone's homology is reported without elimination; the filtered
# constructions and the elimination stay here as their oracles.

def filtered_link(k, sigma):
    s = set(sigma)
    return SimplicialComplex(k.vertices, [tuple(v for v in g if v not in s)
                                          for g in k.maximal_faces if s <= set(g)])


def filtered_cover(k):
    return SimplicialComplex(2 * k.vertices, [tuple(2 * v + e for v, e in zip(f, eps))
                                              for f in k.maximal_faces
                                              for eps in product((0, 1), repeat=len(f))])


def filtered_join(k1, k2):
    m1 = list(k1.maximal_faces) or [()]
    m2 = [tuple(v + k1.vertices for v in f) for f in k2.maximal_faces] or [()]
    return SimplicialComplex(k1.vertices + k2.vertices,
                             {tuple(sorted(a + b)) for a in m1 for b in m2 if a or b})


def is_stored_clean(k):
    """The faces a complex stores are sorted, distinct, nonempty, in range
    and pairwise incomparable: what the constructor's cleaning and filter
    would leave."""
    faces = k.maximal_faces
    return (all(f and list(f) == sorted(set(f)) and 0 <= f[0] and f[-1] < k.vertices
                for f in faces)
            and not any(f != g and set(f) <= set(g) for f in faces for g in faces))


def test_trusted_links_stars_and_covers_equal_the_filtered_constructions():
    rng = seeded("trusted-constructions")
    cases = list(complex_library().values()) + [SimplicialComplex(3)]
    cases += [random_complex(rng, max_vertices=9, max_faces=8, max_size=5) for _ in range(150)]
    cases += [d_matching_linear(2, 10), d_matching_linear(3, 12)]
    checked = maximal_sigma = 0
    for i, k in enumerate(cases):
        cover = duplicated_cover(k)[0]
        assert cover == filtered_cover(k) and is_stored_clean(cover), k
        # joins with the next case, with itself, and with complexes without a face
        for k1, k2 in ((k, cases[i - 1]), (k, k), (k, SimplicialComplex(2)),
                       (SimplicialComplex(0), k)):
            kj = join(k1, k2)
            assert kj == filtered_join(k1, k2) and is_stored_clean(kj), (k1, k2)
        for sigma in sorted(k.faces):
            # oracle_star is the filtered construction of the star
            lk, st = link(k, sigma), star(k, sigma)
            assert lk == filtered_link(k, sigma) == oracle_link(k, sigma), (k, sigma)
            assert st == oracle_star(k, sigma), (k, sigma)
            assert is_stored_clean(lk) and is_stored_clean(st), (k, sigma)
            checked += 1
            maximal_sigma += sigma in k.maximal_faces
    assert checked > 3000 and maximal_sigma > 300


def cone_cases():
    """Random complexes with an apex added to every maximal face, and
    joins of the complex library with a point."""
    rng = seeded("cones")
    cones = []
    for _ in range(120):
        k = random_complex(rng, max_vertices=8, max_faces=7, max_size=4)
        cones.append(SimplicialComplex(k.vertices + 1,
                                       [f + (k.vertices,) for f in k.maximal_faces]))
    point = SimplicialComplex(1, [(0,)])
    cones += [join(k, point) for k in complex_library().values()]
    cones += [join(point, SimplicialComplex(3)), SimplicialComplex.simplex(1)]
    return cones


def test_cone_rule_agrees_with_elimination_and_the_dense_reference(monkeypatch):
    homology = complexes._homology
    cones = cone_cases()
    throughs = [None] + list(range(-2, max(c.dim for c in cones) + 2))
    # elimination: the same report with the cone rule switched off
    eliminated = {}
    monkeypatch.setattr(complexes, "_homology",
                        lambda chains, low, through=None, acyclic=False:
                        homology(chains, low, through))
    for i, c in enumerate(cones):
        for q in throughs:
            eliminated[i, q] = reduced_homology(c, q)
    monkeypatch.undo()
    # the cone rule builds no boundary map
    monkeypatch.setattr(complexes, "_sparse_invariants", forbidden_invariants)
    for i, c in enumerate(cones):
        assert set.intersection(*map(set, c.maximal_faces)), c
        for q in throughs:
            got, want = reduced_homology(c, q), eliminated[i, q]
            assert report_of(got) + (got.through,) == report_of(want) + (want.through,), (c, q)
            assert not any(got.betti.values()) and not got.torsion
        full = reduced_homology(c)
        assert report_of(full) == dense_homology(chains_of(oracle_faces(c), -1), -1), c
        assert full.euler_consistent()


def forbidden_invariants(columns):
    raise AssertionError("a boundary map was reduced")


def test_a_complex_that_is_not_a_cone_reaches_elimination(monkeypatch):
    rng = seeded("not-cones")
    homology = complexes._homology
    calls = []

    def counted(chains, low, through=None, acyclic=False):
        calls.append(acyclic)
        return homology(chains, low, through, acyclic)

    monkeypatch.setattr(complexes, "_homology", counted)
    others = [SimplicialComplex(0), SimplicialComplex(3), HOLLOW, complex_library()["rp2"]]
    others += [random_complex(rng, max_vertices=9, max_faces=8, max_size=5) for _ in range(100)]
    others = [k for k in others if not k.maximal_faces
              or not set.intersection(*map(set, k.maximal_faces))]
    assert len(others) > 30
    for k in others:
        for q in (None, -1, 0, 1):
            calls.clear()
            reduced_homology(k, q)
            assert calls == [False], k
    calls.clear()
    reduced_homology(cone_cases()[0])
    assert calls == [True]


def test_links_stars_covers_and_wcm_skip_the_maximality_filter(monkeypatch):
    # link, star, join, duplicated_cover and wcm_violation (whose verdict here
    # is None, so it builds the link of every face it reads) build no complex
    # through SimplicialComplex.__init__; the constructions that need the
    # maximality filter still do
    k = restrict_initial(d_matching_linear(2, 12), set(range(1, 12)) - {5})
    h = HeightFunction({v: v for v in range(k.vertices)})
    verdict = oracle_wcm_violation(k, 3)
    assert verdict is None
    init = SimplicialComplex.__init__
    calls = []
    monkeypatch.setattr(SimplicialComplex, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    trusted = [lambda: [link(k, f) for f in k.faces], lambda: [star(k, f) for f in k.faces],
               lambda: join(k, k), lambda: duplicated_cover(k),
               lambda: wcm_violation(k, 3) == verdict]
    for run in trusted:
        calls.clear()
        assert run()
        assert calls == []
    filtered = [lambda: d_matching_linear(2, 8), lambda: k.full_subcomplex(range(6)),
                lambda: morse_descending_link(k, h, 6), lambda: mutual_link(k, 0, 6)]
    for run in filtered:
        calls.clear()
        run()
        assert calls
