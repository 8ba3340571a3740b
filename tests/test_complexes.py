import math

import pytest

from braidedthompson import (HeightFunction, SimplicialComplex,
                             complete_join_check, d_matching_cyclic,
                             d_matching_linear, duplicated_cover,
                             forest_to_matching, is_homology_wcm, join, link,
                             matching_to_forest, morse_check,
                             morse_descending_link, morse_max_degree,
                             mutual_link,
                             reduced_homology, relative_homology,
                             restrict_initial, simplex_counts,
                             smith_invariants, star, sublevel, wcm_violation)
from conftest import complex_library, random_complex, seeded

HOLLOW = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])


# -- homology engine -----------------------------------------------------------

def test_smith_invariants_basics():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[1, 0], [0, 0]]) == [1]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_homology_golden_values():
    h = reduced_homology(HOLLOW)
    assert h.betti_number(1) == 1 and h.betti_number(0) == 0

    h = reduced_homology(SimplicialComplex.simplex(5))
    assert all(h.betti_number(p) == 0 for p in range(-1, 5)) and not h.torsion

    h = reduced_homology(SimplicialComplex(2, [(0,), (1,)]))
    assert h.betti_number(0) == 1

    h = reduced_homology(SimplicialComplex.empty())
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
    cases = [SimplicialComplex.empty(), rp2] + [random_complex(rng) for _ in range(25)]
    for k in cases:
        red = reduced_homology(k)
        rel = relative_homology(join(k, point), k)
        for p in range(-1, k.dim + 2):
            assert rel.betti_number(p + 1) == red.betti_number(p), (k, p)
            assert rel.torsion_coefficients(p + 1) == red.torsion_coefficients(p), (k, p)
    # the cases that pin the torsion and the augmentation degree
    assert relative_homology(join(rp2, point), rp2).torsion_coefficients(2) == (2,)
    assert relative_homology(point, SimplicialComplex.empty()).betti_number(0) == 1


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
    assert mutual_link(two, 0, 2).is_empty()
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
    assert d_matching_linear(3, 2).is_empty()


def test_cyclic_matching_shape():
    k = d_matching_cyclic(2, 4)
    assert k.vertices == 4
    assert k.has_face((0, 2)) and k.has_face((1, 3))
    assert not k.has_face((0, 1))
    # wrap-around disjointness
    k5 = d_matching_cyclic(2, 5)
    assert k5.has_face((0, 2)) and not k5.has_face((0, 4))
    assert d_matching_cyclic(3, 2).is_empty()
    assert d_matching_cyclic(3, 3).dim == 0


def test_restrict_initial():
    k = d_matching_linear(2, 6)
    assert restrict_initial(k, set(range(1, 6))) == k
    assert restrict_initial(k, set()).is_empty()
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
    assert sublevel(k, h, 0).is_empty()
    strict = sublevel(k, h, 3, strict=True)
    assert strict.vertex_set() == {0, 1}


def test_morse_on_matching_filtrations():
    for k in (d_matching_linear(2, 6), d_matching_linear(3, 9)):
        h = HeightFunction({v: v + 1 for v in range(k.vertices)})
        assert h.is_valid_for(k)
        for t in h.levels(k):
            kk = morse_max_degree(k, h, t)
            assert morse_check(k, h, t, kk)
            for smaller in range(0, kk):
                assert morse_check(k, h, t, smaller)


def test_morse_on_random_complexes():
    rng = seeded("morse")
    for _ in range(20):
        k = random_complex(rng)
        heights = list(range(k.vertices))
        rng.shuffle(heights)
        h = HeightFunction({v: heights[v] for v in range(k.vertices)})
        assert h.is_valid_for(k)
        for t in h.levels(k):
            assert morse_check(k, h, t, morse_max_degree(k, h, t))


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
            kk = morse_max_degree(k, h, t)
            links = [reduced_homology(morse_descending_link(k, h, v))
                     for v in k.vertex_set() if h(v) == t]
            assert -1 <= kk <= k.dim + 2
            assert all(r.is_zero_through(kk - 1) for r in links)
            if kk <= k.dim + 1:
                assert not all(r.is_zero_through(kk) for r in links)
            if not links:
                assert kk == k.dim + 2


def test_json_roundtrip():
    for k in complex_library().values():
        assert SimplicialComplex.from_json_dict(k.to_json_dict()) == k
