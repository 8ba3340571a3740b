"""Finite abstract simplicial complexes with exact integer homology.

Complexes are stored by their maximal faces over a fixed ambient vertex
set 0..V-1 (a vertex belongs to the complex iff it spans a face, so an
ambient id may be unused, e.g. after passing to a full subcomplex).
Reduced homology is computed from the augmented boundary maps, stored as
sparse columns: columns are eliminated against +-1 pivots first, and only
the block left without a unit pivot goes through the dense Smith normal
form (`smith_invariants`).  The maps are reduced from the top degree down
with clearing: a column whose face is a unit pivot row of the map above
is skipped, which keeps the invariant factors exact (see `_homology`).
A question about degrees <= q only (`reduced_homology(k, through=q)`)
builds the faces of dimension <= q + 1 and stops there.  A cone (its
maximal faces share a vertex) is contractible, so its report is zero in
every degree and no boundary map is built for it.  All arithmetic
is on Python integers, so torsion is exact and there is no overflow.
Orientation: faces are ordered by ascending vertex id and boundary signs
alternate accordingly.

Connectivity is only ever certified HOMOLOGICALLY here: "homology
n-connected" means vanishing reduced homology through degree n; the
fundamental group is not decided.

Also provided: the d-matching complexes of linear and cyclic graphs
(vertex id v is the arc with initial position v+1), link/star/join,
the mutual link of two vertices, a weak Cohen-Macaulay checker, a
complete-join checker, and discrete-Morse machinery: descending links,
sublevel filtrations, and one sweep (`morse_sweep`) that checks the
relative-homology conclusion of the Morse lemma level by level and can
derive the largest degree its hypothesis supports (`morse_check` is the
one-level predicate).  Each of these reads every vertex's height as h(v),
and a vertex without one is a ValueError naming it; only validity spares
a vertex in no edge.

Sizes, vertices, dimensions, degrees, heights, levels and the entries of
a matrix given to `smith_invariants` are ints (not bools or floats);
anything else is a ValueError that names it, raised where it enters.

Faces are read off the maximal faces one size at a time, as they are
asked for, and cached on the complex.  Full subcomplexes, mutual links
and descending links come from one restriction (some faces of the
complex cut down to a vertex set, then filtered for maximality); links,
stars, joins and duplicated covers skip the filter, as their faces are
maximal by construction.  The chains of a Morse level pair are the cones over
the faces of the descending links the sweep built.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd

from ._checks import require_int


class SimplicialComplex:
    """A finite simplicial complex stored by its maximal faces over the
    ambient vertex range 0..V-1.  Its faces are read off the maximal faces
    one size at a time, on first use, and cached by size."""

    __slots__ = ("vertices", "maximal_faces", "_faces")

    def __init__(self, vertices, maximal_faces=()):
        require_int(vertices, "vertex count", 0)
        cleaned = set()
        for f in maximal_faces:
            f = tuple(f)
            if not all(type(v) is int for v in f):
                raise ValueError("face %r has a vertex that is not an integer" % (f,))
            f = tuple(sorted(set(f)))
            if not f:
                continue
            if vertices == 0:
                raise ValueError("the complex has no vertices, so it has no nonempty face")
            if f[0] < 0 or f[-1] >= vertices:
                raise ValueError("face %r out of vertex range 0..%d" % (f, vertices - 1))
            cleaned.add(f)
        # drop faces contained in others
        maximal = {f for f in cleaned
                   if not any(f != g and set(f) <= set(g) for g in cleaned)}
        self.vertices = vertices
        self.maximal_faces = frozenset(maximal)
        self._faces = None

    @classmethod
    def _trusted(cls, vertices, maximal_faces):
        """A complex from sorted, distinct, nonempty faces in 0..V-1 that
        the library has proved maximal: no cleaning and no filter."""
        k = object.__new__(cls)
        k.vertices = vertices
        k.maximal_faces = frozenset(maximal_faces)
        k._faces = None
        return k

    @classmethod
    def simplex(cls, n_vertices):
        """The full simplex on n_vertices vertices."""
        return cls(require_int(n_vertices, "vertex count"), (tuple(range(n_vertices)),))

    @classmethod
    def sphere(cls, n):
        """The boundary of the (n+1)-simplex, a combinatorial n-sphere."""
        require_int(n, "sphere dimension", -1)
        verts = tuple(range(n + 2))
        return cls(n + 2, combinations(verts, n + 1))

    def _faces_of_size(self, size):
        """The faces with `size` vertices (none below 1), read off the
        maximal faces the first time that size is asked for."""
        if size < 1:
            return frozenset()
        if self._faces is None:
            self._faces = {}
        if size not in self._faces:
            self._faces[size] = frozenset(
                c for f in self.maximal_faces for c in combinations(f, size))
        return self._faces[size]

    @property
    def faces(self):
        """All nonempty faces (downward closure of the maximal ones)."""
        return frozenset().union(*map(self._faces_of_size, range(1, self.dim + 2)))

    def faces_of_dim(self, p):
        return sorted(self._faces_of_size(require_int(p, "dimension") + 1))

    @property
    def dim(self):
        if not self.maximal_faces:
            return -1
        return max(len(f) for f in self.maximal_faces) - 1

    def has_face(self, f):
        f = tuple(sorted(set(f)))
        return f in self._faces_of_size(len(f))

    def vertex_set(self):
        return {v for v, in self._faces_of_size(1)}

    def face_counts(self):
        return [len(self._faces_of_size(size)) for size in range(1, self.dim + 2)]

    def euler_characteristic(self):
        return sum((-1) ** p * c for p, c in enumerate(self.face_counts()))

    def full_subcomplex(self, keep):
        """Faces spanned by the vertex subset `keep`; ambient ids kept."""
        return _restrict(self, self.maximal_faces, {require_int(v, "vertex") for v in keep})

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.maximal_faces == other.maximal_faces)

    def __hash__(self):
        return hash((self.vertices, self.maximal_faces))

    def __repr__(self):
        return "SimplicialComplex(%d, %d maximal faces, dim %d)" % (
            self.vertices, len(self.maximal_faces), self.dim)

    def to_json_dict(self):
        return {"vertices": self.vertices,
                "maximal_faces": sorted([list(f) for f in self.maximal_faces])}

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of to_json_dict; ValueError on anything of another shape.
        The vertex count and the face vertices are checked by __init__."""
        if not isinstance(data, dict) or not {"vertices", "maximal_faces"} <= data.keys():
            raise ValueError('a complex is an object with "vertices" and "maximal_faces"')
        faces = data["maximal_faces"]
        if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
            raise ValueError("maximal_faces must be a list of lists")
        return cls(data["vertices"], faces)


# -- restriction: link, star, join, mutual link ------------------------------


def _restrict(k: SimplicialComplex, faces, keep) -> SimplicialComplex:
    """The complex on k's ambient vertices spanned by the given faces of k
    cut down to `keep`, filtered for maximality: full subcomplexes, mutual
    links and descending links are each one."""
    return SimplicialComplex(k.vertices, [tuple(v for v in f if v in keep) for f in faces])


def _cofaces(k: SimplicialComplex, sigma):
    """The maximal faces of k that contain sigma; ValueError if sigma is
    not a nonempty face."""
    s = {require_int(v, "vertex") for v in sigma}
    found = [f for f in k.maximal_faces if s.issubset(f)] if s else []
    if not found:
        raise ValueError("%r is not a face" % (tuple(sorted(s)),))
    return found


def link(k: SimplicialComplex, sigma) -> SimplicialComplex:
    """The faces that miss sigma and span a face with it.  Its maximal
    faces are g - sigma for the maximal faces g containing sigma, with no
    filter: g - sigma < h - sigma for another such h would give g < h."""
    cofaces = _cofaces(k, sigma)
    s = set(sigma)
    rests = (tuple(v for v in g if v not in s) for g in cofaces)
    return SimplicialComplex._trusted(k.vertices, [f for f in rests if f])


def star(k: SimplicialComplex, sigma) -> SimplicialComplex:
    """The closed star: all faces contained in a face containing sigma.
    Its maximal faces are those cofaces of sigma, maximal in k already."""
    return SimplicialComplex._trusted(k.vertices, _cofaces(k, sigma))


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join on the disjoint union of the vertex sets (the
    second complex is shifted by k1.vertices).  Its maximal faces are a + b
    for a, b maximal in k1 and the shifted k2, or () in one with no face
    (never the empty face): disjoint vertex sets make a + b sorted, and
    maximal with no filter, as a + b < a' + b' would give a < a' or b < b'."""
    off = k1.vertices
    m1 = list(k1.maximal_faces) or [()]
    m2 = [tuple(v + off for v in f) for f in k2.maximal_faces] or [()]
    return SimplicialComplex._trusted(k1.vertices + k2.vertices,
                                      [a + b for a in m1 for b in m2 if a or b])


def _require_vertex(k: SimplicialComplex, v) -> None:
    """A ValueError unless v is an int that is a vertex of k."""
    if not k.has_face((require_int(v, "vertex"),)):
        raise ValueError("%d is not a vertex" % v)


def mutual_link(k: SimplicialComplex, x: int, y: int) -> SimplicialComplex:
    """Lk(x) intersected with Lk(y), the complex seen from both vertices:
    the intersections of a coface of x with a coface of y, minus x and y."""
    _require_vertex(k, x)
    _require_vertex(k, y)
    xs, ys = _cofaces(k, (x,)), [set(b) for b in _cofaces(k, (y,))]
    return _restrict(k, [tuple(v for v in a if v in b) for a in xs for b in ys],
                     set().union(*xs).difference((x, y)))


# -- integer Smith normal form and homology ----------------------------------


def smith_invariants(rows):
    """Invariant factors (positive, each dividing the next) of an integer
    matrix given as a list of row lists, in arbitrary precision; a row
    whose length differs from the first's, or an entry that is not an int,
    is a ValueError.  A pivot of least absolute value in the undiagonalized
    block moves to (t, t) and clears its column, then its row, by quotient
    multiples; |pivot| is recorded once both are clear, else a smaller
    remainder is the next pivot, so the loop ends.  diag(a, b) ~ diag(gcd(a, b), lcm(a, b)), so a
    last pass doing that to each diagonal pair leaves a divisibility chain."""
    a = [list(r) for r in rows]
    m, n = len(a), (len(a[0]) if a else 0)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix row %d has length %d, row 0 has %d" % (i, len(row), n))
        if set(map(type, row)) - {int}:
            for x in row:
                require_int(x, "matrix entry")
    diag, t = [], 0
    while t < m and t < n:
        nonzero = [(abs(v), i, j) for i in range(t, m)
                   for j, v in enumerate(a[i][t:], t) if v]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        for row in a[t:]:
            row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        if not any(row[t] for row in a[t + 1:]):
            # the column is clear, so clearing the row changes only the row
            a[t][t + 1:] = [x % p for x in a[t][t + 1:]]
            if not any(a[t][t + 1:]):
                diag.append(abs(p))
                t += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


class HomologyReport:
    """Reduced integer homology, degree by degree: free rank plus the
    list of torsion coefficients.  Degree -1 is included (it is Z for the
    empty complex).  A report computed only through degree q has
    `through` = q and raises ValueError when asked about a degree above
    q; a complete report has `through` = None."""

    __slots__ = ("betti", "torsion", "face_counts", "through")

    def __init__(self, betti, torsion, face_counts, through=None):
        self.betti = dict(betti)
        self.torsion = {p: tuple(t) for p, t in torsion.items() if t}
        self.face_counts = list(face_counts)
        self.through = through

    def _known(self, p):
        require_int(p, "degree")
        if self.through is not None and p > self.through:
            raise ValueError("homology was computed through degree %d, not %d"
                             % (self.through, p))

    def betti_number(self, p):
        self._known(p)
        return self.betti.get(p, 0)

    def torsion_coefficients(self, p):
        self._known(p)
        return self.torsion.get(p, ())

    def is_zero_through(self, n):
        """True iff reduced homology vanishes in all degrees <= n."""
        self._known(n)
        for p, b in self.betti.items():
            if p <= n and b:
                return False
        for p, t in self.torsion.items():
            if p <= n and t:
                return False
        return True

    def euler_characteristic(self):
        """Unreduced Euler characteristic recovered from the Betti
        numbers; torsion does not contribute.  Needs a complete report."""
        if self.through is not None:
            raise ValueError("homology was computed through degree %d only" % self.through)
        return 1 + sum((-1 if p % 2 else 1) * b for p, b in self.betti.items())

    def euler_consistent(self):
        chi = sum((-1) ** p * c for p, c in enumerate(self.face_counts))
        return chi == self.euler_characteristic()

    def to_json_dict(self):
        degs = sorted(set(self.betti) | set(self.torsion))
        return {"reduced_homology": [
            {"degree": p,
             "betti": self.betti.get(p, 0),
             "torsion": list(self.torsion.get(p, ()))}
            for p in degs]}

    def __repr__(self):
        parts = []
        for p in sorted(set(self.betti) | set(self.torsion)):
            b = self.betti.get(p, 0)
            terms = ["Z^%d" % b] * (b > 0) + ["Z/%d" % x for x in self.torsion.get(p, ())]
            if terms:
                parts.append("H~_%d = %s" % (p, " + ".join(terms)))
        return "HomologyReport(%s)" % ("; ".join(parts) or "trivial")


def _sparse_invariants(columns):
    """Invariant factors of the integer matrix with the given sparse
    columns ({row: entry} dicts), as smith_invariants lists them, and the
    rows that hold a unit pivot.

    A column is reduced at its lowest row against the columns holding a
    unit pivot there; it becomes a pivot itself if its lowest entry is
    +-1, and is set aside otherwise.  The pivot block is unitriangular,
    so each pivot gives a factor 1 and row operations clear its other
    rows without touching the remaining columns.  Those are reduced
    against the final pivots until no entry is left in a pivot row; only
    that leftover block goes through the dense Smith form.
    """
    pivots = {}
    aside = []
    for col in columns:
        col = dict(col)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                break
            _eliminate(col, piv, low)
        if not col:
            continue
        if col[low] in (1, -1):
            pivots[low] = col
        else:
            aside.append(col)
    leftover = []
    for col in aside:
        # a pivot's other entries lie above its row, so this ends
        while hit := [r for r in col if r in pivots]:
            r = max(hit)
            _eliminate(col, pivots[r], r)
        if col:
            leftover.append(col)
    invs = [1] * len(pivots)
    if leftover:
        used = sorted(set().union(*leftover))
        invs += smith_invariants([[col.get(i, 0) for col in leftover] for i in used])
    return invs, pivots.keys()


def _eliminate(col, piv, r):
    """Subtract from `col` the multiple of `piv` (entry +-1 at row r) that
    clears row r."""
    q = col[r] * piv[r]
    for i, v in piv.items():
        w = col.get(i, 0) - q * v
        if w:
            col[i] = w
        else:
            del col[i]


def _homology(chains, low, through=None, acyclic=False):
    """Homology of the chain complex with basis `chains` (degree ->
    faces), reported in degrees low .. top chain degree, or low .. through
    when `through` is lower (the report then says so; the chains above
    through + 1 are not read).  Boundary maps are sparse columns over the
    lexicographic face order; faces missing from the degree below are
    projected away.

    The maps are reduced from the top degree down, with clearing (Chen and
    Kerber, 2011): a column of d_p is skipped when its p-face is the row
    of a unit pivot of d_{p+1}.  That pivot column z is an integer
    combination of columns of d_{p+1}, so d_p z = 0; its lowest entry is
    +-1 at the skipped face and its others lie above, so the skipped
    column is an integer combination of earlier columns.  The column
    lattice of d_p, and with it the rank and the invariant factors, is
    unchanged.  With `acyclic` (the caller knows the homology vanishes) no
    map is built, and the report has the same degrees and face counts."""
    top = max(chains, default=-1)
    if through is not None and through >= top:
        through = None
    last = top if through is None else through
    counts = [len(chains.get(p, ())) for p in range(0, top + 1)]
    if acyclic:
        return HomologyReport(dict.fromkeys(range(low, last + 1), 0), {}, counts, through)
    for fs in chains.values():
        fs.sort()
    invs = {}
    cleared = ()
    for p in range(last + 1, low - 1, -1):
        lower, upper = chains.get(p - 1), chains.get(p)
        if not (lower and upper):
            invs[p], cleared = [], ()
            continue
        index = {f: i for i, f in enumerate(lower)}
        columns = []
        for j, f in enumerate(upper):
            if j in cleared:
                continue
            col = {}
            for drop in range(len(f)):
                i = index.get(f[:drop] + f[drop + 1:])
                if i is not None:
                    col[i] = -1 if drop % 2 else 1
            columns.append(col)
        invs[p], cleared = _sparse_invariants(columns)
    degrees = range(low, last + 1)
    betti = {p: len(chains.get(p, ())) - len(invs[p]) - len(invs[p + 1]) for p in degrees}
    torsion = {p: [d for d in invs[p + 1] if d > 1] for p in degrees}
    return HomologyReport(betti, torsion, counts, through)


def reduced_homology(k: SimplicialComplex, through=None) -> HomologyReport:
    """Reduced homology: the empty face spans the augmentation C_{-1} = Z.

    With `through` = q only the faces of dimension <= q + 1 are read, and
    the report stops at degree q: the (q+1)-skeleton has the same homology
    as k through degree q.  A cone (maximal faces sharing a vertex) is
    contractible (Kozlov, Combinatorial Algebraic Topology, 2008), so its
    report is zero in every degree and builds no boundary map."""
    if through is not None:
        require_int(through, "degree")
    top = k.dim + 1 if through is None else min(through + 2, k.dim + 1)
    chains = {size - 1: list(k._faces_of_size(size)) for size in range(1, top + 1)}
    chains[-1] = [()]
    faces = k.maximal_faces
    cone = bool(faces) and bool(set(next(iter(faces))).intersection(*faces))
    return _homology(chains, -1, through, cone)


def relative_homology(k: SimplicialComplex, sub: SimplicialComplex):
    """Integer homology of the pair (k, sub): chains on faces of k not in
    sub, boundary projected.  Returns a HomologyReport (no degree -1)."""
    if not all(k.has_face(f) for f in sub.maximal_faces):
        raise ValueError("second complex is not a subcomplex")
    chains = {}
    for size in range(1, k.dim + 2):
        if rest := k._faces_of_size(size) - sub._faces_of_size(size):
            chains[size - 1] = list(rest)
    return _homology(chains, 0)


# -- matching complexes -------------------------------------------------------


def _disjoint_systems(supports):
    """Every nonempty ascending tuple of indices into `supports` (bit
    masks of positions) whose supports are pairwise disjoint."""
    systems = []
    stack = [((), 0, 0)]
    while stack:
        chosen, used, start = stack.pop()
        if chosen:
            systems.append(chosen)
        for i in range(start, len(supports)):
            if not used & supports[i]:
                stack.append((chosen + (i,), used | supports[i], i + 1))
    return systems


def d_matching_linear(d: int, m: int) -> SimplicialComplex:
    """Disjoint systems of intervals [p, p+d-1] inside the path on m
    vertices.  Complex vertex v is the interval with initial position
    v+1; there are m-d+1 of them (none if m < d)."""
    require_int(d, "arity", 2)
    require_int(m, "length", 1)
    nv = max(0, m - d + 1)
    return SimplicialComplex(nv, _disjoint_systems([((1 << d) - 1) << v for v in range(nv)]))


def d_matching_cyclic(d: int, m: int) -> SimplicialComplex:
    """Same over the cycle on m vertices: intervals wrap modulo m and a
    face is a set of intervals with pairwise disjoint supports."""
    require_int(d, "arity", 2)
    require_int(m, "length", 1)
    if m < d:
        return SimplicialComplex(0)
    return SimplicialComplex(m, _disjoint_systems(
        [sum(1 << ((v + t) % m) for t in range(d)) for v in range(m)]))


def restrict_initial(k: SimplicialComplex, z) -> SimplicialComplex:
    """Full subcomplex of a matching complex on the arcs whose initial
    position lies in z (positions are 1-based, vertex ids 0-based)."""
    return k.full_subcomplex({require_int(p, "initial position", 1, k.vertices) - 1
                              for p in set(z)})


def simplex_counts(d: int, m: int):
    """Face counts of the linear d-matching complex, by dimension."""
    return d_matching_linear(d, m).face_counts()


# -- weak Cohen-Macaulay and complete joins -----------------------------------


def wcm_violation(k: SimplicialComplex, n: int):
    """First failure of homology-wCM of dimension n, or None.

    Checks vanishing reduced homology of the complex through degree n-1
    and of every p-face link through degree n-p-2, faces by size, then
    lexicographically.  Only the faces of dimension <= n-1 are read, and
    each homology is computed only through the degree asked.
    """
    require_int(n, "dimension")
    if not reduced_homology(k, n - 1).is_zero_through(n - 1):
        return "complex is not homology %d-connected" % (n - 1)
    for size in range(1, min(n, k.dim + 1) + 1):
        q = n - size - 1
        for f in k.faces_of_dim(size - 1):
            if not reduced_homology(link(k, f), q).is_zero_through(q):
                return "link of %r is not homology %d-connected" % (f, q)
    return None


def is_homology_wcm(k: SimplicialComplex, n: int) -> bool:
    return wcm_violation(k, n) is None


def complete_join_check(source: SimplicialComplex, target: SimplicialComplex,
                        vertex_map) -> bool:
    """Check that the simplicial map source -> target given by
    `vertex_map` (target vertex per source vertex) is a complete join:
    surjective, injective on every simplex, and every simplex preimage is
    the join of its vertex fibers.  Raises if the map is not simplicial.
    """
    vmap = dict(enumerate(vertex_map)) if not isinstance(vertex_map, dict) else dict(vertex_map)
    targets, fibers = target.vertex_set(), {}
    for v in source.vertex_set():
        if v not in vmap:
            raise ValueError("vertex %d has no image" % v)
        if vmap[v] not in targets:
            raise ValueError("image of vertex %d is not a vertex of the target" % v)
        fibers.setdefault(vmap[v], []).append(v)
    for f in source.maximal_faces:
        img = tuple(sorted({vmap[v] for v in f}))
        if not target.has_face(img):
            raise ValueError("map is not simplicial: %r -> %r" % (f, img))
    # simplexwise injectivity
    for f in source.maximal_faces:
        if len({vmap[v] for v in f}) != len(f):
            return False
    # surjectivity on vertices
    if set(fibers) != targets:
        return False
    # every transversal of fibers over a maximal face of the target is a
    # face (its subfaces' transversals are subfaces of these)
    for f in target.maximal_faces:
        for combo in product(*[fibers[w] for w in f]):
            if not source.has_face(combo):
                return False
    return True


def duplicated_cover(k: SimplicialComplex):
    """The double cover used as a stock complete join: each vertex v is
    duplicated into 2v and 2v+1, faces lift in all combinations.
    Returns (cover, vertex_map).  The lifts of the maximal faces are the
    cover's maximal faces, unfiltered: a lift inside another would lie over
    a face inside another, and the lifts of one face have one size."""
    cover = SimplicialComplex._trusted(2 * k.vertices, [
        tuple(2 * v + e for v, e in zip(f, eps))
        for f in k.maximal_faces for eps in product((0, 1), repeat=len(f))])
    vmap = {2 * v + e: v for v in k.vertex_set() for e in (0, 1)}
    return cover, vmap


# -- discrete Morse machinery -------------------------------------------------


_INVALID_HEIGHTS = "invalid height function: some cell has no unique maximum"
_NO_HEIGHT = "vertex %d has no height"


class HeightFunction:
    """Integer heights on the ambient vertices, read as h(v): a vertex
    that is not an int, or has no height, is a ValueError that names it.  Valid for a complex iff
    every face has a unique maximizing vertex (equivalently no edge is
    level), so a vertex in no edge needs no height to be valid."""

    __slots__ = ("heights",)

    def __init__(self, heights):
        items = heights.items() if isinstance(heights, dict) else enumerate(heights)
        self.heights = {require_int(v, "vertex"): require_int(t, "height") for v, t in items}

    def __call__(self, v):
        if type(v) is not int:
            require_int(v, "vertex")
        try:
            return self.heights[v]
        except KeyError:
            raise ValueError(_NO_HEIGHT % v) from None

    def is_valid_for(self, k: SimplicialComplex) -> bool:
        heights = self.heights
        try:
            for f in k.maximal_faces:
                if len(f) > 1 and len({heights[v] for v in f}) < len(f):
                    return False
        except KeyError as missing:
            raise ValueError(_NO_HEIGHT % missing.args[0]) from None
        return True

    def levels(self, k: SimplicialComplex):
        return sorted(set(map(self, k.vertex_set())))


def sublevel(k: SimplicialComplex, h: HeightFunction, t: int) -> SimplicialComplex:
    """The full subcomplex K^{<=t} on the vertices of height at most t.
    Heights and levels are integers, so K^{<t} is sublevel(k, h, t - 1)."""
    require_int(t, "level")
    return k.full_subcomplex({v for v in k.vertex_set() if h(v) <= t})


def _descending_link(k: SimplicialComplex, h: HeightFunction, v: int) -> SimplicialComplex:
    hv = h(v)
    cofaces = _cofaces(k, (v,))
    return _restrict(k, cofaces, {u for u in set().union(*cofaces) if h(u) < hv})


def morse_descending_link(k: SimplicialComplex, h: HeightFunction, v: int) -> SimplicialComplex:
    """Link of v in the sublevel complex at h(v); with a valid height
    function all its vertices lie strictly below v, so it is spanned by
    the parts below h(v) of the maximal faces through v."""
    if not h.is_valid_for(k):
        raise ValueError(_INVALID_HEIGHTS)
    _require_vertex(k, v)
    return _descending_link(k, h, v)


def _level_pair_homology(links, through):
    """H_*(K^{<=t}, K^{<t}) through degree `through`, from the descending
    links {v: D_v} of the height-t vertices of a valid h.  A face of
    K^{<=t} that meets level t holds one height-t vertex v, and the rest
    is a face c of D_v, maybe empty: the pair's chains are the cones c + v,
    read off the cached faces of each link by size."""
    chains = {}
    for v, d in links.items():
        chains.setdefault(0, []).append((v,))
        for size in range(1, min(through, d.dim) + 2):
            chains.setdefault(size, []).extend(
                tuple(sorted(c + (v,))) for c in d._faces_of_size(size))
    return _homology(chains, 0, through)


def morse_sweep(k: SimplicialComplex, h: HeightFunction, levels, kk=None):
    """[(t, kk, holds)] for t in levels.  holds is the truth of the
    homological Morse lemma at level t: IF every descending link of a
    height-t vertex has vanishing reduced homology through degree kk-1,
    THEN the pair (K^{<=t}, K^{<t}) has vanishing homology through degree
    kk.  kk=None takes, level by level, the largest kk <= dim + 2 whose
    hypothesis holds (-1 when some link is empty).  The height function
    is validated once, and each descending link and its homology are
    computed once; with kk given, the homology of the links and of the
    pair is computed only through the degrees asked."""
    if kk is not None:
        require_int(kk, "degree")
    levels = [require_int(t, "level") for t in levels]
    if not h.is_valid_for(k):
        raise ValueError(_INVALID_HEIGHTS)
    sweep = []
    through = None if kk is None else kk - 1
    for t in levels:
        links = {v: _descending_link(k, h, v) for v in k.vertex_set() if h(v) == t}
        reports = [reduced_homology(d, through) for d in links.values()]
        deg = kk
        if deg is None:
            deg = -1
            while deg <= k.dim + 1 and all(r.is_zero_through(deg) for r in reports):
                deg += 1
        # a failed hypothesis makes the implication hold vacuously
        holds = (not all(r.is_zero_through(deg - 1) for r in reports)
                 or _level_pair_homology(links, deg).is_zero_through(deg))
        sweep.append((t, deg, holds))
    return sweep


def morse_check(k: SimplicialComplex, h: HeightFunction, t: int, kk: int) -> bool:
    """The Morse implication of morse_sweep at the single level t."""
    return morse_sweep(k, h, [t], kk)[0][2]
