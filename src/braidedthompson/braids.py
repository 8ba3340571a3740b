"""Exact computation in the Artin braid groups B_n.

A braid is stored as a word in the generators sigma_1 .. sigma_{n-1}
(letter i > 0 for sigma_i, i < 0 for its inverse), read left to right,
which is top to bottom in diagrams.  Equality of braids is decided by
Dynnikov coordinates: B_n acts on the integer coordinates of
laminations in a punctured disk, and the orbit map of one standard
lamination is injective (Dynnikov, Russian Math. Surveys 57, 2002;
Dehornoy, "Efficient solutions to the braid isotopy problem", Discrete
Appl. Math. 156, 2008), so `braid_equal` is a complete decision
procedure that reads each word once, in exact integers.

The left greedy normal form over permutation braids with a Delta-power
prefix gives each braid a canonical, hashable form (`normal_form`).  It
packs each maximal run of same-sign letters into few simple factors (a
negative run as the inverse of a positive word) and multiplies them onto
the normal form one at a time from the right, left-weighting only the
pairs that the new factor disturbs.

A word caches its permutation, exponent sum, Dynnikov coordinates and
normal form, each computed on first use.

Besides the group operations the module provides the geometric moves
needed by the diagram calculus: half twists, cabling (replacing strands
by parallel bundles) and strand deletion (forgetting strands).  Cabling
and deletion track block starts and surviving-strand counts per
position, updating one entry per crossing, so both run in time linear
in the input word plus the output word.

Sign convention: a positive letter i means the strand at position i
crosses OVER the strand at position i+1.  Nothing computed here depends
on this choice; it only matters when reading a diagram off a word.
"""

from __future__ import annotations

from itertools import accumulate, compress, groupby
from operator import not_

from ._checks import int_prefix, require_int


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        n = len(image)
        if not all(type(x) is int for x in image):
            raise ValueError("permutation entries must be integers: %r" % (image,))
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError("not a bijection of 1..%d: %r" % (n, image))
        self.image = image

    @classmethod
    def _trusted(cls, image):
        """A permutation from a tuple the library knows is a bijection."""
        p = object.__new__(cls)
        p.image = image
        return p

    @property
    def size(self):
        return len(self.image)

    def __call__(self, i):
        if type(i) is int and 0 < i <= len(self.image):
            return self.image[i - 1]
        return self.image[require_int(i, "permutation index", 1, len(self.image)) - 1]

    def __mul__(self, other):
        """Left-to-right composition: (p*q)(i) = q(p(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation._trusted(tuple([other.image[x - 1] for x in self.image]))

    def inverse(self):
        inv = [0] * self.size
        for i, x in enumerate(self.image):
            inv[x - 1] = i + 1
        return Permutation._trusted(tuple(inv))

    def is_identity(self):
        return self.image == tuple(range(1, len(self.image) + 1))

    def is_cyclic(self):
        """True iff i |-> i + k (mod n) for some fixed k."""
        first = self.image[0] if self.image else 1
        return self.image == tuple(range(first, len(self.image) + 1)) + tuple(range(1, first))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "Permutation(%r)" % (self.image,)


class BraidWord:
    """A word in B_n.  Immutable; the normal form (`_nf`), permutation
    (`_perm`), exponent sum (`_esum`) and Dynnikov coordinates (`_dyn`)
    are cached lazily.

    `==` compares words letter for letter.  Use `braid_equal` for
    equality as group elements.
    """

    __slots__ = ("strands", "letters", "_nf", "_perm", "_esum", "_dyn")

    def __init__(self, strands, letters=()):
        require_int(strands, "strand count", 1)
        letters = tuple(letters)
        # one bulk pass (the range read off the distinct letters) for a valid
        # word; only an invalid one is walked, to name its first bad letter
        if letters and not (set(map(type, letters)) == {int} and 0 not in (seen := set(letters))
                            and -strands < min(seen) and max(seen) < strands):
            for a in letters:
                if require_int(a, "letter") == 0 or abs(a) >= strands:
                    raise ValueError("letter %d out of range for B_%d" % (a, strands))
        self.strands = strands
        self.letters = letters
        self._nf = self._perm = self._esum = self._dyn = None

    @classmethod
    def _trusted(cls, strands, letters):
        """A word from a letter tuple the library built out of words it
        already validated, so every letter is known to be in range."""
        w = object.__new__(cls)
        w.strands = strands
        w.letters = letters
        w._nf = w._perm = w._esum = w._dyn = None
        return w

    @classmethod
    def from_string(cls, strands, text):
        """Parse a whitespace-separated word like "1 -2 3" on `strands`
        strands; each letter is an optional "-" and ASCII digits."""
        parts = text.split()
        letters = int_prefix(parts)
        # the first token that is not an integer stays text, which the
        # constructor reports as a letter that is not an integer
        return cls(strands, letters + tuple(parts[len(letters):]))

    def __str__(self):
        return " ".join(str(a) for a in self.letters)

    def __repr__(self):
        return "BraidWord(%d, %r)" % (self.strands, list(self.letters))

    def __mul__(self, other):
        if self.strands != other.strands:
            raise ValueError("strand count mismatch: %d vs %d" % (self.strands, other.strands))
        return BraidWord._trusted(self.strands, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, BraidWord)
                and self.strands == other.strands
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.strands, self.letters))

    def inverse(self):
        return BraidWord._trusted(self.strands, tuple([-a for a in reversed(self.letters)]))

    def exponent_sum(self):
        if self._esum is None:
            self._esum = sum(1 if a > 0 else -1 for a in self.letters)
        return self._esum

    def normal_form(self):
        """Left greedy normal form (delta_power, tuple of factor permutations).

        The factor permutations are 0-indexed tuples; none is the identity
        or the half twist.  Two words are equal in B_n iff their normal
        forms coincide.
        """
        if self._nf is None:
            self._nf = _left_normal_form(self.strands, self.letters)
        return self._nf


def permutation_of(w: BraidWord) -> Permutation:
    """The permutation of strand endpoints: position i at the top goes to
    position rho(i) at the bottom; each letter contributes an adjacent
    transposition.  Cached on the word."""
    if w._perm is None:
        if not w.letters:  # the identity, built without a loop over the strands
            w._perm = Permutation._trusted(tuple(range(1, w.strands + 1)))
            return w._perm
        cur = list(range(w.strands))  # cur[position] = strand, 0-based
        for k in map(abs, w.letters):
            cur[k - 1], cur[k] = cur[k], cur[k - 1]
        image = [0] * w.strands
        for p, strand in enumerate(cur, 1):
            image[strand] = p
        w._perm = Permutation._trusted(tuple(image))
    return w._perm


def _dynnikov_act(co, letters):
    """Act by `letters`, one at a time from the left, on the list co of
    Dynnikov coordinates (a_1, b_1, .., a_n, b_n), in place.

    sigma_i changes only the pairs i and i+1.  With x+ = max(x, 0) and
    x- = min(x, 0), sigma_i sets, for c = a_i - b_i- - a_{i+1} + b_{i+1}+,

        a_i <- a_i + b_i+ + (b_{i+1}+ - c)+       b_i <- b_{i+1} - c+
        a_{i+1} <- a_{i+1} + b_{i+1}- + (b_i- + c)-   b_{i+1} <- b_i + c+

    and sigma_i^-1 sets, for d = a_i + b_i- - a_{i+1} - b_{i+1}+,

        a_i <- a_i - b_i+ - (b_{i+1}+ + d)+       b_i <- b_{i+1} + d-
        a_{i+1} <- a_{i+1} - b_{i+1}- - (b_i- - d)-   b_{i+1} <- b_i - d-
    """
    for x in letters:
        j = 2 * x - 2 if x > 0 else -2 * x - 2
        a1, b1, a2, b2 = co[j:j + 4]
        b1p = b1 if b1 > 0 else 0
        b2p = b2 if b2 > 0 else 0
        b1m, b2m = b1 - b1p, b2 - b2p
        if x > 0:
            c = a1 - b1m - a2 + b2p
            cp = c if c > 0 else 0
            u, v = b2p - c, b1m + c
            co[j:j + 4] = (a1 + b1p + (u if u > 0 else 0), b2 - cp,
                           a2 + b2m + (v if v < 0 else 0), b1 + cp)
        else:
            d = a1 + b1m - a2 - b2p
            dm = d if d < 0 else 0
            u, v = b2p + d, b1m - d
            co[j:j + 4] = (a1 - b1p - (u if u > 0 else 0), b2 + dm,
                           a2 - b2m - (v if v < 0 else 0), b1 - dm)


def _dynnikov(w: BraidWord):
    """The Dynnikov coordinates of the standard lamination (every a_i = 0,
    b_i = 1) after w acts on it.  Cached on the word."""
    if w._dyn is None:
        co = [0, 1] * w.strands
        _dynnikov_act(co, w.letters)
        w._dyn = tuple(co)
    return w._dyn


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide equality in B_n by Dynnikov coordinates.

    B_n acts on Z^{2n}, the coordinates of integral laminations in a
    punctured disk, by the piecewise-linear maps of `_dynnikov_act`, and
    the orbit map of the standard lamination is injective: two words are
    equal in B_n exactly when they send it to the same integer vector
    (Dynnikov, "On a Yang-Baxter map and the Dehornoy ordering", Russian
    Math. Surveys 57, 2002; Dehornoy, "Efficient solutions to the braid
    isotopy problem", Discrete Appl. Math. 156, 2008).  This takes one
    pass over each word, in exact integers whose bit length grows at
    most linearly with the length of the word.

    Identical letters, the exponent sum and the permutation are compared
    first.  No normal form is built.
    """
    if w1.strands != w2.strands:
        raise ValueError("cannot compare words in B_%d and B_%d" % (w1.strands, w2.strands))
    if w1.letters == w2.letters:
        return True
    if w1.exponent_sum() != w2.exponent_sum():
        return False
    if permutation_of(w1) != permutation_of(w2):
        return False
    return _dynnikov(w1) == _dynnikov(w2)


def is_trivial(w: BraidWord) -> bool:
    return braid_equal(w, BraidWord(w.strands))


def is_pure(w: BraidWord) -> bool:
    return permutation_of(w).is_identity()


def is_cyclic(w: BraidWord) -> bool:
    return permutation_of(w).is_cyclic()


def half_twist(d: int) -> BraidWord:
    """The Garside half twist Delta_d = (s1)(s2 s1)...(s_{d-1} ... s1).

    Its square generates the center of B_d for d >= 3.
    """
    require_int(d, "strand count", 2)
    letters = []
    for k in range(1, d):
        letters.extend(range(k, 0, -1))
    return BraidWord(d, letters)


def shifted(w: BraidWord, offset: int, strands: int) -> BraidWord:
    """Embed w on strands offset+1 .. offset+w.strands inside B_strands."""
    require_int(strands, "strand count", w.strands)
    require_int(offset, "offset", 0, strands - w.strands)
    return BraidWord._trusted(strands, tuple([a + offset if a > 0 else a - offset
                                              for a in w.letters]))


def cable(w: BraidWord, widths) -> BraidWord:
    """Replace strand j by widths[j] parallel strands travelling together.

    Widths are attached to strands (tracked through the word by current
    position), not to positions.  A crossing of blocks of widths (a, b)
    expands to the standard a*b crossings of uniform sign.
    """
    widths = list(widths)
    if len(widths) != w.strands:
        raise ValueError("need one width per strand")
    for x in widths:
        require_int(x, "width", 1)
    return _cable(w, widths)


def _cable(w: BraidWord, widths) -> BraidWord:
    """`cable` by a list of widths that the library built: one per strand,
    each a positive integer."""
    order = list(range(w.strands))  # block ids by current position
    starts = list(accumulate(widths, initial=1))  # first cable strand of the block at each position
    out = []
    for a in w.letters:
        k = abs(a) - 1
        left, right = order[k], order[k + 1]
        start = starts[k]
        wa, wb = widths[left], widths[right]
        for s in range(start, start + wb):
            out.extend(range(s + wa - 1, s - 1, -1) if a > 0 else range(1 - s - wa, 1 - s))
        order[k], order[k + 1] = right, left
        starts[k + 1] = start + wb
    return BraidWord._trusted(sum(widths), tuple(out))


def delete_strands(w: BraidWord, kill) -> BraidWord:
    """Forget the strands whose TOP positions lie in `kill`.

    Crossings involving a deleted strand are dropped; surviving letters
    are renumbered by position tracing.  Inverse to cabling: deleting all
    but one leader per block of a cable recovers the original word up to
    braid equality.
    """
    kill = set(kill)
    for i in kill:
        require_int(i, "strand index", 1, w.strands)
    if len(kill) >= w.strands:
        raise ValueError("cannot delete every strand")
    return _forget(w, [i in kill for i in range(1, w.strands + 1)])


def _forget(w: BraidWord, dead) -> BraidWord:
    """`delete_strands` by a list that the library built, one flag per top
    position, with some strand left alive; the list is used up.  When w's
    permutation is cached, the result's is read off it: the surviving
    strands end in the order of their bottom positions."""
    alive = list(map(not_, dead))
    below = list(accumulate(alive, initial=0))  # surviving strands left of each position
    perm = None
    if w._perm is not None:
        image = w._perm.image
        gone = [True] + [False] * w.strands  # by bottom position, from 1
        for b in compress(image, dead):
            gone[b] = True
        rank = list(accumulate(map(not_, gone)))  # surviving bottom positions up to each
        perm = Permutation._trusted(tuple(map(rank.__getitem__, compress(image, alive))))
    out = []
    for a in w.letters:
        k = abs(a) - 1
        du, dv = dead[k], dead[k + 1]
        if du == dv:
            if not du:
                out.append(below[k] + 1 if a > 0 else -below[k] - 1)
        else:
            dead[k], dead[k + 1] = dv, du
            below[k + 1] = below[k] + du
    result = BraidWord._trusted(below[-1], tuple(out))
    result._perm = perm
    return result


def word_from_permutation(p: Permutation) -> BraidWord:
    """The positive permutation braid realizing p (each pair of strands
    crosses at most once)."""
    arr = list(p.image)
    n = len(arr)
    letters = []
    i = 0
    while i < n - 1:
        if arr[i] > arr[i + 1]:
            letters.append(i + 1)
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
            if i > 0:
                i -= 1
        else:
            i += 1
    return BraidWord(n, letters)


# ---------------------------------------------------------------------------
# Left greedy normal form.
#
# A simple element (permutation braid) is stored as a 0-indexed permutation
# tuple p with p[i] = bottom position of the strand starting at top
# position i.  Products compose left to right.  The free-reduced word is
# cut into maximal sign runs, and each run is packed greedily into simple
# factors.  A negative run is the inverse of a positive word P; packing P
# as Q_1 ... Q_r gives P^-1 = Delta^-1 (Delta Q_r^-1) ... Delta^-1
# (Delta Q_1^-1), and every Delta^-1 is pulled to the front, twisting the
# factors it passes by tau.  The factors are then multiplied onto the
# normal form one at a time from the right: the new factor is left-weighted
# against its left neighbour, then that one against its own, and so on
# leftwards until a pair is already left-weighted (by the domino rule the
# factors to the right stay left-weighted).  Identity factors vanish and
# Delta factors collect at the front, where they join the prefix power.


def _tau(p):
    # conjugation by Delta: reverse positions and values
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def _leftweight_pair(a, b):
    """Slide generators from b into a until the pair is left-weighted.

    Returns the new pair, or None if nothing moved.  A generator s_i can
    move iff i is a descent of b (s_i divides b on the left) and not a
    finishing generator of a (a * s_i stays simple).
    """
    n = len(a)
    inv = [0] * n
    for i, x in enumerate(a):
        inv[x] = i
    stack = [i for i in range(n - 1) if b[i] > b[i + 1] and inv[i] < inv[i + 1]]
    if not stack:
        return None
    la, lb = list(a), list(b)
    while stack:
        i = stack.pop()
        if i < 0 or i >= n - 1:
            continue
        if not (lb[i] > lb[i + 1] and inv[i] < inv[i + 1]):
            continue
        pa, pb = inv[i], inv[i + 1]
        la[pa], la[pb] = i + 1, i
        inv[i], inv[i + 1] = pb, pa
        lb[i], lb[i + 1] = lb[i + 1], lb[i]
        stack.extend((i - 1, i, i + 1))
    return tuple(la), tuple(lb)


def _free_reduce(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return out


def _pack(n, gens):
    """Cut a positive word, given as 0-indexed generators k (for s_{k+1}),
    greedily into simple factors; returns one (p, inv) pair of lists per
    factor, inv the inverse permutation of p.

    s_{k+1} extends p iff the strands now at positions k and k+1 have not
    crossed yet, that is inv[k] < inv[k+1]."""
    out = []
    p = inv = None
    for k in gens:
        if p is None or inv[k] > inv[k + 1]:
            p, inv = list(range(n)), list(range(n))
            out.append((p, inv))
        a, b = inv[k], inv[k + 1]
        p[a], p[b] = k + 1, k
        inv[k], inv[k + 1] = b, a
    return out


def _left_normal_form(n, letters):
    if n == 1:
        return (0, ())
    letters = _free_reduce(letters)
    ident = tuple(range(n))
    delta = ident[::-1]

    # raw holds (factor, number of Delta^-1 emitted so far); a factor is
    # twisted by tau once per Delta^-1 pulled past it (tau is an
    # involution, so only the parity of the count matters)
    raw = []
    negs = 0
    for positive, run in groupby(letters, key=lambda a: a > 0):
        if positive:
            for p, _ in _pack(n, [a - 1 for a in run]):
                raw.append((tuple(p), negs))
        else:
            # -k_1 ... -k_m = (k_m ... k_1)^-1; Delta Q^-1 is t -> Q^-1(n-1-t)
            for _, inv in reversed(_pack(n, [-a - 1 for a in reversed(list(run))])):
                negs += 1
                raw.append((tuple(inv[::-1]), negs))

    factors = []
    for p, c in raw:
        if (negs - c) % 2 == 1:
            p = _tau(p)
        if p == ident:
            continue
        factors.append(p)
        i = len(factors) - 2
        while i >= 0:
            res = _leftweight_pair(factors[i], factors[i + 1])
            if res is None:
                break
            factors[i], b = res
            if b == ident:
                del factors[i + 1]
            else:
                factors[i + 1] = b
            i -= 1

    lead = 0
    while lead < len(factors) and factors[lead] == delta:
        lead += 1
    return (lead - negs, tuple(factors[lead:]))
