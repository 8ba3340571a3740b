"""The labeled braid group B_l(H) for H a subgroup of B_d.

An element is a braid on l strands together with one label per strand,
indexed by the strand's TOP position.  The group is the semidirect
product B_l acting on H^l by permuting coordinates; stacking two labeled
braids multiplies the labels met along each composite strand, left to
right.

H is presented by a finite list of generator words in B_d.  Labels are
stored as words in those generators (never as raw B_d words), which
keeps them inside H without ever solving a membership problem; label
equality is decided after realization in B_d, which is sound and
complete because H embeds in B_d.  Each spec memoizes the realizations
of the label words it has seen, keyed by the word, for as long as the
spec lives, so every comparison and cable of one label reuses one
`BraidWord` and what it caches; a word naming an undeclared
generator is never stored and raises on every call.

Cabling is the one move through which that embedding enters the diagram
groups: `labeled_cable` turns a strand labeled h into d parallel strands
labeled h with the braid of h on top of the bundle, and
`labeled_uncable` recognizes such bundles and undoes the move.
"""

from __future__ import annotations

from ._checks import int_prefix, require_int
from .braids import (BraidWord, _cable, _forget, braid_equal, half_twist, is_pure,
                     permutation_of, shifted)


class LabelGroupSpec:
    """The label group H <= B_d, given by generator words.

    `require_pure` is a fact about the generators: true when all of them
    are pure braids, so that H <= PB_d.  The F and T flavors of the diagram
    groups need it; passing `require_pure=True` demands it, and a spec
    built that way equals and hashes like one built without the demand.
    """

    __slots__ = ("degree", "generators", "require_pure", "_realized")

    def __init__(self, degree, generators=(), require_pure=False):
        require_int(degree, "label group degree", 2)
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, BraidWord):
                raise TypeError("generators must be BraidWords")
            if g.strands != degree:
                raise ValueError("generator %r has %d strands, expected %d"
                                 % (str(g), g.strands, degree))
            if require_pure and not is_pure(g):
                raise ValueError("generator %r is not pure" % str(g))
        self.degree = degree
        self.generators = generators
        self.require_pure = all(map(is_pure, generators))
        self._realized = {}  # label word -> BraidWord; see Label.realize

    @classmethod
    def trivial(cls, degree):
        return cls(degree)

    def _check_word(self, word):
        """A ValueError unless every index of the generator word `word`
        names a declared generator."""
        n = len(self.generators)
        for x in word:
            if abs(x) > n:
                raise ValueError("label references undeclared generator g%d" % abs(x))

    def __eq__(self, other):
        return (isinstance(other, LabelGroupSpec)
                and self.degree == other.degree
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.degree, self.generators))

    def __repr__(self):
        return "LabelGroupSpec(d=%d, gens=%r, require_pure=%r)" % (
            self.degree, [str(g) for g in self.generators], self.require_pure)


def ribbon_spec(d: int, oriented: bool) -> LabelGroupSpec:
    """Label group of the ribbon groups: the cyclic group generated by the
    half twist around the boundary (oriented: by the full twist, which is
    pure, so the spec is usable for the F and T flavors)."""
    delta = half_twist(d)
    return LabelGroupSpec(d, (delta * delta,) if oriented else (delta,))


class Label:
    """A word in the declared H-generators: tuple of signed 1-based
    indices.  The empty word is the identity, printed "e"."""

    __slots__ = ("word",)

    def __init__(self, word=()):
        word = tuple(word)
        if not all(type(x) is int for x in word):
            raise ValueError("generator indices must be integers: %r" % (word,))
        if any(x == 0 for x in word):
            raise ValueError("generator indices are signed and nonzero")
        self.word = word

    @classmethod
    def parse(cls, text):
        """The word of a run of g<i>[^-1] tokens; an "e" among them stands
        for nothing, so "e" alone is the empty word."""
        word = []
        for tok in text.split():
            if tok == "e":
                continue
            inv = tok.endswith("^-1")
            body = tok[:-3] if inv else tok
            # "g", then an integer without a sign
            idx = int_prefix([body[1:]]) if body[:1] == "g" and body[1:2] != "-" else ()
            if not idx:
                raise ValueError("bad label token %r" % tok)
            idx = idx[0]
            if idx < 1:
                raise ValueError("generator index must be positive in %r" % tok)
            word.append(-idx if inv else idx)
        return cls(word)

    def __str__(self):
        if not self.word:
            return "e"
        return " ".join("g%d" % x if x > 0 else "g%d^-1" % -x for x in self.word)

    def __repr__(self):
        return "Label(%r)" % (str(self),)

    def __mul__(self, other):
        # an empty factor gives the other operand itself, not a copy
        if not other.word:
            return self
        if not self.word:
            return other
        return Label(self.word + other.word)

    def inverse(self):
        return Label(tuple(-x for x in reversed(self.word)))

    def realize(self, spec: LabelGroupSpec) -> BraidWord:
        """Substitute generator words; the result lives in B_d.  Memoized
        per spec, so equal words give the same `BraidWord`."""
        w = spec._realized.get(self.word)
        if w is None:
            spec._check_word(self.word)
            gens = spec.generators
            letters = []
            for x in self.word:
                g = gens[abs(x) - 1]
                letters.extend(g.letters if x > 0 else g.inverse().letters)
            w = spec._realized[self.word] = BraidWord._trusted(spec.degree, tuple(letters))
        return w

    def __eq__(self, other):
        return isinstance(other, Label) and self.word == other.word

    def __hash__(self):
        return hash(self.word)


class LabeledBraid:
    """A braid with one label per strand (by top position)."""

    __slots__ = ("braid", "labels")

    def __init__(self, braid, labels):
        labels = tuple(labels)
        if len(labels) != braid.strands:
            raise ValueError("%d labels for %d strands" % (len(labels), braid.strands))
        for lab in labels:
            if not isinstance(lab, Label):
                raise TypeError("labels must be Label words")
        self.braid = braid
        self.labels = labels

    @classmethod
    def _trusted(cls, braid, labels):
        """A labeled braid from a tuple of `Label`s, one per strand, that
        the library built."""
        x = object.__new__(cls)
        x.braid = braid
        x.labels = labels
        return x

    @classmethod
    def trivial(cls, strands):
        return cls(BraidWord(strands), (Label(),) * strands)

    @property
    def strands(self):
        return self.braid.strands

    def __eq__(self, other):
        # word-level; group equality is lb_equal
        return (isinstance(other, LabeledBraid)
                and self.braid == other.braid
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.braid, self.labels))

    def __repr__(self):
        return "LabeledBraid(%r, %r)" % (str(self.braid), [str(x) for x in self.labels])


def lb_multiply(x: LabeledBraid, y: LabeledBraid) -> LabeledBraid:
    """Stack x on top of y.  The strand entering at top position i of x
    exits x at rho_x(i), so it picks up x.labels[i] then y.labels[rho_x(i)]."""
    if x.strands != y.strands:
        raise ValueError("strand count mismatch")
    rho = permutation_of(x.braid)
    labels = tuple(x.labels[i] * y.labels[rho(i + 1) - 1] for i in range(x.strands))
    braid = (y.braid if not x.braid.letters else
             x.braid if not y.braid.letters else x.braid * y.braid)
    return LabeledBraid(braid, labels)


def lb_invert(x: LabeledBraid) -> LabeledBraid:
    """Solve lambda(i) * mu(rho(i)) = 1: the inverse labels the strand at
    top position j of the inverted braid by x.labels[rho^-1(j)]^-1."""
    rho_inv = permutation_of(x.braid).inverse()
    labels = tuple(x.labels[rho_inv(j + 1) - 1].inverse() for j in range(x.strands))
    return LabeledBraid(x.braid.inverse(), labels)


def label_equal(spec: LabelGroupSpec, a: Label, b: Label) -> bool:
    """Equality in H: the same word, or the same realized braid in B_d."""
    return a == b or braid_equal(a.realize(spec), b.realize(spec))


def lb_equal(spec: LabelGroupSpec, x: LabeledBraid, y: LabeledBraid) -> bool:
    """Equality in B_l(H): equal braids and equal realized labels."""
    if x.strands != y.strands:
        raise ValueError("strand count mismatch")
    if not braid_equal(x.braid, y.braid):
        return False
    return all(label_equal(spec, a, b) for a, b in zip(x.labels, y.labels))


def _bundles(spec, widths):
    """(strand, first cable strand), 0-based, of each strand that `widths`
    (one per uncabled strand) widens; a bundle carries B_d, so it is d wide.
    Each width is an int >= 1, then 1 or d; else a ValueError."""
    d = spec.degree
    wide = [j for j, w in enumerate(widths) if require_int(w, "width", 1) > 1]
    if any(widths[j] != d for j in wide):
        raise ValueError("a cabled strand must become %d strands" % d)
    return [(j, j + k * (d - 1)) for k, j in enumerate(wide)]


def labeled_cable(spec: LabelGroupSpec, x: LabeledBraid, widths) -> LabeledBraid:
    """Cable x by `widths`: strand j becomes widths[j] parallel strands,
    all labeled x.labels[j], and each bundle whose label word is not
    empty gets the realized label braid in front of the cabled braid."""
    widths = list(widths)
    if len(widths) != x.strands:
        raise ValueError("need one width per strand")
    bundles = _bundles(spec, widths)
    braid = _label_braids_on_top(spec, x.labels, bundles, _cable(x.braid, widths))
    labels = list(x.labels)
    for j, _ in reversed(bundles):
        labels[j:j + 1] = (x.labels[j],) * widths[j]
    return LabeledBraid._trusted(braid, tuple(labels))


def _label_braids_on_top(spec, labels, bundles, braid):
    """The cabled `braid` with the realized label braid of each bundle's
    strand in front of the bundle."""
    top = []
    for j, pos in reversed(bundles):
        if labels[j].word:
            top.extend(shifted(labels[j].realize(spec), pos, braid.strands).letters)
    return BraidWord._trusted(braid.strands, tuple(top) + braid.letters) if top else braid


def labeled_uncable(spec: LabelGroupSpec, x: LabeledBraid, widths):
    """The y on the leader (leftmost) strand of each bundle with
    labeled_cable(spec, y, widths) equal to x in B_l(H), or None.  Labels
    must agree per bundle up to label_equal (y keeps the leader's word)
    and re-cabling y must give x.braid."""
    widths = list(widths)
    bundles = _bundles(spec, widths)
    if sum(widths) != x.strands:
        raise ValueError("widths cover %d strands, the braid has %d" % (sum(widths), x.strands))
    return _uncable(spec, x, widths, bundles)


def _uncable_at(spec, x, start):
    """`labeled_uncable` of x by one bundle, the d strands from strand
    `start` on (1-based), which the library checked to fit in x."""
    d = spec.degree
    widths = [1] * (start - 1) + [d] + [1] * (x.strands - start - d + 1)
    return _uncable(spec, x, widths, [(start - 1, start - 1)])


def _uncable(spec, x, widths, bundles):
    """`labeled_uncable` by widths that the library built to cover x, and
    their `_bundles`.  It walks the bundles, not the strands: the labels
    and the flags of the deleted strands are cut and joined in slices."""
    if not bundles:
        return x
    d = spec.degree
    labels = x.labels
    kept, dead, last = [], [], 0
    for _, pos in bundles:
        lead = labels[pos]
        if not all(label_equal(spec, lab, lead) for lab in labels[pos + 1:pos + d]):
            return None
        kept += labels[last:pos + 1]
        dead += [False] * (pos + 1 - last) + [True] * (d - 1)
        last = pos + d
    kept += labels[last:]
    if x.braid.letters:
        dead += [False] * (len(labels) - last)
        y = LabeledBraid._trusted(_forget(x.braid, dead), tuple(kept))
        cabled = _cable(y.braid, widths)
    else:  # forgetting strands of the empty word, and cabling it, give empty words
        y = LabeledBraid._trusted(BraidWord._trusted(len(kept), ()), tuple(kept))
        cabled = BraidWord._trusted(x.strands, ())
    if not braid_equal(x.braid, _label_braids_on_top(spec, y.labels, bundles, cabled)):
        return None
    return y
