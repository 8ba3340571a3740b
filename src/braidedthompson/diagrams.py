"""Split-braid-merge diagrams and the braided Higman-Thompson groups.

A spraige is a triple (minus, (b, lambda), plus): a splitting forest, a
labeled braid on its leaves, and a merging forest with the same number
of leaves.  Group elements (for fixed arity d, root count r and label
group H <= B_d) are equivalence classes of (r,r)-spraiges under
expansion and reduction; every class has a unique reduced
representative, which makes equality decidable.  `GroupContext.equal`
reduces both sides and compares the parts of the reduced representatives
cheapest first: forests, then the braid in B_l, then each label in H.
`GroupContext.key` gives the element a hashable canonical form: the
reduced forests with the Garside normal forms of the braid and of the
realized labels.

Expansion at leaf i attaches a caret to leaf i of the splitting forest
and to the leaf paired with it in the merging forest, replaces the i-th
strand of the braid by a d-strand cable with the realized label braid
inserted at the top of the tube, and labels the d new strands by the
old label.  Reduction is the reverse move; whether it applies at a
caret is decided by `labeled.labeled_uncable`, the inverse of the
`labeled.labeled_cable` move that expansion makes.

The GroupContext object fixes (d, r, H, flavor) and carries all the
operations; spraiges themselves are plain immutable data.  The flavors F
and T need H <= PB_d and hold only elements of bF and bT: every element
a context takes in is checked by `GroupContext.validate`, so the
operations never decide a flavor again.
"""

from __future__ import annotations

from ._checks import require_int
from .braids import BraidWord, Permutation, is_cyclic, is_pure, permutation_of
from .forests import (Forest, _caret_above, _caret_at, _elementary_carets, _splice,
                      attach_caret, elementary_caret_spans, elementary_forest,
                      forest_to_matching, join, leaf_counts, remove_elementary_caret)
from .labeled import (Label, LabeledBraid, _uncable_at, labeled_cable, labeled_uncable,
                      lb_equal, lb_invert, lb_multiply)


class Spraige:
    """An (n,m)-spraige: n heads (roots of minus), m feet (roots of plus).

    `GroupContext.reduce` marks what it returns with the label group spec
    it is reduced for (`_reduced`), so that reducing it again is free."""

    __slots__ = ("minus", "lb", "plus", "_reduced")

    def __init__(self, minus, lb, plus):
        if minus.degree != plus.degree:
            raise ValueError("arity mismatch between the two forests")
        if minus.leaves != plus.leaves:
            raise ValueError("forests have %d and %d leaves" % (minus.leaves, plus.leaves))
        if lb.strands != minus.leaves:
            raise ValueError("braid on %d strands under %d leaves" % (lb.strands, minus.leaves))
        self.minus = minus
        self.lb = lb
        self.plus = plus
        self._reduced = None

    @property
    def heads(self):
        return self.minus.roots

    @property
    def feet(self):
        return self.plus.roots

    @property
    def leaves(self):
        return self.minus.leaves

    def __eq__(self, other):
        # componentwise on representatives; group equality is GroupContext.equal
        return (isinstance(other, Spraige) and self.minus == other.minus
                and self.lb == other.lb and self.plus == other.plus)

    def __hash__(self):
        return hash((self.minus, self.lb, self.plus))

    def __repr__(self):
        return "Spraige(%s, %r, %s)" % (self.minus, str(self.lb.braid), self.plus)


class PairedForestDiagram:
    """A plain (unbraided) paired forest diagram (minus, rho, plus)."""

    __slots__ = ("minus", "perm", "plus")

    def __init__(self, minus, perm, plus):
        if minus.degree != plus.degree:
            raise ValueError("arity mismatch between the two forests")
        if minus.leaves != plus.leaves or perm.size != minus.leaves:
            raise ValueError("leaf/permutation size mismatch")
        self.minus = minus
        self.perm = perm
        self.plus = plus

    def __eq__(self, other):
        return (isinstance(other, PairedForestDiagram) and self.minus == other.minus
                and self.perm == other.perm and self.plus == other.plus)

    def __hash__(self):
        return hash((self.minus, self.perm, self.plus))

    def __repr__(self):
        return "PairedForestDiagram(%s, %r, %s)" % (self.minus, self.perm.image, self.plus)


class GroupContext:
    """Fixes the group bV_{d,r}(H) (flavor V) or its siblings bF_{d,r}(H)
    and bT_{d,r}(H) (flavors F and T), which need every generator of H to
    be pure and take in only their own elements (see `validate`)."""

    __slots__ = ("d", "r", "spec", "flavor")

    def __init__(self, d, r, spec, flavor="V"):
        require_int(d, "arity", 2)
        if spec.degree != d:
            raise ValueError("label group lives in B_%d, context has d=%d" % (spec.degree, d))
        if flavor not in ("V", "F", "T"):
            raise ValueError("flavor must be V, F or T")
        if flavor in ("F", "T") and not spec.require_pure:
            impure = next(g for g in spec.generators if not is_pure(g))
            raise ValueError("flavor %s needs a pure label group; generator %r is not pure"
                             % (flavor, str(impure)))
        # after the purity check: a session header reports the context's
        # error at the first impure generator, when it has one
        require_int(r, "root count", 1)
        self.d = d
        self.r = r
        self.spec = spec
        self.flavor = flavor

    # -- construction ------------------------------------------------------

    def identity(self, n=None) -> Spraige:
        n = self.r if n is None else n
        t = Forest.trivial(self.d, n)
        return Spraige(t, LabeledBraid.trivial(n), t)

    def lambda_spraige(self, n, J) -> Spraige:
        """(F^(n)_J, trivial, trivial forest): the elementary splitting."""
        f = elementary_forest(n, J, self.d)
        l = f.leaves
        return Spraige(f, LabeledBraid.trivial(l), Forest.trivial(self.d, l))

    def mu_spraige(self, n, J) -> Spraige:
        return self.invert(self.lambda_spraige(n, J))

    def iota_label(self, h: Label) -> Spraige:
        """h |-> (1_r, (id, all strands labeled h), 1_r)."""
        h.realize(self.spec)  # ValueError on an undeclared generator
        t = Forest.trivial(self.d, self.r)
        return Spraige(t, LabeledBraid(BraidWord(self.r), (h,) * self.r), t)

    def iota_prime(self, h: Label) -> Spraige:
        """h on the first strand only, under a single caret on the first root."""
        h.realize(self.spec)  # ValueError on an undeclared generator
        t1 = elementary_forest(self.r, {1}, self.d)
        l = t1.leaves
        labels = (h,) + (Label(),) * (l - 1)
        return Spraige(t1, LabeledBraid(BraidWord(l), labels), t1)

    def validate(self, s: Spraige):
        """s itself, once checked to be an element of this context's group:
        arity d, and in an F context a pure braid, in a T context a braid
        whose permutation is a cyclic rotation (see `in_bF`)."""
        if s.minus.degree != self.d:
            raise ValueError("element has arity %d, context %d" % (s.minus.degree, self.d))
        pure = self.flavor == "F"
        if self.flavor != "V" and not (is_pure if pure else is_cyclic)(s.lb.braid):
            raise ValueError("not an element of b%s: its braid is not %s"
                             % (self.flavor, "pure" if pure else "cyclic"))
        return s

    # -- expansion and reduction -------------------------------------------

    def expand(self, s: Spraige, i: int) -> Spraige:
        """Expansion at leaf i; the result represents the same element."""
        self.validate(s)
        minus = attach_caret(s.minus, i)  # checks the leaf index
        lb = labeled_cable(self.spec, s.lb, [1] * (i - 1) + [self.d] + [1] * (s.leaves - i))
        return Spraige(minus, lb, attach_caret(s.plus, permutation_of(s.lb.braid)(i)))

    def try_reduce_at(self, s: Spraige, start: int):
        """Undo an expansion at the elementary caret of minus whose leaves
        are start..start+d-1, if legal.  Returns None when the braid does
        not carry the block as a labeled cable.

        Conditions: (a) the block lands on a set of consecutive positions
        forming an elementary caret of plus (a non-pure label braid
        scrambles the block internally, so the order within the block is
        left to the next step); then `labeled_uncable` with width d at
        the block checks (b) the d labels realize a common element h and
        (c) deleting the non-leader strands and re-cabling with h
        inserted reproduces the braid.
        """
        require_int(start, "leaf index")
        self.validate(s)
        pos = _caret_at(s.minus, start)
        if pos < 0:
            raise ValueError("no elementary caret of the splitting forest at leaf %d" % start)
        return self._reduce_at(s, start, pos)

    def _reduce_at(self, s: Spraige, start: int, pos: int):
        """try_reduce_at on a valid `s` whose splitting forest has an
        elementary caret at leaf `start`, at offset `pos` of its text,
        neither checked again.  Each attempt does work linear in the
        texts: no Python loop here runs over the strands (the labels, the
        forest texts and the permutation are sliced and copied in bulk,
        and the loops run over the braid's letters), but the caret of plus
        at the landing is found by a Python scan of plus's elementary
        carets to its left."""
        d = self.d
        landing = sorted(permutation_of(s.lb.braid).image[start - 1:start - 1 + d])
        p = landing[0]
        if landing[-1] != p + d - 1:  # d distinct positions
            return None
        at = _caret_at(s.plus, p)
        if at < 0:
            return None
        lb = _uncable_at(self.spec, s.lb, start)
        if lb is None:
            return None
        return Spraige(_splice(s.minus, pos), lb, _splice(s.plus, at))

    def reduce(self, s: Spraige) -> Spraige:
        """The reduced representative of s, marked as reduced for this
        context's label group, so that s returns at once when it already
        carries the mark.

        One scan over the elementary carets of minus, lowest first; after
        each success, the caret that has just become elementary, if any,
        is tried next.  That is all a restart at the lowest caret would
        find.  A reduction at a caret c of minus acts on the block of its
        d strands, on the caret of minus over them and on the caret of
        plus they land on; the block of another caret c' of minus is
        disjoint from it at the top and at the bottom, so reducing at c
        leaves each condition at c' as it was:
          (a) the bottom positions of c' stay consecutive or not, since
              c's block collapses to one position that c' does not reach,
              and the caret of plus over them stays elementary or not,
              since the only caret that removing c's can make elementary
              holds the collapsed position;
          (b) the labels of c' are untouched;
          (c) the braid stays a labeled cable at c' or not, since cabling
              at two disjoint blocks commutes, and forgetting strands is
              well defined on braids.
        So a caret that failed stays failed, and the only new candidate
        is the caret of minus over the collapsed leaf.  Every success
        happens left of the carets still pending, so those shift by d - 1
        leaves and d + 1 characters per success.  The reduced
        representative is unique anyway, so the order only affects the
        intermediate diagrams."""
        self.validate(s)
        if s._reduced == self.spec:
            return s
        d, removed = self.d, 0
        for start, pos in list(_elementary_carets(s.minus)):
            start, pos = start - removed * (d - 1), pos - removed * (d + 1)
            while (t := self._reduce_at(s, start, pos)) is not None:
                s, removed = t, removed + 1
                above = _caret_above(s.minus, pos)
                if above < 0:
                    break
                start, pos = start - (pos - above - 1), above
        s._reduced = self.spec
        return s

    # -- groupoid operations -----------------------------------------------

    def multiply(self, g: Spraige, h: Spraige) -> Spraige:
        """Concatenate diagrams: expand both factors until the feet forest
        of g equals the head forest of h, stack the labeled braids, reduce."""
        self.validate(g)
        self.validate(h)
        if g.plus.roots != h.minus.roots:
            raise ValueError("feet of the left factor (%d) do not match heads of the right (%d)"
                             % (g.plus.roots, h.minus.roots))
        _, path_g, path_h = join(g.plus, h.minus)
        for q in path_g:
            g = self.expand(g, permutation_of(g.lb.braid).inverse()(q))
        for q in path_h:
            h = self.expand(h, q)
        prod = Spraige(g.minus, lb_multiply(g.lb, h.lb), h.plus)
        return self.reduce(prod)

    def invert(self, s: Spraige) -> Spraige:
        self.validate(s)
        return Spraige(s.plus, lb_invert(s.lb), s.minus)

    def is_identity(self, s: Spraige) -> bool:
        """Direct criterion: equal forests, trivial braid, trivial labels.

        Sound and complete for any representative: representatives of the
        identity are exactly the expansions of the trivial diagram, and
        expansions with identity-realizing labels preserve all three
        properties; conversely such a diagram reduces to the trivial one.
        """
        self.validate(s)
        if s.heads != s.feet:
            raise ValueError("only (n,n)-spraiges can be the identity")
        return s.minus == s.plus and lb_equal(self.spec, s.lb, LabeledBraid.trivial(s.leaves))

    def key(self, s: Spraige):
        """The canonical key of the element s represents: the forests of
        its reduced representative, the normal form of that braid and the
        normal forms of its realized labels.  Hashable; two representatives
        have the same key iff they represent the same element, that is, iff
        `equal` holds."""
        r = self.reduce(s)
        return (r.minus, r.plus, r.lb.braid.normal_form(),
                tuple(lab.realize(self.spec).normal_form() for lab in r.lb.labels))

    def equal(self, g: Spraige, h: Spraige) -> bool:
        """Compare the reduced representatives part by part: the forests,
        then the braids (`braid_equal`: identical letters, exponent sum and
        permutation, then Dynnikov coordinates), then the labels
        (`label_equal`: an identical word before any realization).  Sound
        and complete because every class has a unique reduced
        representative, so it agrees with comparing `key`s; it builds no
        normal form."""
        if g.heads != h.heads or g.feet != h.feet:
            raise ValueError("shape mismatch: (%d,%d) vs (%d,%d)"
                             % (g.heads, g.feet, h.heads, h.feet))
        g, h = self.reduce(g), self.reduce(h)
        return g.minus == h.minus and g.plus == h.plus and lb_equal(self.spec, g.lb, h.lb)

    # -- membership and projections ------------------------------------------

    def _require_pure_labels(self, what):
        # any flavor will do: what matters is that every label is a pure braid
        if not self.spec.require_pure:
            raise ValueError("%s needs a pure label group" % what)

    def in_bF(self, s: Spraige) -> bool:
        """Whether s lies in bF: read off the braid of any representative,
        with no reduction.  With pure labels, expansion at leaf i cables
        the braid's permutation along the new caret and puts a pure label
        braid on the new bundle, so the expanded permutation is the
        identity (a cyclic rotation) exactly when the old one is; reduction
        undoes expansion, so every representative of an element agrees with
        its reduced one."""
        self._require_pure_labels("F membership")
        return is_pure(self.validate(s).lb.braid)

    def in_bT(self, s: Spraige) -> bool:
        """Whether s lies in bT, read off any representative (see `in_bF`)."""
        self._require_pure_labels("T membership")
        return is_cyclic(self.validate(s).lb.braid)

    def project_to_v(self, s: Spraige) -> PairedForestDiagram:
        """Forget braiding and labels, keep the leaf permutation.  Well
        defined on classes only when the labels are pure."""
        self._require_pure_labels("projection to V")
        self.validate(s)
        return PairedForestDiagram(s.minus, permutation_of(s.lb.braid), s.plus)

    def r_label(self, s: Spraige) -> BraidWord:
        """The realized label of the first strand; invariant under change
        of representative."""
        return self.validate(s).lb.labels[0].realize(self.spec)

    # -- dangling ------------------------------------------------------------

    def dangling_equal(self, x: Spraige, y: Spraige) -> bool:
        """Same dangling class, compared within the slice of elementary
        braiges carrying the same merge forest F.

        y must differ from x by right multiplication with a labeled braid
        on the feet, cabled along F: z = x.lb^-1 * y.lb has to be a
        labeled cable (`labeled_uncable` with the widths of F), and the
        extracted multiplier must send caret slots to caret slots,
        otherwise the right action would have changed the forest.  In an
        F or T context x and y are members, so the multiplier is one too.
        """
        self._check_elementary_braige(x)
        self._check_elementary_braige(y)
        if x.leaves != y.leaves:
            raise ValueError("braiges on different head counts")
        if x.plus != y.plus:
            return False
        widths = leaf_counts(x.plus)  # d under a caret, 1 under a bare root
        mult = labeled_uncable(self.spec, lb_multiply(lb_invert(x.lb), y.lb), widths)
        if mult is None:
            return False
        return _keeps_slots(widths, permutation_of(mult.braid))

    def cable_on_feet(self, x: Spraige, c: BraidWord, mus) -> Spraige:
        """Right-multiply the elementary braige x by the labeled braid
        (c, mus) on its feet, cabled along the merge forest (the forest is
        kept, so c must send caret slots to caret slots).  The result must
        lie in the context's group."""
        self._check_elementary_braige(x)
        if c.strands != x.feet:
            raise ValueError("multiplier braid must live on the feet")
        mus = tuple(mus)
        if len(mus) != x.feet:
            raise ValueError("one label per foot")
        widths = leaf_counts(x.plus)
        if not _keeps_slots(widths, permutation_of(c)):
            raise ValueError("the multiplier permutation must preserve caret slots")
        ext = labeled_cable(self.spec, LabeledBraid(c, mus), widths)
        return self.validate(Spraige(x.minus, lb_multiply(x.lb, ext), x.plus))

    def arc_support(self, x: Spraige):
        """Marked-point support of each merge caret: a caret over bottom
        positions p..p+d-1 is carried back through the braid to the set of
        top positions rho^-1(p..p+d-1).  Invariant under dangling."""
        self._check_elementary_braige(x)
        rho_inv = permutation_of(x.lb.braid).inverse()
        out = set()
        for a, b in forest_to_matching(x.plus):
            out.add(frozenset(rho_inv(q) for q in range(a, b + 1)))
        return frozenset(out)

    def _check_elementary_braige(self, x: Spraige):
        self.validate(x)
        if not x.minus.is_trivial():
            raise ValueError("not a braige: splitting forest is nontrivial")
        if not x.plus.is_elementary():
            raise ValueError("merge forest is not elementary")


def _keeps_slots(widths, rho: Permutation) -> bool:
    """Whether rho sends every foot to a foot of the same width."""
    return all(widths[j - 1] == widths[rho(j) - 1] for j in range(1, len(widths) + 1))


# ---------------------------------------------------------------------------
# Independent oracle for the unbraided groups V_{d,r}: paired forest
# diagrams with permutations only.  Used to cross-check project_to_v; it
# deliberately shares nothing with the braid machinery.


def _expand_perm(rho: Permutation, i: int, d: int) -> Permutation:
    l = rho.size
    pi = rho(i)
    img = [0] * (l + d - 1)
    for j in range(1, l + 1):
        if j == i:
            for t in range(d):
                img[i - 1 + t] = pi + t
        else:
            nj = j + (d - 1 if j > i else 0)
            img[nj - 1] = rho(j) + (d - 1 if rho(j) > pi else 0)
    return Permutation(img)


def v_expand(pfd: PairedForestDiagram, i: int) -> PairedForestDiagram:
    d = pfd.minus.degree
    return PairedForestDiagram(attach_caret(pfd.minus, i),
                               _expand_perm(pfd.perm, i, d),
                               attach_caret(pfd.plus, pfd.perm(i)))


def _v_reduce_at(pfd: PairedForestDiagram, start: int):
    d = pfd.minus.degree
    rho = pfd.perm
    p = rho(start)
    for j in range(1, d):
        if rho(start + j) != p + j:
            return None
    if p not in elementary_caret_spans(pfd.plus):
        return None
    l = rho.size
    img = [0] * (l - d + 1)
    for j in range(1, l + 1):
        if start < j <= start + d - 1:
            continue
        nj = j - (d - 1 if j > start else 0)
        img[nj - 1] = rho(j) - (d - 1 if rho(j) > p else 0)
    return PairedForestDiagram(remove_elementary_caret(pfd.minus, start),
                               Permutation(img),
                               remove_elementary_caret(pfd.plus, p))


def v_reduce(pfd: PairedForestDiagram) -> PairedForestDiagram:
    while True:
        for start in elementary_caret_spans(pfd.minus):
            out = _v_reduce_at(pfd, start)
            if out is not None:
                pfd = out
                break
        else:
            return pfd


def v_multiply(a: PairedForestDiagram, b: PairedForestDiagram) -> PairedForestDiagram:
    if a.plus.roots != b.minus.roots:
        raise ValueError("feet/heads mismatch")
    _, path_a, path_b = join(a.plus, b.minus)
    for q in path_a:
        a = v_expand(a, a.perm.inverse()(q))
    for q in path_b:
        b = v_expand(b, q)
    return v_reduce(PairedForestDiagram(a.minus, a.perm * b.perm, b.plus))


def v_equal(a: PairedForestDiagram, b: PairedForestDiagram) -> bool:
    return v_reduce(a) == v_reduce(b)
