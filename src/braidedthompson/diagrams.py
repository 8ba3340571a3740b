"""Split-braid-merge diagrams and the braided Higman-Thompson groups.

A spraige is a triple (minus, (b, lambda), plus): a splitting forest, a
labeled braid on its leaves, and a merging forest with the same number
of leaves.  Group elements (for fixed arity d, root count r and label
group H <= B_d) are equivalence classes of (r,r)-spraiges under
expansion and reduction; every class has a unique reduced
representative, which makes equality decidable.

Expansion at leaf i attaches a caret to leaf i of the splitting forest
and to the leaf paired with it in the merging forest, replaces the i-th
strand of the braid by a d-strand cable with the realized label braid
inserted at the top of the tube, and labels the d new strands by the
old label.  Reduction is the reverse move; whether it applies at a
caret is decided by `labeled.labeled_uncable`, the inverse of the
`labeled.labeled_cable` move that expansion makes.

The GroupContext object fixes (d, r, H, flavor) and carries all the
operations; spraiges themselves are plain immutable data.
"""

from __future__ import annotations

from .braids import BraidWord, Permutation, is_cyclic, is_pure, permutation_of
from .forests import (Forest, attach_caret, elementary_caret_spans,
                      elementary_forest, forest_to_matching, join,
                      remove_elementary_caret)
from .labeled import (Label, LabeledBraid, labeled_cable, labeled_uncable,
                      lb_invert, lb_is_identity, lb_multiply)


class Spraige:
    """An (n,m)-spraige: n heads (roots of minus), m feet (roots of plus)."""

    __slots__ = ("minus", "lb", "plus")

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

    @property
    def heads(self):
        return self.minus.roots

    @property
    def feet(self):
        return self.plus.roots

    @property
    def leaves(self):
        return self.minus.leaves

    def is_braige(self):
        return self.minus.is_trivial()

    def is_elementary_braige(self):
        return self.minus.is_trivial() and self.plus.is_elementary()

    def __eq__(self, other):
        # componentwise on representatives; group equality is GroupContext.equal
        return (isinstance(other, Spraige) and self.minus == other.minus
                and self.lb == other.lb and self.plus == other.plus)

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

    def __repr__(self):
        return "PairedForestDiagram(%s, %r, %s)" % (self.minus, self.perm.image, self.plus)


class GroupContext:
    """Fixes the group bV_{d,r}(H) (flavor V) or its F/T siblings."""

    __slots__ = ("d", "r", "spec", "flavor")

    def __init__(self, d, r, spec, flavor="V"):
        if d < 2:
            raise ValueError("arity must be >= 2")
        if r < 1:
            raise ValueError("need at least one root")
        if spec.degree != d:
            raise ValueError("label group lives in B_%d, context has d=%d" % (spec.degree, d))
        if flavor not in ("V", "F", "T"):
            raise ValueError("flavor must be V, F or T")
        if flavor in ("F", "T") and not spec.require_pure:
            raise ValueError("flavor %s needs a pure label group" % flavor)
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
        if s.minus.degree != self.d:
            raise ValueError("element has arity %d, context %d" % (s.minus.degree, self.d))
        return s

    # -- expansion and reduction -------------------------------------------

    def expand(self, s: Spraige, i: int) -> Spraige:
        """Expansion at leaf i; the result represents the same element."""
        self.validate(s)
        l = s.leaves
        if not 1 <= i <= l:
            raise ValueError("leaf index %d out of range 1..%d" % (i, l))
        lb = labeled_cable(self.spec, s.lb, [1] * (i - 1) + [self.d] + [1] * (l - i))
        return Spraige(attach_caret(s.minus, i), lb,
                       attach_caret(s.plus, permutation_of(s.lb.braid)(i)))

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
        d = self.d
        self.validate(s)
        if start not in elementary_caret_spans(s.minus):
            raise ValueError("no elementary caret of the splitting forest at leaf %d" % start)
        rho = permutation_of(s.lb.braid)
        landing = sorted(rho(start + j) for j in range(d))
        p = landing[0]
        if landing != list(range(p, p + d)):
            return None
        if p not in elementary_caret_spans(s.plus):
            return None
        lb = labeled_uncable(self.spec, s.lb,
                             [1] * (start - 1) + [d] + [1] * (s.leaves - start - d + 1))
        if lb is None:
            return None
        return Spraige(remove_elementary_caret(s.minus, start), lb,
                       remove_elementary_caret(s.plus, p))

    def reduce(self, s: Spraige, order="asc") -> Spraige:
        """Apply reductions until none is possible.  The reduced
        representative is unique, so the scan order (lowest caret first by
        default) only affects the intermediate diagrams."""
        while True:
            spans = elementary_caret_spans(s.minus)
            if order == "desc":
                spans = list(reversed(spans))
            for start in spans:
                t = self.try_reduce_at(s, start)
                if t is not None:
                    s = t
                    break
            else:
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
        return s.minus == s.plus and lb_is_identity(self.spec, s.lb)

    def equal(self, g: Spraige, h: Spraige) -> bool:
        if g.heads != h.heads or g.feet != h.feet:
            raise ValueError("shape mismatch: (%d,%d) vs (%d,%d)"
                             % (g.heads, g.feet, h.heads, h.feet))
        return self.is_identity(self.multiply(g, self.invert(h)))

    # -- membership and projections ------------------------------------------

    def in_bF(self, s: Spraige) -> bool:
        if not self.spec.require_pure:
            raise ValueError("F membership needs a pure label group")
        return is_pure(self.reduce(s).lb.braid)

    def in_bT(self, s: Spraige) -> bool:
        if not self.spec.require_pure:
            raise ValueError("T membership needs a pure label group")
        return is_cyclic(self.reduce(s).lb.braid)

    def project_to_v(self, s: Spraige) -> PairedForestDiagram:
        """Forget braiding and labels, keep the leaf permutation.  Well
        defined on classes only when the labels are pure."""
        if not self.spec.require_pure:
            raise ValueError("projection to V needs a pure label group")
        return PairedForestDiagram(s.minus, permutation_of(s.lb.braid), s.plus)

    def r_label(self, s: Spraige) -> BraidWord:
        """The realized label of the first strand; invariant under change
        of representative."""
        return s.lb.labels[0].realize(self.spec)

    # -- dangling ------------------------------------------------------------

    def dangling_equal(self, x: Spraige, y: Spraige, flavor="V") -> bool:
        """Same dangling class, compared within the slice of elementary
        braiges carrying the same merge forest F.

        y must differ from x by right multiplication with a labeled braid
        on the feet, cabled along F: z = x.lb^-1 * y.lb has to be a
        labeled cable (`labeled_uncable` with the widths of F), and the
        extracted multiplier must send caret slots to caret slots,
        otherwise the right action would have changed the forest.
        `flavor` restricts the multiplier braid: pure for F, cyclic for T,
        unrestricted for V.
        """
        self._check_elementary_braige(x)
        self._check_elementary_braige(y)
        if x.leaves != y.leaves:
            raise ValueError("braiges on different head counts")
        if x.plus != y.plus:
            return False
        if flavor not in ("V", "F", "T"):
            raise ValueError("flavor must be V, F or T")
        widths = _widths(x)
        mult = labeled_uncable(self.spec, lb_multiply(lb_invert(x.lb), y.lb), widths)
        if mult is None:
            return False
        rho_c = permutation_of(mult.braid)
        if flavor == "F" and not rho_c.is_identity():
            return False
        if flavor == "T" and not rho_c.is_cyclic():
            return False
        return _keeps_slots(widths, rho_c)

    def cable_on_feet(self, x: Spraige, c: BraidWord, mus) -> Spraige:
        """Right-multiply the elementary braige x by the labeled braid
        (c, mus) on its feet, cabled along the merge forest (the forest is
        kept, so c must send caret slots to caret slots)."""
        self._check_elementary_braige(x)
        if c.strands != x.feet:
            raise ValueError("multiplier braid must live on the feet")
        mus = tuple(mus)
        if len(mus) != x.feet:
            raise ValueError("one label per foot")
        widths = _widths(x)
        if not _keeps_slots(widths, permutation_of(c)):
            raise ValueError("the multiplier permutation must preserve caret slots")
        ext = labeled_cable(self.spec, LabeledBraid(c, mus), widths)
        return Spraige(x.minus, lb_multiply(x.lb, ext), x.plus)

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


def _widths(x: Spraige):
    """Cable widths along the merge forest of an elementary braige: d
    under a caret, 1 under a bare root."""
    return [1 if t is None else x.plus.degree for t in x.plus.trees]


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
