"""Rooted d-ary forests with global leaf addressing.

A forest is an ordered sequence of rooted trees in which every internal
node (caret) has exactly d ordered children.  Leaves are numbered
1..l depth-first, left to right across the whole forest.  Text encoding:

    tree   := "." | "(" tree{d} ")"
    forest := tree ("|" tree)*

so "(..)|." is the binary forest whose first tree is a single caret.

Everything is immutable.  A forest enters and leaves only as text.  It
comes from `decode`, `Forest.trivial`, `elementary_forest`,
`matching_to_forest` or a move, each of which checks its sizes where they
enter, and is spelled at birth; the text is its one canonical spelling
per degree: forests compare and hash by it, every shape question reads
it, its elementary carets are the substrings "(" + "."*d + ")", and each
tree's leaves are its dots.  Removing an elementary caret splices its
substring to a single "." in the text, so it costs one copy of the text
and no parse.  The trees as nested tuples (a leaf is None) are private,
the working form of `attach_caret` and of the union behind `join` and
`is_prefix`: a forest parsed or spelled from trees keeps them, and a
spliced one has them parsed from its text on first use, by those two
moves only.

An expansion path is a tuple of leaf indices; applying carets at those
leaves in order (indices refer to the forest as it grows) carries a
source forest to a target forest.
"""

from __future__ import annotations

from ._checks import require_int

_LEAF = None
_CLOSE = object()  # on the spelling stack, where a caret's ")" goes


class Forest:
    """An ordered (d,r)-forest.  leaves == roots + (d-1) * carets.  It has
    no public constructor: it comes from a text or a named constructor (see
    the module docstring), and its text (`str(forest)`) is spelled then."""

    __slots__ = ("degree", "_trees", "_leaves", "_text")

    @classmethod
    def _trusted(cls, degree, trees, leaves, text):
        """The one constructor: a forest from a text the library built
        arity-checked, with its leaf count and its tuple of trees, or None
        for trees not built yet (see `_trees_of`)."""
        f = object.__new__(cls)
        f.degree = degree
        f._trees = trees
        f._leaves = leaves
        f._text = text
        return f

    @classmethod
    def trivial(cls, degree, roots):
        require_int(degree, "arity", 2)
        require_int(roots, "root count", 1)
        return _spell(degree, (_LEAF,) * roots)

    @property
    def roots(self):
        return self._text.count("|") + 1

    @property
    def leaves(self):
        return self._leaves

    @property
    def carets(self):
        return (self.leaves - self.roots) // (self.degree - 1)

    def is_trivial(self):
        return "(" not in self._text

    def is_elementary(self):
        """Every caret's children are leaves of the forest (depth <= 1 trees):
        every "(" opens an elementary caret "(" + "."*d + ")"."""
        text = self._text
        return text.count("(") == text.count("(" + "." * self.degree + ")")

    def __eq__(self, other):
        # the text is canonical per degree, so it decides
        if not isinstance(other, Forest) or self.degree != other.degree:
            return False
        return self._text == other._text

    def __hash__(self):
        return hash((self.degree, self._text))

    def __repr__(self):
        return "Forest(%d, %r)" % (self.degree, self._text)

    def __str__(self):
        return self._text


def _spell(degree, trees):
    """The forest of a tuple of trees the library built: its text spelled
    and its leaves counted in one pass over an explicit stack, so any
    depth builds."""
    out, leaves = [], 0
    for tree in trees:
        if out:
            out.append("|")
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is _LEAF:
                out.append(".")
                leaves += 1
            elif node is _CLOSE:
                out.append(")")
            else:
                out.append("(")
                stack.append(_CLOSE)
                stack.extend(reversed(node))
    return Forest._trusted(degree, trees, leaves, "".join(out))


def leaf_counts(forest: Forest):
    """The number of leaves of each tree, root by root."""
    return tuple(part.count(".") for part in forest._text.split("|"))


def decode(text: str, degree: int) -> Forest:
    """Parse the dot/parenthesis/pipe encoding; arity-checked."""
    require_int(degree, "arity", 2)
    parts = [part.strip() for part in text.split("|")]
    trees, leaves = _parse(parts, degree)
    return Forest._trusted(degree, trees, leaves, "|".join(parts))


def _parse(parts, degree):
    """The trees of the tree texts `parts` and their leaf count.

    One pass per tree with an explicit stack of the open carets' children,
    so any depth parses under the recursion limit."""
    trees, leaves = [], 0
    for part in parts:
        end = len(part)
        open_carets = []  # children read so far, one list per open caret
        pos = 0
        while True:
            if pos >= end:
                raise ValueError("unexpected end of tree encoding")
            ch = part[pos]
            pos += 1
            if ch == "(":
                open_carets.append([])
                continue
            if ch != ".":
                raise ValueError("unexpected character %r at position %d" % (ch, pos - 1))
            leaves += 1
            node = _LEAF
            # close every caret that this node completes
            while open_carets:
                children = open_carets[-1]
                children.append(node)
                if len(children) < degree:
                    break
                if pos >= end or part[pos] != ")":
                    raise ValueError("expected ')' at position %d (is the arity %d?)"
                                     % (pos, degree))
                pos += 1
                node = tuple(open_carets.pop())
            else:
                break  # no caret is open, so node is the whole tree
        if pos != end:
            raise ValueError("trailing characters in tree %r" % part)
        trees.append(node)
    return tuple(trees), leaves


def _trees_of(forest: Forest):
    """The forest's tuple of trees, parsed from its text on first use."""
    if forest._trees is None:
        forest._trees = _parse(forest._text.split("|"), forest.degree)[0]
    return forest._trees


def attach_caret(forest: Forest, i: int) -> Forest:
    """Replace leaf i (global numbering) by a caret with d fresh leaves."""
    require_int(i, "leaf index", 1, forest.leaves)
    d = forest.degree

    def rebuild(tree, skip):
        # returns (new_tree or None, leaves consumed)
        if tree is _LEAF:
            if skip == 0:
                return (_LEAF,) * d, 1
            return None, 1
        used = 0
        for idx, c in enumerate(tree):
            new, cnt = rebuild(c, skip - used)
            if new is not None:
                return tree[:idx] + (new,) + tree[idx + 1:], used + cnt
            used += cnt
        return None, used

    skip = i - 1
    trees = _trees_of(forest)
    for idx, t in enumerate(trees):
        new, cnt = rebuild(t, skip)
        if new is not None:
            return _spell(d, trees[:idx] + (new,) + trees[idx + 1:])
        skip -= cnt
    raise AssertionError("unreachable")


def elementary_forest(n: int, J, d: int) -> Forest:
    """n roots, with a single caret on root i for each i in J."""
    require_int(d, "arity", 2)
    require_int(n, "root count", 1)
    J = {require_int(i, "caret root", 1, n) for i in J}
    caret = "(" + "." * d + ")"
    return decode("|".join(caret if i in J else "." for i in range(1, n + 1)), d)


def is_prefix(f: Forest, g: Forest) -> bool:
    """True iff g refines f node by node (f is obtained from g by pruning),
    that is, iff the join of f and g is g."""
    return _union(f, g) == g


def join(f: Forest, g: Forest):
    """Smallest common refinement, with expansion paths from both inputs.

    Returns (j, path_f, path_g) where apply_path(f, path_f) == j and
    apply_path(g, path_g) == j.
    """
    j = _union(f, g)
    return j, expansion_path(f, j), expansion_path(g, j)


def _union(f: Forest, g: Forest) -> Forest:
    """The smallest forest refining both: their trees laid over each other."""
    if f.degree != g.degree:
        raise ValueError("arity mismatch: %d vs %d" % (f.degree, g.degree))
    if f.roots != g.roots:
        raise ValueError("root count mismatch: %d vs %d" % (f.roots, g.roots))

    def union(a, b):
        if a is _LEAF:
            return b
        if b is _LEAF:
            return a
        return tuple(union(x, y) for x, y in zip(a, b))

    return _spell(f.degree, tuple(union(a, b) for a, b in zip(_trees_of(f), _trees_of(g))))


def expansion_path(f: Forest, g: Forest):
    """A witness path of caret attachments carrying prefix f to g."""
    if not is_prefix(f, g):
        raise ValueError("source is not a prefix of target")
    path, cur = [], f
    for _ in range(g.carets - f.carets):
        path.append(_first_expandable_leaf(cur, g))
        cur = attach_caret(cur, path[-1])
    return tuple(path)


def apply_path(f: Forest, path) -> Forest:
    for i in path:
        f = attach_caret(f, i)
    return f


def _first_expandable_leaf(cur: Forest, target: Forest):
    """The index of the first leaf of cur that is internal in target, for
    cur a proper prefix of target: their texts first differ at that leaf,
    where cur has "." and target "(", so it is one more than the dots
    before it."""
    a, b = cur._text, target._text
    pos = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
    return a.count(".", 0, pos) + 1


def _elementary_carets(forest: Forest):
    """(first leaf, text offset) of each elementary caret "(" + "."*d + ")"
    of the forest, left to right."""
    d, text = forest.degree, forest._text
    caret = "(" + "." * d + ")"
    leaves, counted = 0, 0
    pos = text.find(caret)
    while pos >= 0:
        leaves += text.count(".", counted, pos)
        yield leaves + 1, pos
        counted = pos
        pos = text.find(caret, pos + d + 2)


def _caret_at(forest: Forest, start: int):
    """The offset in the text of the elementary caret whose leaves start
    at `start`, or -1; reads the text only up to that caret."""
    for leaf, pos in _elementary_carets(forest):
        if leaf >= start:
            return pos if leaf == start else -1
    return -1


def _splice(forest: Forest, pos: int) -> Forest:
    """The forest with the elementary caret at text offset `pos` collapsed
    to a leaf: the text spliced, the trees left to `_trees_of`."""
    d, text = forest.degree, forest._text
    return Forest._trusted(d, None, forest._leaves - d + 1, text[:pos] + "." + text[pos + d + 2:])


def _caret_above(forest: Forest, pos: int):
    """The offset in the text of the elementary caret that holds the leaf
    at offset `pos`, or -1: its "(" is the last one within d characters
    before the leaf."""
    d, text = forest.degree, forest._text
    above = text.rfind("(", max(pos - d, 0), pos)
    return above if above >= 0 and text.startswith("(" + "." * d + ")", above) else -1


def elementary_caret_spans(forest: Forest):
    """For each elementary caret, the global index of its first leaf, in
    increasing order; non-elementary carets are skipped."""
    return [leaf for leaf, _ in _elementary_carets(forest)]


def remove_elementary_caret(forest: Forest, start: int) -> Forest:
    """Collapse the elementary caret whose leaves start at `start` back to
    a leaf."""
    pos = _caret_at(forest, require_int(start, "leaf index"))
    if pos < 0:
        raise ValueError("no elementary caret with leaves starting at %d" % start)
    return _splice(forest, pos)


def forest_to_matching(forest: Forest):
    """The d-matching of an elementary forest: a caret over leaves
    i..i+d-1 becomes the interval (i, i+d-1).  Returns a frozenset of
    (start, end) pairs."""
    if not forest.is_elementary():
        raise ValueError("forest is not elementary")
    return frozenset((s, s + forest.degree - 1) for s in elementary_caret_spans(forest))


def matching_to_forest(intervals, m: int, d: int) -> Forest:
    """Inverse of forest_to_matching: rebuild the elementary forest with m
    leaves from disjoint intervals [i, i+d-1] inside [1, m]."""
    require_int(d, "arity", 2)
    require_int(m, "leaf count", 1)
    starts = []
    for iv in intervals:
        a, b = iv
        require_int(a, "interval start", 1, m - d + 1)
        if type(b) is not int or b != a + d - 1:
            raise ValueError("bad interval %r for d=%d, m=%d" % (iv, d, m))
        starts.append(a)
    starts.sort()
    if any(b - a < d for a, b in zip(starts, starts[1:])):
        raise ValueError("overlapping intervals")
    # with k carets to its left, the caret over a..a+d-1 sits on root a-(d-1)k
    J = {a - (d - 1) * k for k, a in enumerate(starts)}
    return elementary_forest(m - (d - 1) * len(J), J, d)
