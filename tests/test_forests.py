import ast
import math
import pathlib
import re
import sys
from itertools import combinations, product

import pytest

from braidedthompson import (Forest, apply_path, attach_caret,
                             elementary_forest, expansion_path, forest_join,
                             forest_to_matching, is_prefix, matching_to_forest)
from braidedthompson.forests import (_first_expandable_leaf, decode,
                                    elementary_caret_spans, leaf_counts,
                                    remove_elementary_caret)
from conftest import seeded

LEAF = None  # a leaf in the oracles' nested tuples, parsed from a forest's text


def compositions(total, slots):
    """Every tuple of `slots` nonnegative integers that sums to total."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


def trees_by_carets(d, max_carets):
    """trees[k] spells every d-ary tree with exactly k carets, k <= max_carets."""
    trees = [["."]]
    for k in range(1, max_carets + 1):
        trees.append(["(" + "".join(combo) + ")" for split in compositions(k - 1, d)
                      for combo in product(*[trees[x] for x in split])])
    return trees


def all_forests(d, r, max_carets):
    """Every (d, r)-forest with at most max_carets carets, each once."""
    trees = trees_by_carets(d, max_carets)
    for total in range(max_carets + 1):
        for split in compositions(total, r):
            for combo in product(*[trees[x] for x in split]):
                yield decode("|".join(combo), d)


def test_attach_caret_counts():
    f = Forest.trivial(2, 1)
    c = attach_caret(f, 1)
    assert c.leaves == 2 and c.carets == 1
    rng = seeded("attach")
    for _ in range(100):
        d = rng.choice([2, 3])
        f = Forest.trivial(d, rng.randint(1, 4))
        for _ in range(rng.randint(0, 4)):
            f = attach_caret(f, rng.randint(1, f.leaves))
        before = f.leaves
        g = attach_caret(f, rng.randint(1, f.leaves))
        assert g.leaves == before + d - 1


def test_attach_caret_rebuilds_named_elementary_forest():
    # two carets on the trivial ternary 5-forest, at roots 2 and 5
    f = Forest.trivial(3, 5)
    g = attach_caret(f, 2)        # root 2 becomes a caret
    g = attach_caret(g, 7)        # root 5's leaf is now global leaf 7
    assert g == elementary_forest(5, {2, 5}, 3)
    assert g.leaves == 9


def test_attach_caret_range_check():
    with pytest.raises(ValueError):
        attach_caret(Forest.trivial(2, 1), 2)


def test_forests_come_only_from_text_and_the_named_constructors():
    # nested tuples (or lists) are no way in: the class has no constructor
    for trees in (((LEAF, LEAF),), [[LEAF, LEAF]]):
        with pytest.raises(TypeError):
            Forest(2, trees)
    f = attach_caret(decode(".|((...)..)", 3), 1)
    assert str(f) == "(...)|((...)..)" and repr(f) == "Forest(3, '(...)|((...)..)')"
    # no public attribute of a forest holds its trees
    for name in (n for n in dir(f) if not n.startswith("_")):
        assert not isinstance(getattr(f, name), (tuple, list)), name
    with pytest.raises(ValueError, match="^arity 1 must be >= 2$"):
        decode("(..)", 1)


def test_elementary_forest():
    assert elementary_forest(5, {2, 5}, 3).leaves == 9
    assert elementary_forest(4, set(), 2) == Forest.trivial(2, 4)
    assert elementary_forest(1, {1}, 2) == decode("(..)", 2)
    with pytest.raises(ValueError):
        elementary_forest(3, {4}, 2)
    with pytest.raises(ValueError, match="^root count 0 must be >= 1$"):
        elementary_forest(0, (), 2)


def test_join_trivials():
    f = decode("(..)|.", 2)
    j, pf, pg = forest_join(f, f)
    assert j == f and pf == () and pg == ()
    t = Forest.trivial(2, 2)
    j, pf, pg = forest_join(t, f)
    assert j == f and pg == ()
    assert apply_path(t, pf) == f


def test_join_nested_example():
    a = decode("(..)", 2)
    b = decode("((..).)", 2)
    j, pa, pb = forest_join(a, b)
    assert j == b
    assert pa == (1,)
    assert pb == ()


def test_join_is_least_upper_bound_exhaustive():
    fs = list(all_forests(2, 1, 4))
    assert len(fs) == 23
    for a in fs:
        for b in fs:
            j, pa, pb = forest_join(a, b)
            assert is_prefix(a, j) and is_prefix(b, j)
            assert apply_path(a, pa) == j
            assert apply_path(b, pb) == j
            for c in fs:
                if is_prefix(a, c) and is_prefix(b, c):
                    assert is_prefix(j, c)


def test_is_prefix_is_a_partial_order():
    fs = list(all_forests(2, 2, 3))
    for a in fs:
        assert is_prefix(a, a)
        for b in fs:
            if is_prefix(a, b) and is_prefix(b, a):
                assert a == b


def test_leaf_count_identity():
    for f in all_forests(3, 2, 3):
        assert f.leaves == f.roots + (f.degree - 1) * f.carets


def test_expansion_path_replays():
    rng = seeded("paths")
    for _ in range(100):
        d = rng.choice([2, 3])
        f = Forest.trivial(d, rng.randint(1, 3))
        g = f
        for _ in range(rng.randint(0, 4)):
            g = attach_caret(g, rng.randint(1, g.leaves))
        path = expansion_path(f, g)
        assert apply_path(f, path) == g


def test_matching_bijection_named_instance():
    # ternary forest with nine leaves, carets over 1..3 and 7..9
    f = matching_to_forest({(1, 3), (7, 9)}, 9, 3)
    assert forest_to_matching(f) == frozenset({(1, 3), (7, 9)})
    assert forest_to_matching(Forest.trivial(3, 4)) == frozenset()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_matching_bijection_exhaustive(d):
    for m in range(1, 11):
        count_by_carets = {}
        for c in range(0, m // d + 1):
            for sel in combinations(range(1, m - d + 2), c):
                iv = sorted(sel)
                if any(iv[i] + d - 1 >= iv[i + 1] for i in range(len(iv) - 1)):
                    continue
                intervals = frozenset((s, s + d - 1) for s in sel)
                f = matching_to_forest(intervals, m, d)
                assert f.leaves == m and f.is_elementary()
                assert forest_to_matching(f) == intervals
                count_by_carets[c] = count_by_carets.get(c, 0) + 1
        for c, cnt in count_by_carets.items():
            assert cnt == math.comb(m - c * (d - 1), c)


def test_matching_to_forest_rejections():
    cases = [(({(1, 2), (2, 3)}, 4, 2), "overlapping intervals"),
             (({(1, 3)}, 4, 2), "bad interval (1, 3) for d=2, m=4"),   # wrong length
             (({(4, 5)}, 4, 2), "bad interval (4, 5) for d=2, m=4"),   # out of range
             (({(0, 2)}, 4, 3), "bad interval (0, 2) for d=3, m=4")]   # out of range
    cases += [(((), 0, d), "root count 0 must be >= 1") for d in (2, 3)]
    for args, message in cases:
        with pytest.raises(ValueError) as exc:
            matching_to_forest(*args)
        assert str(exc.value) == message, args
    with pytest.raises(ValueError):
        forest_to_matching(decode("((..).)", 2))    # not elementary


def test_encoding_roundtrip():
    rng = seeded("encode")
    built = []
    for _ in range(200):
        d = rng.choice([2, 3])
        f = Forest.trivial(d, rng.randint(1, 4))
        for _ in range(rng.randint(0, 5)):
            f = attach_caret(f, rng.randint(1, f.leaves))
        assert decode(str(f), d) == f
        built.append(f)
    # two decoded forests compare by their texts, and agree with their trees
    for f, g in zip(built, built[:1] + built[:-1]):
        same = f.degree == g.degree and _oracle_trees(f) == _oracle_trees(g)
        assert (decode(str(f), f.degree) == decode(str(g), g.degree)) == same
    assert decode(".|.", 2) != decode(".|.", 3)
    with pytest.raises(ValueError):
        decode("(.)", 2)
    with pytest.raises(ValueError):
        decode("(..", 2)
    with pytest.raises(ValueError):
        decode("x", 2)


def test_remove_caret_inverts_attach():
    rng = seeded("remove")
    for _ in range(200):
        d = rng.choice([2, 3])
        f = Forest.trivial(d, rng.randint(1, 4))
        for _ in range(rng.randint(0, 5)):
            f = attach_caret(f, rng.randint(1, f.leaves))
        i = rng.randint(1, f.leaves)
        assert remove_elementary_caret(attach_caret(f, i), i) == f


# -- differential oracle: the recursive decoder --------------------------------
#
# The recursive-descent decoder that the one-pass `decode` replaced, frozen
# as it was, now returning the nested tuples it parses (a leaf is LEAF).
# The two must agree on every text: the same spelling (by the recursive
# encoder below) with equal leaf counts, or the same ValueError text.

def _oracle_decode(text, degree):
    trees = []
    for part in text.split("|"):
        part = part.strip()
        tree, pos = _oracle_parse_tree(part, 0, degree)
        if pos != len(part):
            raise ValueError("trailing characters in tree %r" % part)
        trees.append(tree)
    return tuple(trees)


def _oracle_trees(forest):
    """The forest's trees as nested tuples, parsed by the oracle from its text."""
    return _oracle_decode(str(forest), forest.degree)


def _oracle_parse_tree(s, pos, d):
    if pos >= len(s):
        raise ValueError("unexpected end of tree encoding")
    ch = s[pos]
    if ch == ".":
        return LEAF, pos + 1
    if ch == "(":
        pos += 1
        children = []
        for _ in range(d):
            child, pos = _oracle_parse_tree(s, pos, d)
            children.append(child)
        if pos >= len(s) or s[pos] != ")":
            raise ValueError("expected ')' at position %d (is the arity %d?)" % (pos, d))
        return tuple(children), pos + 1
    raise ValueError("unexpected character %r at position %d" % (ch, pos))


def _spelled(result):
    """A forest, or an oracle's nested tuples, as its text and leaf count."""
    if isinstance(result, Forest):
        return str(result), result.leaves
    return _oracle_encode(result), _oracle_leaves(result)


def decode_outcome(decoder, text, d):
    try:
        f = decoder(text, d)
    except ValueError as exc:
        return "error", str(exc)
    return ("ok",) + _spelled(f)


def mutate_forest_text(text, rng):
    """One seeded edit: a character dropped, added or swapped with another,
    an extra "|", or a stray character."""
    kind = rng.randrange(5)
    i = rng.randrange(len(text) + 1)
    if kind == 0 and text:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(".()|") + text[i:]
    if kind == 2 and len(text) > 1:
        i, j = sorted(rng.sample(range(len(text)), 2))
        return text[:i] + text[j] + text[i + 1:j] + text[i] + text[j + 1:]
    if kind == 3:
        return text[:i] + "|" + text[i:]
    return text[:i] + rng.choice("x ]0\t\u00e9") + text[i:]


def random_forest_texts(rng, d):
    for roots in (1, 2, 3, 4):
        for _ in range(15):
            f = Forest.trivial(d, roots)
            for _ in range(rng.randint(0, 6)):
                f = attach_caret(f, rng.randint(1, f.leaves))
            yield str(f)


DECODE_ERRORS = ("expected ')' at position", "unexpected end of tree encoding",
                 "unexpected character", "trailing characters in tree")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_decode_agrees_with_recursive_oracle(d):
    rng = seeded("decode-oracle-%d" % d)
    seen = set()
    for text in random_forest_texts(rng, d):
        got = decode_outcome(decode, text, d)
        assert got[0] == "ok" and got == decode_outcome(_oracle_decode, text, d), text
        assert got[1] == text
        for _ in range(40):
            bad = text
            for _ in range(rng.randint(1, 2)):
                bad = mutate_forest_text(bad, rng)
            got = decode_outcome(decode, bad, d)
            assert got == decode_outcome(_oracle_decode, bad, d), bad
            seen.add(got[0] if got[0] == "ok" else
                     next(kind for kind in DECODE_ERRORS if got[1].startswith(kind)))
    # the mutations reach valid texts and every error
    assert seen == {"ok", *DECODE_ERRORS}
    assert decode_outcome(decode, "(.x)", d)[1] == "unexpected character 'x' at position 2"
    assert decode_outcome(decode, "", d)[1] == "unexpected end of tree encoding"


# -- differential oracle: the recursive caret walkers --------------------------
#
# Before forests kept their text, elementary carets were found and removed,
# carets attached and counted, the shape questions answered and the prefix
# order decided by recursive walks over the trees.  Those walkers, frozen as
# they were, read the nested tuples `_oracle_trees` parses from a forest's
# text, and must agree with the library's functions; a text the library
# spells must be the one the recursive encoder makes from the same trees.

def _oracle_encode(trees):
    def enc(tree):
        if tree is LEAF:
            return "."
        return "(" + "".join(enc(c) for c in tree) + ")"
    return "|".join(enc(t) for t in trees)


def _oracle_leaves(trees):
    def leaves(tree):
        return 1 if tree is LEAF else sum(leaves(c) for c in tree)
    return sum(leaves(t) for t in trees)


def _oracle_carets(trees):
    def carets(tree):
        if tree is LEAF:
            return 0
        return 1 + sum(carets(c) for c in tree)
    return sum(carets(t) for t in trees)


def _oracle_is_trivial(trees):
    return all(t is LEAF for t in trees)


def _oracle_is_elementary(trees):
    return all(t is LEAF or all(c is LEAF for c in t) for t in trees)


def _oracle_is_prefix(f, g):
    def pref(a, b):
        if a is LEAF:
            return True
        if b is LEAF:
            return False
        return all(pref(x, y) for x, y in zip(a, b))

    return all(pref(a, b) for a, b in zip(f, g))


def _oracle_attach_caret(trees, i, d):
    """The trees with leaf i (global numbering) replaced by a caret."""
    counter = [0]

    def grow(tree):
        if tree is LEAF:
            counter[0] += 1
            return (LEAF,) * d if counter[0] == i else LEAF
        return tuple(grow(c) for c in tree)

    return tuple(grow(t) for t in trees)


def _oracle_elementary_caret_spans(trees):
    spans = []
    counter = [0]

    def walk(tree):
        if tree is LEAF:
            counter[0] += 1
            return
        if all(c is LEAF for c in tree):
            spans.append(counter[0] + 1)
            counter[0] += len(tree)
            return
        for c in tree:
            walk(c)

    for t in trees:
        walk(t)
    return spans


def _oracle_remove_elementary_caret(forest, start):
    d = forest.degree
    counter = [0]

    def rebuild(tree):
        if tree is LEAF:
            counter[0] += 1
            return tree, False
        if all(c is LEAF for c in tree):
            if counter[0] + 1 == start:
                counter[0] += d
                return LEAF, True
            counter[0] += d
            return tree, False
        out = []
        hit = False
        for c in tree:
            new, h = rebuild(c)
            out.append(new)
            hit = hit or h
        return tuple(out), hit

    trees = []
    found = False
    for t in _oracle_trees(forest):
        new, h = rebuild(t)
        trees.append(new)
        found = found or h
    if not found:
        raise ValueError("no elementary caret with leaves starting at %d" % start)
    return tuple(trees)


def removal_outcome(remove, forest, start):
    try:
        g = remove(forest, start)
    except ValueError as exc:
        return "error", str(exc)
    return ("ok",) + _spelled(g)


def caret_oracle_forests():
    """Every forest with at most 5 carets for d = 2, 3 and 1..3 roots, all
    decoded from their texts, then seeded random forests up to 12 carets
    for d = 2, 3, 4, all grown by `attach_caret`."""
    for d in (2, 3):
        for r in (1, 2, 3):
            yield from all_forests(d, r, 5)
    rng = seeded("caret-oracle")
    for _ in range(300):
        d = rng.choice([2, 3, 4])
        f = Forest.trivial(d, rng.randint(1, 4))
        for _ in range(rng.randint(0, 12)):
            f = attach_caret(f, rng.randint(1, f.leaves))
        yield f


def test_caret_functions_agree_with_recursive_oracles():
    count = 0
    rng = seeded("prefix-oracle")
    for built in caret_oracle_forests():
        d, trees = built.degree, _oracle_trees(built)
        text = _oracle_encode(trees)
        assert str(built) == text and built.leaves == _oracle_leaves(trees)
        # the same forest decoded from its text, with blanks around each tree
        parsed = decode(" %s\t" % " | ".join(text.split("|")), d)
        assert parsed == built and str(parsed) == text
        spans = _oracle_elementary_caret_spans(trees)
        # the prefix order against a refinement, a coarsening and an
        # unrelated forest of the same shape of roots; the refinement is
        # spelled as the recursive walker grows it
        i = rng.randint(1, built.leaves)
        finer = attach_caret(built, i)
        assert str(finer) == _oracle_encode(_oracle_attach_caret(trees, i, d))
        other = Forest.trivial(d, built.roots)
        for _ in range(rng.randint(0, 4)):
            other = attach_caret(other, rng.randint(1, other.leaves))
        for f in (built, parsed):
            assert elementary_caret_spans(f) == spans
            assert f.carets == _oracle_carets(trees)
            assert f.is_trivial() == _oracle_is_trivial(trees)
            assert f.is_elementary() == _oracle_is_elementary(trees)
            for g in (built, finer, other, Forest.trivial(d, built.roots)):
                assert is_prefix(f, g) == _oracle_is_prefix(trees, _oracle_trees(g))
                assert is_prefix(g, f) == _oracle_is_prefix(_oracle_trees(g), trees)
            for start in range(f.leaves + 2):
                got = removal_outcome(remove_elementary_caret, f, start)
                assert got == removal_outcome(_oracle_remove_elementary_caret, f, start)
                assert (got[0] == "ok") == (start in spans)
                count += got[0] == "ok"
    assert count > 10000
    # the prefix order on every pair of small forests
    for d, r in ((2, 1), (2, 2), (3, 2)):
        fs = [(f, _oracle_trees(f)) for f in all_forests(d, r, 3)]
        pairs = [(f, g) for f in fs for g in fs]
        assert all(is_prefix(f, g) == _oracle_is_prefix(a, b) for (f, a), (g, b) in pairs)
        assert sum(_oracle_is_prefix(a, b) for (_, a), (_, b) in pairs) > len(fs)


# -- equality, hashing and expansion paths read the text -----------------------

def test_deep_forests_compare_hash_and_count_under_the_recursion_limit():
    n = 5000
    left = "(" * n + "." + ".)" * n
    assert sys.getrecursionlimit() < n
    a, b = decode(left + "|.", 2), decode(left + "|.", 2)
    other = decode(".|" + left, 2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != other and leaf_counts(a) == (n + 1, 1) and leaf_counts(other) == (1, n + 1)
    # spelled from its trees by a move, the forest is built without recursion
    # too: attach_caret at the shallow root, and the union behind is_prefix
    c = attach_caret(other, 1)
    assert c == decode("(..)|" + left, 2) and hash(c) == hash(decode(str(c), 2))
    assert str(c) == "(..)|" + left and c.leaves == n + 3 and leaf_counts(c) == (2, n + 1)
    assert repr(c) == "Forest(2, %r)" % ("(..)|" + left)
    assert is_prefix(Forest.trivial(2, 2), other) and not is_prefix(c, a)
    for f in (a, c, other):
        assert not f.is_trivial() and not f.is_elementary()


def test_forests_compare_and_hash_by_text_however_built():
    for built in caret_oracle_forests():
        trees = _oracle_trees(built)
        parsed = decode(_oracle_encode(trees), built.degree)
        assert parsed == built and built == parsed
        assert hash(parsed) == hash(built)
        assert leaf_counts(parsed) == tuple(_oracle_leaves([t]) for t in trees)
    # the same text in two degrees names two forests
    assert Forest.trivial(2, 3) != Forest.trivial(3, 3)
    assert Forest.trivial(2, 1) != decode(".", 3)
    assert len({Forest.trivial(2, 1), decode(".", 2), Forest.trivial(3, 1)}) == 2


def _oracle_expansion_path(f, g):
    """The expansion path as it was first written: attach at the first
    expandable leaf until the forests compare equal."""
    if not is_prefix(f, g):
        raise ValueError("source is not a prefix of target")
    path = []
    cur = f
    while cur != g:
        i = _first_expandable_leaf(cur, g)
        cur = attach_caret(cur, i)
        path.append(i)
    return tuple(path)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expansion_path_agrees_with_compare_until_equal_oracle(d):
    rng = seeded("expansion-oracle-%d" % d)
    for _ in range(150):
        f = Forest.trivial(d, rng.randint(1, 3))
        for _ in range(rng.randint(0, 6)):
            f = attach_caret(f, rng.randint(1, f.leaves))
        g = f
        for _ in range(rng.randint(0, 12 - f.carets)):
            g = attach_caret(g, rng.randint(1, g.leaves))
        assert expansion_path(f, g) == _oracle_expansion_path(f, g)
        h = Forest.trivial(d, f.roots)
        for _ in range(rng.randint(0, 6)):
            h = attach_caret(h, rng.randint(1, h.leaves))
        j, pf, ph = forest_join(f, h)
        assert pf == _oracle_expansion_path(f, j) and ph == _oracle_expansion_path(h, j)


# The self-recursive functions of the package, all in forests.py.  Each one
# fails on Python's recursion limit for a deep enough input, so a new one
# fails the test below, and one made iterative must leave this set too.
# The two left, the tuple walks of attach_caret and of the union behind
# join and is_prefix, wait for ROADMAP item 1: splicing the text instead
# speeds up thompson-powers enough that the benchmark, which keeps every
# round's answers, charges the extra rounds to peak_rss_mb.
RECURSIVE = {("forests.py", name) for name in ("rebuild", "union")}
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "braidedthompson"


def self_recursive_functions(source):
    """The functions in `source` (nested ones included) whose bodies call
    their own name, as f(...) or as self.f(...) / cls.f(...)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name
                    or isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                found.add(node.name)
    return found


def test_recursive_functions_are_exactly_the_known_ones():
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in self_recursive_functions(path.read_text(encoding="utf-8"))}
    assert found == RECURSIVE


def test_integer_rule_is_spelled_in_one_module():
    # every single-value integer check goes through _checks.require_int,
    # so a new way in cannot grow its own copy of the rule
    spelled = {path.name for path in PACKAGE.glob("*.py")
               if "%r is not an integer" in path.read_text(encoding="utf-8")}
    assert spelled == {"_checks.py"}


def test_integer_text_is_read_in_one_module():
    # session text, braid words and label tokens read their integers through
    # _checks.int_prefix, so none of them accepts a spelling that int()
    # reads and the rule refuses ("+1", "1_0"), and the CLI's integer flags
    # use it too; only the CLI's JSON keys, checked to be ASCII digits
    # first, call int() themselves
    def reads_int(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == "int" or node.func.id == "map" and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "int")

    readers = {path.name for path in PACKAGE.glob("*.py")
               if any(map(reads_int, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))}
    assert readers == {"_checks.py", "cli.py"}


def test_bound_rule_is_spelled_in_one_module():
    # every size and index bound goes through require_int's low and high,
    # so the two wordings of a value below or outside its bound live there,
    # and no module spells a bound of its own ("must be >= 2", "1..%d")
    for wording in ("must be >= %d", "out of range %d.."):
        spelled = {path.name for path in PACKAGE.glob("*.py")
                   if wording in path.read_text(encoding="utf-8")}
        assert spelled == {"_checks.py"}, wording
    own = {path.name for path in PACKAGE.glob("*.py")
           if re.search(r"must be >= -?\d|out of range -?\d+\.\.", path.read_text(encoding="utf-8"))}
    assert own == set()


def test_undeclared_generator_rule_is_spelled_in_one_module():
    # Label.realize and the session parser both ask LabelGroupSpec._check_word
    spelled = {path.name for path in PACKAGE.glob("*.py")
               if "references undeclared generator" in path.read_text(encoding="utf-8")}
    assert spelled == {"labeled.py"}


def test_recursion_scan_sees_nested_functions_and_methods():
    source = """
def outer(n):
    def inner(m):
        return inner(m - 1) if m else 0
    return inner(n) + other(n)

class C:
    def method(self, n):
        return self.method(n - 1) if n else super().method(n)

    def plain(self, x):
        return x.plain()
"""
    assert self_recursive_functions(source) == {"inner", "method"}
