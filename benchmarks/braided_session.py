"""braided-session: products and equality in two braided contexts.

Braids carry the work here, as a decision procedure: every equality and
identity test ends in Garside normal forms, and the twisted powers make
long words.  The contexts are the half-twist group (d=3, r=1, flavor V,
labels generated by Delta_3) and the full-twist group (d=2, r=1, flavor
V, pure labels generated by Delta_2^2).  Each round draws, per context,
`cases` pairs of random elements with `carets` carets in each forest, a
random signed braid word of `word_per_leaf` letters per leaf and label
words of at most two letters, and runs on each pair:

    multiply(a, b)                 reduce(invert(a))
    is_identity(a . a^-1)          equal(ab, expand(ab, i))   (true)
    equal(a, a . C), equal(b, b . C)   (false: C carries a pure commutator)

plus twisted powers equal(g^p . g^q, g^(p+q)) of x0-shaped elements g
with random braids and labels.  Every fourth case sends one operation
(mul, reduce, a false or a true eq, in turn) through ``cli.main`` in
process, against the session file written for the round.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from common import Op, invariant_summary, spraige_fingerprint

NAME = "braided-session"
# Input sets per run (see run.py): four draws of random elements, so that a
# run's cost and its tail do not hang on a few heavy draws.
VARIANTS = 4
SIZES = {
    "full": {"cases": 16, "carets": 3, "word_per_leaf": 1, "power_elements": 5,
             "power_carets": 2, "power_pairs": [[1, 1], [1, 2], [2, 1]]},
    "tiny": {"cases": 4, "carets": 2, "word_per_leaf": 1, "power_elements": 1,
             "power_carets": 2, "power_pairs": [[1, 1]]},
}

# sigma1^2 sigma2^2 sigma1^-2 sigma2^-2: pure, exponent sum 0 and nontrivial
# in B_3, so x and x.C differ although no cheap invariant tells them apart.
COMMUTATOR = (1, 1, 2, 2, -1, -1, -2, -2)
CLI_KINDS = ("mul", "reduce_inv", "eq_false", "eq_true")


def contexts(lib):
    braids, labeled = lib.braids, lib.labeled
    half = braids.half_twist(3)
    full = braids.half_twist(2) * braids.half_twist(2)
    return {
        "half-twist": lib.diagrams.GroupContext(
            3, 1, labeled.LabelGroupSpec(3, (half,), require_pure=False), "V"),
        "full-twist": lib.diagrams.GroupContext(
            2, 1, labeled.LabelGroupSpec(2, (full,), require_pure=True), "V"),
    }


def random_tree(rng, d, carets):
    """Text encoding of a random d-ary tree grown caret by caret at
    uniformly chosen leaves."""
    root = [None]
    slots = [(root, 0)]
    for _ in range(carets):
        parent, k = slots.pop(rng.randrange(len(slots)))
        node = [None] * d
        parent[k] = node
        slots.extend((node, j) for j in range(d))

    def enc(t):
        return "." if t is None else "(" + "".join(enc(c) for c in t) + ")"

    return enc(root[0])


def random_element(lib, rng, ctx, carets, word_per_leaf):
    minus = lib.forests.decode(random_tree(rng, ctx.d, carets), ctx.d)
    plus = lib.forests.decode(random_tree(rng, ctx.d, carets), ctx.d)
    leaves = minus.leaves
    letters = [rng.choice((1, -1)) * rng.randint(1, leaves - 1)
               for _ in range(word_per_leaf * leaves)] if leaves > 1 else []
    gens = len(ctx.spec.generators)
    labels = [lib.labeled.Label([rng.choice((1, -1)) * rng.randint(1, gens)
                                 for _ in range(rng.randint(0, 2))])
              for _ in range(leaves)]
    return lib.diagrams.Spraige(
        minus, lib.labeled.LabeledBraid(lib.braids.BraidWord(leaves, letters), labels), plus)


def commutator_element(lib, ctx):
    """A (1,1)-element carrying COMMUTATOR on three leaves."""
    forest = lib.forests.decode("(...)" if ctx.d == 3 else "((..).)", ctx.d)
    braid = lib.braids.BraidWord(3, COMMUTATOR)
    return lib.diagrams.Spraige(
        forest, lib.labeled.LabeledBraid(braid, [lib.labeled.Label()] * 3), forest)


def call_cli(lib, argv):
    """cli.main in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(expect):
    def check(answer):
        code, out, err = answer
        if code != 0:
            return "bht exited %d: %s" % (code, err.strip())
        return expect(json.loads(out))
    return check


def _cli_summary(lib, element):
    braid = lib.braids.BraidWord.from_string(element["leaves"], element["braid"])
    return (element["minus"], element["plus"],
            lib.braids.permutation_of(braid).image, braid.exponent_sum())


def _expect(value, what):
    return lambda answer: None if answer is value else "%s returned %r" % (what, answer)


def case_ops(lib, rng, ctx, j, size, c_elem, path):
    """The six operations of one case, and the elements they name in the
    session file."""
    a = random_element(lib, rng, ctx, size["carets"], size["word_per_leaf"])
    b = random_element(lib, rng, ctx, size["carets"], size["word_per_leaf"])
    ab = ctx.multiply(a, b)
    abe = ctx.expand(ab, rng.randint(1, ab.leaves))
    ac = ctx.multiply(a, c_elem)
    bc = ctx.multiply(b, c_elem)
    ai = ctx.invert(a)
    names = {k: "%s%d" % (k, j) for k in ("a", "b", "ab", "abe", "ac", "ai")}
    elements = dict(zip(names.values(), (a, b, ab, abe, ac, ai)))
    # every fourth case sends one operation through the CLI, kinds in turn
    via_cli = CLI_KINDS[(j // 4) % len(CLI_KINDS)] if j % 4 == 0 else None

    def summary(s):
        return invariant_summary(lib, s)

    def check_mul(p):
        # p . b^-1 reduces to the reduced form of a; in the pure context the
        # projection to V also agrees with the independent V oracle.
        if summary(ctx.multiply(p, ctx.invert(b))) != summary(ctx.reduce(a)):
            return "(a.b).b^-1 differs from a"
        if ctx.spec.require_pure:
            d = lib.diagrams
            oracle = d.v_multiply(ctx.project_to_v(a), ctx.project_to_v(b))
            if d.v_reduce(ctx.project_to_v(p)) != oracle:
                return "projection to V disagrees with the V oracle"
        return None

    def check_inverse(r):
        if not ctx.is_identity(ctx.multiply(a, r)):
            return "a . reduce(invert(a)) is not the identity"
        return None

    def same_as(library_call, what):
        return lambda out: (None if _cli_summary(lib, out["element"]) == summary(library_call())
                            else "bht %s differs from the library" % what)

    def says(value, what):
        return lambda out: (None if out["equal"] is value
                            else "bht eq %s said %r" % (what, out["equal"]))

    # kind, library call, its check, bht arguments, check of bht's answer
    table = (
        ("mul", lambda: ctx.multiply(a, b), check_mul,
         ["mul", names["a"], names["b"]], same_as(lambda: ctx.multiply(a, b), "mul")),
        ("reduce_inv", lambda: ctx.reduce(ctx.invert(a)), check_inverse,
         ["reduce", names["ai"]], same_as(lambda: ctx.reduce(ai), "reduce")),
        ("is_identity", lambda: ctx.is_identity(ctx.multiply(a, ctx.invert(a))),
         _expect(True, "is_identity(a . a^-1)"), None, None),
        ("eq_true", lambda: ctx.equal(ab, abe), _expect(True, "equal(ab, expand(ab))"),
         ["eq", names["ab"], names["abe"]], says(True, "ab expand(ab)")),
        ("eq_false", lambda: ctx.equal(a, ac), _expect(False, "equal(a, a.C)"),
         ["eq", names["a"], names["ac"]], says(False, "a a.C")),
        ("eq_false_b", lambda: ctx.equal(b, bc), _expect(False, "equal(b, b.C)"), None, None),
    )
    ops = []
    for kind, call, check, argv, cli_check in table:
        if kind == via_cli:
            argv = argv[:1] + ["--input", path] + argv[1:]
            ops.append(Op("cli_" + kind, lambda argv=argv: call_cli(lib, argv),
                          _cli_check(cli_check)))
        else:
            ops.append(Op(kind, call, check))
    return ops, elements


def vine(d, carets, left):
    """Text of the d-ary vine with `carets` carets hanging to the left or right."""
    if left:
        return "(" * carets + "." * d + (")" + "." * (d - 1)) * (carets - 1) + ")"
    return ("(" + "." * (d - 1)) * (carets - 1) + "(" + "." * d + ")" + ")" * (carets - 1)


def power_ops(lib, rng, ctx, size):
    """equal(g^p . g^q, g^(p+q)) for x0-shaped g (left vine -> right vine)
    with a random braid and labels, so that every g grows alike."""
    ops = []
    top = max(p + q for p, q in size["power_pairs"])
    for _ in range(size["power_elements"]):
        minus = lib.forests.decode(vine(ctx.d, size["power_carets"], True), ctx.d)
        plus = lib.forests.decode(vine(ctx.d, size["power_carets"], False), ctx.d)
        shape = random_element(lib, rng, ctx, size["power_carets"], size["word_per_leaf"])
        g = lib.diagrams.Spraige(minus, shape.lb, plus)
        powers = [ctx.identity(), g]
        while len(powers) <= top:
            powers.append(ctx.multiply(powers[-1], g))
        for p, q in size["power_pairs"]:
            ops.append(Op("twisted_power",
                          lambda p=p, q=q, powers=powers:
                          ctx.equal(ctx.multiply(powers[p], powers[q]), powers[p + q]),
                          _expect(True, "equal(g^%d . g^%d, g^%d)" % (p, q, p + q))))
    return ops


def generate(lib, seed, variant, size, workdir):
    rng = random.Random("%s:%d:%d" % (NAME, seed, variant))
    ops = []
    for tag, ctx in contexts(lib).items():
        path = os.path.join(workdir, "session-%s-%d.dsl" % (tag, seed))
        c_elem = commutator_element(lib, ctx)
        elements = {}
        for j in range(size["cases"]):
            more, named = case_ops(lib, rng, ctx, j, size, c_elem, path)
            ops.extend(more)
            elements.update(named)
        ops.extend(power_ops(lib, rng, ctx, size))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lib.dsl.format_session(ctx, elements))
    rng.shuffle(ops)
    return ops


def fingerprint(answer):
    if isinstance(answer, (bool, tuple)):
        return answer
    return spraige_fingerprint(answer)
