"""thompson-powers: powers of x0 and x1 in F_{2,1} with trivial labels.

Forests carry the work: the join paths are long and almost every caret
of a product reduces, while the braid words stay empty.  A round is a
right-multiplication chain x^2 .. x^N for x0 and for x1, a squaring chain
x^2, x^4, .. x^(2^K), and one closing is_identity(x^N . x^-N).  The seed
picks the order of the three chains and the bases of the squaring chain
and of the closing check; the inputs are the generators themselves.
"""

from __future__ import annotations

import random

from common import Op, spraige_fingerprint

NAME = "thompson-powers"
# Input sets per run (see run.py): the inputs are the generators, and the
# seed only orders the chains and picks two bases, so one set repeats
# every round.
VARIANTS = 1
SIZES = {
    "full": {"chain_n": 80, "squarings": 7},
    "tiny": {"chain_n": 6, "squarings": 3},
}


def left_vine(k):
    return "(" * k + ".." + ")" + ".)" * (k - 1)


def right_vine(k):
    return "(." * k + "." + ")" * k


# Closed forms of the reduced powers: x0^n is (left vine -> right vine)
# with n+1 carets each; x1^n hangs the same pair under a root caret.
SHAPES = {
    "x0": lambda n: (left_vine(n + 1), right_vine(n + 1), n + 2),
    "x1": lambda n: ("(." + left_vine(n + 1) + ")", "(." + right_vine(n + 1) + ")", n + 3),
}


def _check_power(lib, gen, n):
    minus, plus, leaves = SHAPES[gen](n)

    def check(s):
        if (str(s.minus), str(s.plus), s.leaves) != (minus, plus, leaves):
            return "%s^%d is %s -> %s, expected %s -> %s" % (gen, n, s.minus, s.plus, minus, plus)
        if not lib.braids.is_trivial(s.lb.braid):
            return "%s^%d has a nontrivial braid" % (gen, n)
        if any(lab.word for lab in s.lb.labels):
            return "%s^%d has a nontrivial label" % (gen, n)
        return None

    return check


def generate(lib, seed, variant, size, workdir):
    rng = random.Random("%s:%d:%d" % (NAME, seed, variant))
    ctx = lib.diagrams.GroupContext(2, 1, lib.labeled.LabelGroupSpec.trivial(2), "F")

    def element(gen):
        minus, plus, _ = SHAPES[gen](1)
        f, g = lib.forests.decode(minus, 2), lib.forests.decode(plus, 2)
        return lib.diagrams.Spraige(f, lib.labeled.LabeledBraid.trivial(f.leaves), g)

    def chain(kind, gen, exponents):
        """x^e for each e in turn, as x^a . x^b with a, b already known."""
        store = {1: element(gen)}
        ops = []
        for e in exponents:
            a = e // 2 if kind == "square" else e - 1

            def run(e=e, a=a):
                store[e] = ctx.multiply(store[a], store[e - a])
                return store[e]

            ops.append(Op(kind, run, _check_power(lib, gen, e)))
        return store, ops

    n_max = size["chain_n"]
    store = {}
    chains = []
    for gen in sorted(SHAPES):
        store[gen], ops = chain("power", gen, range(2, n_max + 1))
        chains.append(ops)
    chains.append(chain("square", rng.choice(sorted(SHAPES)),
                        [2 ** k for k in range(1, size["squarings"] + 1)])[1])
    rng.shuffle(chains)
    ops = [op for ops in chains for op in ops]

    gen, n = rng.choice(sorted(SHAPES)), n_max

    def closing():
        x = store[gen][n]
        return ctx.is_identity(ctx.multiply(x, ctx.invert(x)))

    ops.append(Op("identity", closing, lambda answer: None if answer is True else
                  "is_identity(%s^%d . %s^-%d) returned %r" % (gen, n, gen, n, answer)))
    return ops


def fingerprint(answer):
    return answer if isinstance(answer, bool) else spraige_fingerprint(answer)
