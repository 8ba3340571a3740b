"""Text format for group contexts and elements.

    group { d:2, r:1, flavor:V, gens:[1 1, 1 -1] }
    elem a {
      minus: (..)|.
      braid: 1
      labels: e; g1; g1^-1
      plus: .|(..)
    }

Each of the characters "{}[],;:" is a token by itself, and every other
token is a run of characters without whitespace, which is free between
tokens.  So a forest text is one token and holds no whitespace:
"(..)|." parses, "(..) | ." does not.  A number is an optional "-" and
then ASCII digits ("+1" and "1_0" are not numbers).  A braid word is a
run of numbers, a label word is a run of "e" and g<i>[^-1] tokens
separated by whitespace (an "e" among them stands for nothing, so
"g1 e g2" is "g1 g2", as in `Label.parse`), and label words are
separated by ";".
`gens:[]` declares the trivial label group.  A header whose arity is
below 2 or whose root count is below 1 is rejected at that number.  The
F and T flavors require pure generators and reject the header otherwise,
at its first impure generator, and their sessions hold only elements of
bF and bT: an element whose braid is not pure (F) or not a cyclic
rotation (T) is rejected at its name.

Every element of a text is parsed and validated, a field at a time: the
fixed tokens of an element are compared as slices, its braid run is
read with one `int_prefix` and range-checked once, and its label
run is split into words at the ";" tokens.  Within one text each distinct
label word is one shared `Label` and each distinct forest text one
`Forest`.  When a field fails its bulk check, the same step walks it
token by token to find the first fault, so an error is the one a
token-at-a-time parse meets first: a DslError at the line and column of
its token, found only once the error is raised.
"""

from __future__ import annotations

from ._checks import int_prefix
from .braids import BraidWord, is_pure
from .diagrams import GroupContext, Spraige
from .forests import decode as decode_forest
from .labeled import Label, LabeledBraid, LabelGroupSpec

_SPACED = [(c, " %s " % c) for c in "{}[],;:"]

# The fixed tokens of an element, as lists to compare with token slices.
_ELEM, _MINUS, _BRAID, _LABELS, _PLUS, _CLOSE = (
    ["elem"], ["{", "minus", ":"], ["braid", ":"], ["labels", ":"], ["plus", ":"], ["}"])


def _tokenize(text):
    """The tokens of text: each punctuation character of "{}[],;:", and
    each run of anything but whitespace (`str.isspace`) and punctuation."""
    for c, spaced in _SPACED:
        text = text.replace(c, spaced)
    return text.split()


class DslError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _Parser:
    """Recursive descent over the token strings of one text.  Tokens are
    addressed by index; error positions are derived only when raising."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # Within this parse: forest text -> Forest, label word text -> Label.
        self.forests, self.labels = {}, {}

    def error(self, message, at=None):
        """Raise a DslError at token index `at`, by default the next one.
        Only a newline ends a line; columns count characters from 1."""
        at = self.pos if at is None else at
        if at >= len(self.tokens):
            message += " (at end of input)"
            at = len(self.tokens) - 1
        text, start, end = self.text, 0, 0
        for tok in self.tokens[:at + 1]:  # only whitespace lies between two tokens
            start = text.find(tok, end)
            end = start + len(tok)
        raise DslError(message, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start))

    def check(self, at, build, *args, **kwargs):
        """build(*args, **kwargs), its ValueError reported at token `at`."""
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.error(str(exc), at)

    def next(self):
        pos = self.pos
        if pos >= len(self.tokens):
            self.error("unexpected end of input")
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, *texts):
        """Consume the fixed token sequence texts."""
        for text in texts:
            tok = self.next()
            if tok != text:
                self.error("expected %r, found %r" % (text, tok), self.pos - 1)

    def expect_at(self, at, texts):
        """The fixed token list `texts` starts at index `at`; on a mismatch,
        raise at its first differing token."""
        if self.tokens[at:at + len(texts)] != texts:
            self.pos = at
            self.expect(*texts)

    def at(self, text):
        return self.pos < len(self.tokens) and self.tokens[self.pos] == text

    def int_token(self, what):
        tok = self.next()
        values = int_prefix([tok])
        if not values:
            self.error("expected %s, found %r" % (what, tok), self.pos - 1)
        return values[0]

    def int_run(self, stop):
        """Consume the integer tokens from the next one up to the next token
        `stop` (or the end), converted in bulk; a token before it that is
        not an integer ends the run there."""
        tokens, start = self.tokens, self.pos
        try:
            end = tokens.index(stop, start)
        except ValueError:
            end = len(tokens)
        values = int_prefix(tokens[start:end])
        self.pos = start + len(values)
        return values

    # -- grammar -----------------------------------------------------------

    def parse_header(self) -> GroupContext:
        self.expect("group", "{", "d", ":")
        d_at, d = self.pos, self.int_token("an arity")
        self.expect(",", "r", ":")
        r_at, r = self.pos, self.int_token("a root count")
        self.expect(",", "flavor", ":")
        flavor = self.next()
        if flavor not in ("V", "F", "T"):
            self.error("flavor must be V, F or T", self.pos - 1)
        self.expect(",", "gens", ":", "[")
        gens = []  # (index of the first token, word)
        if not self.at("]"):
            gens.append(self._generator(d))
            while self.at(","):
                self.pos += 1
                gens.append(self._generator(d))
        self.expect("]", "}")
        # the arity error at the arity, and the context's at the first impure
        # generator of an F or T header, or else (too few roots) at the root count
        spec = self.check(d_at, LabelGroupSpec, d, [g for _, g in gens])
        impure = [at for at, g in gens if flavor != "V" and not is_pure(g)]
        return self.check(impure[0] if impure else r_at, GroupContext, d, r, spec, flavor)

    def parse_element(self, ctx: GroupContext):
        """One element; returns (index of its name token, Spraige)."""
        tokens, name = self.tokens, self.pos + 1
        self.expect_at(name - 1, _ELEM)
        if name >= len(tokens):
            self.error("unexpected end of input", name)
        if tokens[name] in ("{", "}", "group", "elem"):
            self.error("bad element name %r" % tokens[name], name)
        self.expect_at(name + 1, _MINUS)
        minus = self._forest(name + 4, ctx.d)
        self.expect_at(name + 5, _BRAID)
        braid_start = self.pos = name + 7
        letters = self.int_run("labels")
        self.expect_at(self.pos, _LABELS)
        self.pos += 2
        labels = self._labels(ctx.spec)
        self.expect_at(self.pos, _PLUS)
        plus = self._forest(self.pos + 2, ctx.d)
        self.expect_at(self.pos + 3, _CLOSE)
        self.pos += 4
        n = minus.leaves
        if n != plus.leaves:
            self.error("forests have %d and %d leaves" % (n, plus.leaves), name)
        if len(labels) != n:
            self.error("%d labels for %d leaves" % (len(labels), n), name)
        if letters and (0 in letters or max(letters) >= n or min(letters) <= -n):
            # raises the first bad letter's error at the braid run's first token
            self.check(braid_start, BraidWord, n, letters)
        braid = BraidWord._trusted(n, letters)
        return name, self.check(name, ctx.validate,
                                Spraige(minus, LabeledBraid(braid, labels), plus))

    def _generator(self, d):
        at = self.pos
        return at, self.check(at, BraidWord, d, self.int_run("]"))

    def _forest(self, at, d):
        """The forest of token `at`, decoded once per distinct text."""
        if at >= len(self.tokens):
            self.error("unexpected end of input", at)
        text = self.tokens[at]
        forest = self.forests.get(text)
        if forest is None:
            forest = self.forests[text] = self.check(at, decode_forest, text, d)
        return forest

    def _labels(self, spec):
        """The label words from the next token up to the first "plus".  The
        run is split at its ";" tokens into word texts (each padded with
        spaces, so that equal words have equal texts), and each new word
        text is checked once, by `_new_label`."""
        tokens, start = self.tokens, self.pos
        try:
            stop = tokens.index("plus", start)
        except ValueError:
            stop = len(tokens)
        words = (" %s " % " ".join(tokens[start:stop])).split(";")
        known, at = self.labels, start
        for word in words:
            if word not in known:
                known[word] = self._new_label(word, at, spec)
            at += len(word.split()) + 1  # its tokens and the ";" after them
        self.pos = stop
        return list(map(known.__getitem__, words))

    def _new_label(self, text, at, spec):
        """The Label of word text `text`, whose first token has index `at`;
        raises at the first token that a label run does not accept."""
        word, parts = [], text.split()
        for j, tok in enumerate(parts):
            if tok != "e" and not tok.startswith("g"):
                break
            word += self.check(at + j, Label.parse, tok).word
        else:
            j = len(parts)
        if j == 0:
            self.error("expected a label word", at)
        self.check(at, spec._check_word, word)
        if j < len(parts):  # a token no label word takes ends the run: it must be "plus"
            self.pos = at + j
            self.expect(*_PLUS)
        return Label(word)


def parse_session(text):
    """Parse a header plus any number of elements.
    Returns (context, ordered dict of name -> Spraige)."""
    p = _Parser(text)
    ctx = p.parse_header()
    elements = {}
    while p.pos < len(p.tokens):
        at, s = p.parse_element(ctx)
        name = p.tokens[at]
        if name in elements:
            p.error("duplicate element name %r" % name, at)
        elements[name] = s
    return ctx, elements


def parse_element_text(ctx: GroupContext, text: str) -> Spraige:
    p = _Parser(text)
    _, s = p.parse_element(ctx)
    if p.pos < len(p.tokens):
        p.error("trailing input after element")
    return s


def format_header(ctx: GroupContext) -> str:
    gens = ", ".join(str(g) for g in ctx.spec.generators)
    return "group { d:%d, r:%d, flavor:%s, gens:[%s] }" % (ctx.d, ctx.r, ctx.flavor, gens)


def format_element(name: str, s: Spraige) -> str:
    labels = "; ".join(str(l) for l in s.lb.labels)
    return ("elem %s {\n  minus: %s\n  braid: %s\n  labels: %s\n  plus: %s\n}"
            % (name, s.minus, s.lb.braid, labels, s.plus))


def format_session(ctx: GroupContext, elements) -> str:
    blocks = [format_header(ctx)]
    for name, s in elements.items():
        blocks.append(format_element(name, s))
    return "\n\n".join(blocks) + "\n"
