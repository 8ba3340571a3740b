"""Text format for group contexts and elements.

    group { d:2, r:1, flavor:V, gens:[1 1, 1 -1] }
    elem a {
      minus: (..)|.
      braid: 1
      labels: e; g1; g1^-1
      plus: .|(..)
    }

Whitespace is free everywhere; a braid word is a run of signed integers,
a label word is "e" or a run of g<i>[^-1] tokens separated by
whitespace, label words are separated by ";".  `gens:[]` declares the
trivial label group.  The F and T flavors require pure generators and
reject the header otherwise.

Every element of a text is parsed and validated.  An error is a DslError
at the line and column of its token, found only once the error is raised.
"""

from __future__ import annotations

import re

from .braids import BraidWord, is_pure
from .diagrams import GroupContext, Spraige
from .forests import decode as decode_forest, encode as encode_forest
from .labeled import Label, LabeledBraid, LabelGroupSpec

# A punctuation character, or a run of anything but whitespace and
# punctuation.  `\s` matches exactly the characters `str.isspace` accepts.
_TOKEN = re.compile(r"[{}\[\],;:]|[^\s{}\[\],;:]+")


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
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        # Within this parse: forest text -> Forest, label token -> its word.
        self.forests, self.words = {}, {}

    def error(self, message, at=None):
        """Raise a DslError at token index `at`, by default the next one.
        Only a newline ends a line; columns count characters from 1."""
        at = self.pos if at is None else at
        if at >= len(self.tokens):
            message += " (at end of input)"
            at = len(self.tokens) - 1
        text = self.text
        start = next((m.start() for i, m in enumerate(_TOKEN.finditer(text)) if i == at), 0)
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

    def at(self, text):
        return self.pos < len(self.tokens) and self.tokens[self.pos] == text

    def int_token(self, what):
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            self.error("expected %s, found %r" % (what, tok), self.pos - 1)

    def collect_ints(self):
        out, tokens, pos = [], self.tokens, self.pos
        try:
            while pos < len(tokens):
                out.append(int(tokens[pos]))
                pos += 1
        except ValueError:
            pass
        self.pos = pos
        return out

    # -- grammar -----------------------------------------------------------

    def parse_header(self) -> GroupContext:
        self.expect("group", "{", "d", ":")
        d = self.int_token("an arity")
        self.expect(",", "r", ":")
        r = self.int_token("a root count")
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
        require_pure = flavor in ("F", "T")
        for at, g in gens:
            if require_pure and not is_pure(g):
                self.error("flavor %s requires pure generators; %r is not pure"
                           % (flavor, str(g)), at)
        spec = self.check(None, LabelGroupSpec, d, [g for _, g in gens], require_pure=require_pure)
        return self.check(None, GroupContext, d, r, spec, flavor)

    def parse_element(self, ctx: GroupContext):
        """One element; returns (index of its name token, Spraige)."""
        self.expect("elem")
        name = self.pos
        if self.next() in ("{", "}", "group", "elem"):
            self.error("bad element name %r" % self.tokens[name], name)
        self.expect("{", "minus", ":")
        minus = self._forest(ctx.d)
        self.expect("braid", ":")
        braid_start = self.pos
        letters = self.collect_ints()
        self.expect("labels", ":")
        n_gens = len(ctx.spec.generators)
        labels = [self._label(n_gens)]
        while self.at(";"):
            self.pos += 1
            labels.append(self._label(n_gens))
        self.expect("plus", ":")
        plus = self._forest(ctx.d)
        self.expect("}")
        if minus.leaves != plus.leaves:
            self.error("forests have %d and %d leaves" % (minus.leaves, plus.leaves), name)
        if len(labels) != minus.leaves:
            self.error("%d labels for %d leaves" % (len(labels), minus.leaves), name)
        braid = self.check(braid_start, BraidWord, minus.leaves, letters)
        return name, ctx.validate(Spraige(minus, LabeledBraid(braid, labels), plus))

    def _generator(self, d):
        at = self.pos
        return at, self.check(at, BraidWord, d, self.collect_ints())

    def _forest(self, d):
        text = self.next()
        forest = self.forests.get(text)
        if forest is None:
            forest = self.forests[text] = self.check(self.pos - 1, decode_forest, text, d)
        return forest

    def _label(self, n_gens):
        """A label word: a run of "e" and g<i>[^-1] tokens."""
        tokens, words, word = self.tokens, self.words, []
        first = pos = self.pos
        while pos < len(tokens):
            tok = tokens[pos]
            part = words.get(tok)
            if part is None:
                if tok != "e" and not tok.startswith("g"):
                    break
                part = words[tok] = self.check(pos, Label.parse, tok).word
            word += part
            pos += 1
        self.pos = pos
        if pos == first:
            self.error("expected a label word")
        for x in word:
            if abs(x) > n_gens:
                self.error("label references undeclared generator g%d" % abs(x), first)
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
            % (name, encode_forest(s.minus), s.lb.braid, labels, encode_forest(s.plus)))


def format_session(ctx: GroupContext, elements) -> str:
    blocks = [format_header(ctx)]
    for name, s in elements.items():
        blocks.append(format_element(name, s))
    return "\n\n".join(blocks) + "\n"
